import random
from math import gcd, prod

import pytest

from juna.bitcodec import BitString, bit_shadow
from juna.coprime import (
    CoprimeSequence,
    first_violation,
    generate,
    subset_product,
    verify,
)
from juna.errors import DomainError, InsufficientPrimesError, LengthMismatchError


def test_published_sequences_verify():
    assert verify(CoprimeSequence((21, 15, 29, 23, 11, 17, 19, 13)))
    assert verify(CoprimeSequence((23, 7, 11, 3, 19, 13, 5, 17)))


def test_powers_of_two_fail():
    seq = CoprimeSequence((2, 4, 8))
    assert not verify(seq)
    # 2 and 4 share factor 2, and 2/2 = 1 divides 8
    assert first_violation(seq) == (0, 1, 2)


def test_distinct_primes_always_verify():
    rng = random.Random(9)
    for _ in range(20):
        seq = generate(16, 1201, rng)
        assert verify(seq)


def test_pairwise_coprime_composites_verify():
    assert verify(CoprimeSequence((4, 9, 25, 49)))


def test_shared_factor_with_dividing_reduction_fails():
    # 6 and 10 share 2; 6/2 = 3 divides 9
    seq = CoprimeSequence((6, 10, 9))
    assert first_violation(seq) == (0, 1, 2)


def _pair_scan(a):
    """The admissibility scan over every pair, as a test-side oracle."""
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            f = gcd(a[i], a[j])
            if f == 1:
                continue
            for k in range(len(a)):
                if k not in (i, j) and (a[k] % (a[i] // f) == 0 or a[k] % (a[j] // f) == 0):
                    return (i, j, k)
    return None


_PRIMES = [p for p in range(2, 400) if all(p % d for d in range(2, p))]


def _coprime_elements(rng, n):
    """n pairwise-coprime elements, each a product of 1 to 3 primes."""
    primes = rng.sample(_PRIMES, 3 * n)
    return [prod(primes[3 * i : 3 * i + rng.randint(1, 3)]) for i in range(n)]


def test_first_violation_matches_pair_scan():
    rng = random.Random(4)
    planted = violations = 0
    for _ in range(400):
        a = _coprime_elements(rng, rng.randint(2, 24))
        assert first_violation(CoprimeSequence(tuple(a))) is None
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(len(a)), 2)
            f = rng.choice(_PRIMES[:12])
            a[i] *= f
            a[j] *= f
        if len(set(a)) < len(a):
            continue
        planted += 1
        got = first_violation(CoprimeSequence(tuple(a)))
        assert got == _pair_scan(a), a
        violations += got is not None
    # both outcomes of a planted shared factor occur
    assert 0 < violations < planted


def test_generate_respects_bound_and_seed():
    rng = random.Random(123)
    seq = generate(256, 287117, rng)
    assert len(seq) == 256
    assert max(seq.elements) <= 287117
    assert verify(seq)
    again = generate(256, 287117, random.Random(123))
    assert seq == again


def test_generate_insufficient_primes():
    with pytest.raises(InsufficientPrimesError):
        generate(4096, 1 << 10, random.Random(0))


def test_constructor_rejects_duplicates_and_small():
    with pytest.raises(DomainError):
        CoprimeSequence((3, 3, 5))
    with pytest.raises(DomainError):
        CoprimeSequence((1, 2, 3))


def test_subset_product_examples():
    seq = CoprimeSequence((2, 3, 5, 7))
    assert subset_product(seq, (1, 1, 1, 1)) == 210
    assert subset_product(seq, (0, 0, 0, 0)) == 1
    with pytest.raises(LengthMismatchError):
        subset_product(seq, (1, 1))
    with pytest.raises(DomainError):
        subset_product(seq, (1, -1, 1, 1))


def test_subset_product_shadow_exponents():
    seq = CoprimeSequence((21, 15, 29, 23, 11, 17, 19, 13))
    sh = bit_shadow(BitString.from_string("01010110"))
    assert tuple(sh.values) == (0, 3, 0, 2, 0, 2, 1, 0)
    assert subset_product(seq, sh.values) == 15**3 * 23**2 * 17**2 * 19


def test_subset_products_injective_exhaustive():
    seq = CoprimeSequence((21, 15, 29, 23, 11, 17, 19, 13))
    assert verify(seq)
    plain = set()
    shadowed = set()
    for v in range(1, 1 << 8):
        msg = BitString.from_int(v, 8)
        plain.add(subset_product(seq, tuple(map(int, str(msg)))))
        shadowed.add(subset_product(seq, bit_shadow(msg).values))
    assert len(plain) == 255
    assert len(shadowed) == 255
