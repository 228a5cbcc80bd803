import os
import random
import threading
from math import gcd, prod

import pytest

from juna import coprime
from juna.bitcodec import BitString, bit_shadow
from juna.coprime import (
    DRAW_CHUNK,
    MIN_DRAW_PART,
    CoprimeSequence,
    first_violation,
    generate,
    verify,
)
from juna.errors import (
    DomainError,
    InsufficientPrimesError,
    LengthMismatchError,
    SearchExhaustedError,
)
from juna.numtheory import is_probable_prime
from coprime_oracle import subset_product
from search_oracle import generate_by_randrange


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


def test_first_violation_matches_pair_scan_across_blocks():
    # 64 elements make a block of the coprimality pass; plant shared factors
    # inside one block, across blocks, and at both ends
    rng = random.Random(5)
    primes = [p for p in range(401, 20000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    outcomes = set()
    for _ in range(40):
        n = rng.randint(65, 200)
        a = rng.sample(primes, n)
        assert first_violation(CoprimeSequence(tuple(a))) is None
        for i, j in [rng.sample(range(n), 2), (0, n - 1), (63, 64)][: rng.randint(1, 3)]:
            f = rng.choice(_PRIMES[:12])
            a[i] *= f
            # A_j/F = A_k divides A_k, a violation, when A_j is f * A_k
            a[j] = f * (a[rng.randrange(n)] if rng.random() < 0.3 else a[j])
        if len(set(a)) < n:
            continue
        got = first_violation(CoprimeSequence(tuple(a)))
        assert got == _pair_scan(a), a
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_pair_scan_on_shared_factor_basis_is_bounded():
    # A_i = 2 * p_i: every pair shares 2 and the basis is admissible, which
    # the cubic pair scan took hours to find at n = 4096
    odd_primes = [p for p in range(3, 1 << 16) if all(p % d for d in range(2, int(p**0.5) + 1))]
    for n in (64, 256):
        seq = CoprimeSequence(tuple(2 * p for p in odd_primes[:n]))
        assert first_violation(seq) is None
    seq = CoprimeSequence(tuple(2 * p for p in odd_primes[:4096]))
    with pytest.raises(SearchExhaustedError, match="undetermined: pair scan stopped"):
        verify(seq)


def test_generate_respects_bound_and_seed():
    rng = random.Random(123)
    seq = generate(256, 287117, rng)
    assert len(seq) == 256
    assert max(seq.elements) <= 287117
    assert verify(seq)
    again = generate(256, 287117, random.Random(123))
    assert seq == again


@pytest.mark.parametrize(
    "n, P",
    [(2, 3), (6, 16), (64, 1201), (256, 287117), (256, 1 << 20), (512, 1 << 32)],
)
def test_generate_matches_randrange_loop(n, P):
    # At P = 3 the width is 2, so half the 2-bit draws, 2 and 3, are redrawn.
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert generate(n, P, rng) == generate_by_randrange(n, P, oracle_rng), seed
        assert rng.getstate() == oracle_rng.getstate(), seed


@pytest.mark.parametrize("P", [2, 3, 4, 5, 16, 17, 1201, (1 << 20) + 1, 1 << 32])
def test_inline_draw_is_randrange(P):
    # generate draws randrange(2, P + 1) as CPython's _randbelow does: k bits
    # for k the bit length of the width P - 1, redrawn while out of range.
    for seed in range(5):
        rng, inline = random.Random(seed), random.Random(seed)
        width = P - 1
        k = width.bit_length()
        for _ in range(200):
            x = inline.getrandbits(k)
            while x >= width:
                x = inline.getrandbits(k)
            assert x + 2 == rng.randrange(2, P + 1), (seed, P)
        assert inline.getstate() == rng.getstate(), (seed, P)


# The basis draw with its primality tests on forked processes, against the
# randrange loop.

DRAW_CASES = [(n, P) for n in (512, 600) for P in ((1 << 20) + 1, 1 << 32)]


@pytest.fixture
def draw_workers(monkeypatch):
    """Sets the number of processes of every basis draw in the test."""

    def set_count(k):
        monkeypatch.setattr(coprime, "part_count", lambda work, least: k)

    return set_count


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n, P", DRAW_CASES)
def test_forked_draw_is_the_randrange_loop(draw_workers, forks, tested, k, n, P):
    for seed in range(3):
        draw_workers(1)
        tested.clear()
        generate(n, P, random.Random(seed))
        alone = len(tested)
        draw_workers(k)
        tested.clear()
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert generate(n, P, rng) == generate_by_randrange(n, P, oracle_rng), seed
        assert rng.getstate() == oracle_rng.getstate(), seed
        # this process tests the candidates of about one chunk in k
        assert abs(len(tested) - alone / k) < 2 * DRAW_CHUNK, seed
    assert len(forks) == 3 * (k - 1)


class _ParentOnly(random.Random):
    """A seeded rng whose draws differ in every process but its maker's."""

    def __init__(self, seed):
        super().__init__(seed)
        self.maker = os.getpid()

    def getrandbits(self, k):
        x = super().getrandbits(k)
        return x if os.getpid() == self.maker else x ^ 1


@pytest.mark.parametrize("k", [2, 3])
def test_forked_draw_from_an_rng_that_does_not_replay(draw_workers, forks, k):
    # each child's record echoes a candidate other than this process's, so
    # this process tests every candidate itself
    draw_workers(k)
    for n, P in DRAW_CASES:
        rng, oracle_rng = _ParentOnly(n), random.Random(n)
        assert generate(n, P, rng) == generate_by_randrange(n, P, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()
        seq = generate(n, P, random.SystemRandom())
        assert len(set(seq)) == n
        assert all(2 <= x <= P and is_probable_prime(x) for x in seq)
    assert len(forks) == 2 * len(DRAW_CASES) * (k - 1)


@pytest.mark.parametrize("k, after", [(2, 0), (2, 100), (3, 100)])
@pytest.mark.parametrize("n, P", DRAW_CASES)
def test_a_child_that_exits_early_leaves_the_serial_draw(
    draw_workers, forks, monkeypatch, k, after, n, P
):
    # each child leaves after `after` tests: at once, or in its second chunk
    draw_workers(k)
    parent, real, done = os.getpid(), coprime.is_probable_prime, []

    def leaving(x):
        if os.getpid() != parent:
            if len(done) == after:
                os._exit(0)
            done.append(x)
        return real(x)

    monkeypatch.setattr(coprime, "is_probable_prime", leaving)
    rng, oracle_rng = random.Random(7), random.Random(7)
    assert generate(n, P, rng) == generate_by_randrange(n, P, oracle_rng)
    assert rng.getstate() == oracle_rng.getstate()
    assert len(forks) == k - 1


@pytest.mark.parametrize("end", ["drawn", "error"])
def test_every_draw_exit_reaps_its_children(draw_workers, forks, monkeypatch, end):
    draw_workers(3)
    parent, real, here = os.getpid(), coprime.is_probable_prime, []

    def failing(x):
        if os.getpid() == parent:
            here.append(x)
            if end == "error" and len(here) > 100:
                raise RuntimeError("this process fails in its second chunk")
        return real(x)

    monkeypatch.setattr(coprime, "is_probable_prime", failing)
    if end == "error":
        with pytest.raises(RuntimeError):
            generate(600, 1 << 32, random.Random(3))
    else:
        assert len(generate(600, 1 << 32, random.Random(3))) == 600
    assert len(forks) == 2


def test_draw_forks_only_from_two_processes_worth_of_primes(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for n in (2, 80, 2 * MIN_DRAW_PART - 2):
        assert generate(n, 1 << 32, random.Random(n)) == generate_by_randrange(n, 1 << 32, random.Random(n))
    assert forks == []
    generate(2 * MIN_DRAW_PART, 1 << 32, random.Random(1))
    assert len(forks) == 1


def test_a_draw_from_a_second_thread_never_forks(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results = []
    thread = threading.Thread(
        target=lambda: results.append(generate(2 * MIN_DRAW_PART, 1 << 32, random.Random(5)))
    )
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    assert results == [generate_by_randrange(2 * MIN_DRAW_PART, 1 << 32, random.Random(5))]


def test_generate_insufficient_primes():
    with pytest.raises(InsufficientPrimesError):
        generate(4096, 1 << 10, random.Random(0))


def test_constructor_rejects_duplicates_and_small():
    with pytest.raises(DomainError):
        CoprimeSequence((3, 3, 5))
    with pytest.raises(DomainError):
        CoprimeSequence((1, 2, 3))


def test_sequence_reads_as_its_elements():
    seq = CoprimeSequence((2, 3, 5, 7))
    assert 5 in seq and 4 not in seq and (2, 3, 5, 7) not in seq
    assert len(seq) == seq.n == 4
    assert list(seq) == [2, 3, 5, 7] and seq.elements == (2, 3, 5, 7)
    assert seq[1] == 3 and seq[-1] == 7 and seq[1:3] == (3, 5)
    assert repr(seq) == "CoprimeSequence(elements=(2, 3, 5, 7))"


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
