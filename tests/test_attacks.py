import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juna.attacks import (
    MAX_INSTANCE_BYTES,
    MAX_INSTANCE_DIGITS,
    SubsetSumInstance,
    assp_density,
    birthday_search,
    brute_force_collision,
    mitm_subset_sum,
    parse_instance,
)
from juna.compress import digest
from juna.errors import DomainError, InstanceTooLargeError, JunaError, ParseError

from attacks_oracle import brute_force_solve


def test_mitm_examples():
    assert mitm_subset_sum(SubsetSumInstance(c=(1, 2, 4, 8), s=11)) == (1, 1, 0, 1)
    assert mitm_subset_sum(SubsetSumInstance(c=(1, 2, 4, 8), s=16)) is None
    got = mitm_subset_sum(SubsetSumInstance(c=(5, 5, 5), s=10))
    assert got is not None and sum(got) == 2


def test_mitm_deterministic_tie_break():
    inst = SubsetSumInstance(c=(5, 5, 5), s=10)
    assert mitm_subset_sum(inst) == mitm_subset_sum(inst)


def test_mitm_cap():
    with pytest.raises(InstanceTooLargeError):
        mitm_subset_sum(SubsetSumInstance(c=(1,) * 41, s=3))


def test_brute_force_examples():
    assert brute_force_solve(SubsetSumInstance(c=(1, 2, 4, 8), s=11)) == [(1, 1, 0, 1)]
    sols = brute_force_solve(SubsetSumInstance(c=(5, 5, 5), s=10))
    assert sorted(sols) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert brute_force_solve(SubsetSumInstance(c=(3, 9), s=0)) == [(0, 0)]
    with pytest.raises(InstanceTooLargeError):
        brute_force_solve(SubsetSumInstance(c=(1,) * 25, s=1))


def test_brute_force_matches_naive_enumeration():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randrange(4, 13)
        c = tuple(rng.randrange(1, 100) for _ in range(n))
        s = rng.randrange(0, sum(c) + 2)
        inst = SubsetSumInstance(c=c, s=s)
        naive = sorted(
            bits
            for bits in product((0, 1), repeat=n)
            if sum(ci * b for ci, b in zip(c, bits)) == s
        )
        assert brute_force_solve(inst) == naive


def test_mitm_agrees_with_brute_force():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randrange(8, 17)
        c = tuple(rng.randrange(1, 1 << 16) for _ in range(n))
        if rng.randrange(2):
            bits = [rng.randrange(2) for _ in range(n)]
            s = sum(ci * b for ci, b in zip(c, bits))
        else:
            s = rng.randrange(1, sum(c) + 1)
        inst = SubsetSumInstance(c=c, s=s)
        got = mitm_subset_sum(inst)
        sols = brute_force_solve(inst)
        assert (got is not None) == bool(sols)
        if got is not None:
            assert sum(ci * b for ci, b in zip(c, got)) == s


def test_instance_validation():
    with pytest.raises(DomainError):
        SubsetSumInstance(c=(0, 1), s=1)
    with pytest.raises(DomainError):
        SubsetSumInstance(c=(1, 2), s=-1)


def test_parse_instance():
    assert parse_instance(b"s=11\r\n\nc=1\n c=2 \nc=4\nc=8") == SubsetSumInstance(
        c=(1, 2, 4, 8), s=11
    )
    big = "9" * MAX_INSTANCE_DIGITS
    assert parse_instance(f"s={big}\nc={big}\n".encode()).s == int(big)
    for bad in (
        "c=\u00b2\ns=1\n".encode(),  # non-ASCII byte
        b"c=1\ns=1\n" + b" " * MAX_INSTANCE_BYTES,  # over the size cap
        f"c=1{big}\ns=1\n".encode(),  # over the digit cap
        b"c=1\nc=-1\ns=1\n",
        b"c=1\ns=1\ns=2\n",
        b"c=1\n",
        b"s=1\n",
        b"c=0\ns=1\n",  # weights must be positive
    ):
        with pytest.raises(ParseError):
            parse_instance(bad)


_INSTANCE_TEXT = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("cs"), st.integers(0, 10**6)).map(lambda t: f"{t[0]}={t[1]}"),
        st.text(max_size=8),
    ),
    max_size=8,
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), _INSTANCE_TEXT.map(lambda t: t.encode("utf-8"))))
def test_fuzz_parse_instance(data):
    try:
        inst = parse_instance(data)
    except JunaError:
        return
    text = "".join(f"c={c}\n" for c in inst.c) + f"s={inst.s}\n"
    assert parse_instance(text.encode("ascii")) == inst


def test_birthday_budget_one(mid_pub):
    stats = birthday_search(mid_pub, mask_bits=16, budget=1, seed=0)
    assert stats.trials == 1
    assert stats.collision is None


def test_birthday_finds_truncated_collision(mid_pub):
    stats = birthday_search(mid_pub, mask_bits=8, budget=2000, seed=1)
    assert stats.collision is not None
    m1, m2 = stats.collision
    assert m1 != m2
    mask = (1 << 8) - 1
    assert digest(mid_pub, m1).value & mask == digest(mid_pub, m2).value & mask
    assert stats.collision_value == digest(mid_pub, m1).value & mask


def test_birthday_reproducible_and_mask_checked(mid_pub):
    a = birthday_search(mid_pub, mask_bits=10, budget=500, seed=9)
    b = birthday_search(mid_pub, mask_bits=10, budget=500, seed=9)
    assert a == b
    with pytest.raises(DomainError):
        birthday_search(mid_pub, mask_bits=mid_pub.m + 1, budget=10, seed=0)
    with pytest.raises(DomainError):
        birthday_search(mid_pub, mask_bits=4, budget=0, seed=0)


def test_birthday_full_width_at_toy_scale(toy_pub):
    # with no truncation the search can only stop on a genuine digest
    # collision, which toy parameters make reachable by pigeonhole
    stats = birthday_search(toy_pub, mask_bits=toy_pub.m, budget=4096, seed=0)
    assert stats.collision is not None
    m1, m2 = stats.collision
    assert m1 != m2
    assert digest(toy_pub, m1).value == digest(toy_pub, m2).value


def test_brute_force_collision_identity(toy_pub):
    pairs = brute_force_collision(toy_pub)
    assert pairs, "toy parameters at m=12 should produce collisions"
    for pair in pairs:
        assert pair.msg1 != pair.msg2
        assert digest(toy_pub, pair.msg1).value == pair.digest_value
        assert digest(toy_pub, pair.msg2).value == pair.digest_value
        assert pair.product_is_one
        assert all(-toy_pub.n <= y <= toy_pub.n for y in pair.ydiff)


def test_brute_force_collision_empty_at_wide_modulus(reference_pub):
    # 255 eight-bit messages cannot collide in an 80-bit range; build a
    # narrow view by reusing the first 8 reference values
    import dataclasses

    small = dataclasses.replace(
        reference_pub, n=8, C=reference_pub.C[:8]
    )
    assert brute_force_collision(small) == []


def test_brute_force_collision_cap(mid_pub):
    with pytest.raises(InstanceTooLargeError):
        brute_force_collision(mid_pub)  # n = 32 exceeds the toy cap


def test_assp_density():
    assert assp_density(256, 80) == Fraction(2048, 80)
    assert float(assp_density(256, 80)) == 25.6
    assert assp_density(64, 64) == 6  # n = m collapses to ceil(lg n)
    for n, m in ((256, 80), (1024, 100), (4096, 232)):
        assert assp_density(n, m) > (n - 1).bit_length() > 1
