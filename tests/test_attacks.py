import os
import random
import threading
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juna import attacks
from juna.attacks import (
    MAX_INSTANCE_DIGITS,
    SEARCH_CHUNK,
    SubsetSumInstance,
    birthday_search,
    brute_force_collision,
    mitm_subset_sum,
    parse_instance,
)
from juna.compress import digest
from juna.errors import DomainError, InstanceTooLargeError, JunaError, ParseError

from attacks_oracle import assp_density, birthday_search_serial, brute_force_solve
from conftest import _affinity, _assert_left_clean, _process_state


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
    assert parse_instance("s=11\r\n\nc=1\n c=2 \nc=4\nc=8") == SubsetSumInstance(
        c=(1, 2, 4, 8), s=11
    )
    big = "9" * MAX_INSTANCE_DIGITS
    assert parse_instance(f"s={big}\nc={big}\n").s == int(big)
    for bad in (
        "c=\u00b2\ns=1\n",  # a digit, but not an ASCII one
        f"c=1{big}\ns=1\n",  # over the digit cap
        "c=1\nc=-1\ns=1\n",
        "c=1\ns=1\ns=2\n",
        "c=1\n",
        "s=1\n",
        "c=0\ns=1\n",  # weights must be positive
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
@given(st.one_of(st.text(max_size=64), _INSTANCE_TEXT))
def test_fuzz_parse_instance(text):
    try:
        inst = parse_instance(text)
    except JunaError:
        return
    canonical = "".join(f"c={c}\n" for c in inst.c) + f"s={inst.s}\n"
    assert parse_instance(canonical) == inst


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


# The birthday search on forked workers, against the serial loop.


def _counted(search, pub, *args):
    """search(pub, *args) and the multiplications it charged pub's context."""
    ctx = pub.context()
    before = ctx.mulcount
    return search(pub, *args), ctx.mulcount - before


@pytest.fixture
def workers(monkeypatch):
    """Sets the number of processes of every search in the test."""

    def set_count(k):
        monkeypatch.setattr(attacks, "part_count", lambda work, least: k)

    return set_count


def test_forked_search_is_the_serial_search_at_18_to_20_bits(reference_pub, workers, forks):
    workers(2)
    ends = set()
    for mask_bits in (18, 19, 20):
        for seed in range(8):
            args = (mask_bits, 1 << 16, seed)
            got = _counted(birthday_search, reference_pub, *args)
            assert got == _counted(birthday_search_serial, reference_pub, *args), args
            ends.add((got[0].trials - 1) // SEARCH_CHUNK % 2)
    assert len(forks) == 24
    assert ends == {0, 1}  # collisions in chunks of both processes


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("budget", [1, SEARCH_CHUNK + 10, 2 * SEARCH_CHUNK + 10])
def test_forked_search_spends_its_budget_as_the_serial_search(
    reference_pub, workers, forks, monkeypatch, tmp_path, k, budget
):
    # no collision at 30 bits; the last chunk, of 10 messages, is the first
    # child's at budget 74, and at budget 138 this process's at k = 2 and the
    # second child's at k = 3
    workers(k)
    calls = os.open(tmp_path / "digests", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    real = attacks.digest

    def counted(*args):
        os.write(calls, b".")  # one byte per digest, from whichever process
        return real(*args)

    monkeypatch.setattr(attacks, "digest", counted)
    args = (30, budget, 7)
    try:
        got = _counted(birthday_search, reference_pub, *args)
    finally:
        os.close(calls)
    assert got[0].collision is None and got[0].trials == budget
    assert got == _counted(birthday_search_serial, reference_pub, *args)
    assert len(forks) == k - 1
    # each message is digested once, by this process or by one child
    assert (tmp_path / "digests").stat().st_size == budget


def test_search_forks_only_from_two_processes_worth_of_work(
    mid_pub, reference_pub, forks, monkeypatch
):
    asked, real = [], attacks.part_count

    def spy(work, least):
        asked.append(work // least)
        return real(work, least)

    monkeypatch.setattr(attacks, "part_count", spy)
    for pub, mask_bits, budget in (
        (mid_pub, 16, 5000),  # acceptance criterion 8's searches
        (mid_pub, 20, 1 << 16),
        (reference_pub, 17, 1 << 16),
        (reference_pub, 30, 400),
    ):
        args = (mask_bits, budget, 3)
        assert _counted(birthday_search, pub, *args) == _counted(birthday_search_serial, pub, *args)
    assert forks == []
    assert asked == [0, 0, 1, 1]
    birthday_search(reference_pub, 18, 1 << 16, 3)
    assert asked[-1] == 2


@pytest.mark.parametrize("end", ["collision", "budget", "error"])
def test_every_search_exit_reaps_its_children(
    reference_pub, workers, forks, monkeypatch, setaffinity_calls, end
):
    workers(3)
    before = _process_state()
    parent, real, seen = os.getpid(), attacks.digest, []

    def watched(pub, msg, ctx=None):
        if os.getpid() == parent:
            seen.append(_affinity())
            if end == "error" and len(seen) > 100:
                raise RuntimeError("this process fails in its second chunk")
        return real(pub, msg, ctx)

    monkeypatch.setattr(attacks, "digest", watched)
    if end == "error":
        with pytest.raises(RuntimeError):
            birthday_search(reference_pub, 30, 1 << 16, 3)
    else:
        mask_bits, budget = (20, 1 << 16) if end == "collision" else (30, 300)
        stats = birthday_search(reference_pub, mask_bits, budget, 3)
        assert (stats.collision is None) == (end == "budget")
    assert len(forks) == 2
    _assert_left_clean(before)
    # the caller's CPU set is never changed, not even while it digests
    assert setaffinity_calls == []
    assert seen and all(cpus == before[1] for cpus in seen)


@pytest.mark.parametrize("k, after", [(2, 0), (2, 70), (3, 70)])
def test_a_child_that_exits_early_leaves_the_serial_result(
    reference_pub, workers, forks, monkeypatch, k, after
):
    # each child leaves after `after` digests: at once, or in its second chunk
    workers(k)
    parent, real, done = os.getpid(), attacks.digest, []

    def leaving(pub, msg, ctx=None):
        if os.getpid() != parent:
            if len(done) == after:
                os._exit(0)
            done.append(msg)
        return real(pub, msg, ctx)

    monkeypatch.setattr(attacks, "digest", leaving)
    args = (20, 1 << 16, 11)
    got = _counted(birthday_search, reference_pub, *args)
    assert got[0].trials > SEARCH_CHUNK * 2 * k
    assert got == _counted(birthday_search_serial, reference_pub, *args)
    assert len(forks) == k - 1


def test_a_search_from_a_second_thread_never_forks(reference_pub, forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    args = (20, 1 << 16, 5)
    results = []
    thread = threading.Thread(
        target=lambda: results.append(_counted(birthday_search, reference_pub, *args))
    )
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    assert results == [_counted(birthday_search_serial, reference_pub, *args)]


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
    small = reference_pub._replace(n=8, C=reference_pub.C[:8])
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
