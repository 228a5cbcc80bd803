import functools
import os
import random
import threading
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from juna import attacks, keyfile
from juna.attacks import (
    MAX_INSTANCE_DIGITS,
    SubsetSumInstance,
    birthday_search,
    brute_force_collision,
    mitm_subset_sum,
    parse_instance,
)
from juna.bitcodec import BitString
from juna.compress import digest
from juna.errors import DomainError, InstanceTooLargeError, JunaError, ParseError
from juna.keyfile import PublicParams, bundled_public_params
from juna.numtheory import pow_muls

from attacks_oracle import (
    assp_density,
    birthday_search_serial,
    brute_force_solve,
    grid_bits,
    search_messages,
)
from shadow_oracle import dense_long_shadows


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


# The birthday search tries a grid of Gray codes: row heads and column ratios
# by attacks._flip, each other cell one product of the two; the oracle builds
# the same messages by closed form and digests each whole.


def _counted(search, pub, *args):
    """search(pub, *args) and the multiplications it charged pub's context."""
    ctx = pub.context()
    before = ctx.mulcount
    return search(pub, *args), ctx.mulcount - before


def _flip_cost(v, w, n):
    """The long-shadow changes from v to w, by the dense oracle, and the
    products _flip's one grouped_pow and one mod_mul cost for them:
    c + r - 1 + sum pow_muls(e_i - e_(i+1)) for c changes over the r
    magnitudes e_1 > ... > e_r, e_(r+1) = 0."""
    old, new = (dense_long_shadows(format(x, f"0{n}b")) for x in (v, w))
    changes = [b - a for a, b in zip(old, new) if a != b]
    levels = sorted({abs(c) for c in changes}, reverse=True)
    gaps = sum(pow_muls(e - below) for e, below in zip(levels, levels[1:] + [0]))
    return changes, len(changes) + len(levels) - 1 + gaps


def _logged_calls(monkeypatch):
    """The (name, message) of each digest and _flip call the search makes
    while the test runs, the message as an int."""
    calls = []
    real_digest, real_flip = attacks.digest, attacks._flip

    def digested(pub, msg, ctx=None):
        calls.append(("digest", msg.value))
        return real_digest(pub, msg, ctx)

    def flipped(*args):
        out = real_flip(*args)
        calls.append(("_flip", out[0]))
        return out

    monkeypatch.setattr(attacks, "digest", digested)
    monkeypatch.setattr(attacks, "_flip", flipped)
    return calls


@functools.lru_cache(maxsize=4)
def _random_key(n):
    """A key of n random values below the bundled 80-bit prime modulus."""
    M = bundled_public_params().M
    rng = random.Random(n)
    return PublicParams(m=80, n=n, M=M, C=tuple(rng.randrange(1, M) for _ in range(n)))


@pytest.mark.parametrize("key", ["bundled", "m232_n4096"])
def test_gray_walk_equals_digest_at_every_step(key, reference_pub, keygen_4096):
    # every message of a Gray walk over 12 (or 8) free positions, among them
    # 0, n/2 - 1, n/2 and n - 1, around one fixed 1-bit at n/4
    pub = reference_pub if key == "bundled" else keyfile.load(keygen_4096[1])
    n, h = pub.n, pub.n // 2
    edges = [0, 1, h - 1, h, h + 1, n - 2, n - 1]
    free = edges + ([2, h // 2 + 1, h - 2, h + 2, n - 3] if key == "bundled" else [h - 2])
    ctx = pub.context()
    v = 1 << (n - 1 - h // 2)
    d = digest(pub, BitString(v, n)).value
    flipped, firsts, lasts = set(), 0, 0
    for t in range(1, 1 << len(free)):
        p = free[(t & -t).bit_length() - 1]
        before = ctx.mulcount
        w, d = attacks._flip(pub, ctx, v, d, n - 1 - p)
        assert w == v ^ 1 << (n - 1 - p)
        assert ctx.mulcount - before == _flip_cost(v, w, n)[1] <= 2 * n
        v = w
        assert d == digest(pub, BitString(v, n)).value, (key, t)
        flipped.add(p)
        ones = v | 1 << (n - 1 - p)  # whichever message has p set
        firsts += p == n - ones.bit_length()
        lasts += p == n - 1 - ((ones & -ones).bit_length() - 1)
    assert flipped >= set(edges) and firsts and lasts


def _flip_case(draw):
    n = 2 * draw(st.integers(2, 2048))
    edges = st.sampled_from([0, 1, n // 2 - 1, n // 2, n - 1])
    spots = draw(st.lists(st.one_of(edges, st.integers(0, n - 1)), min_size=1, max_size=6))
    some = sum(1 << (n - 1 - p) for p in set(spots))
    kind = draw(st.sampled_from(["uniform", "sparse", "dense"]))
    if kind == "uniform":
        v = draw(st.integers(0, (1 << n) - 1))
    else:
        v = some if kind == "sparse" else (1 << n) - 1 ^ some
    return n, v, n - 1 - draw(st.one_of(edges, st.sampled_from(spots), st.integers(0, n - 1)))


@settings(max_examples=150, deadline=None)
@given(st.composite(_flip_case)())
def test_flip_is_digest_at_cost_within_the_yao_bound(case):
    n, v, j = case
    w = v ^ 1 << j
    assume(v and w)
    pub = _random_key(n)
    ctx = pub.context()
    d = digest(pub, BitString(v, n)).value
    before = ctx.mulcount
    got = attacks._flip(pub, ctx, v, d, j)
    cost = ctx.mulcount - before
    assert got == (w, digest(pub, BitString(w, n)).value)
    changes, exact = _flip_cost(v, w, n)
    # Yao's count can exceed sum (pow_muls(|D|) + 1) (changes {8, 1}: 7
    # against 5); the bound holds as each gap <= e has pow_muls(gap) <=
    # 2 pow_muls(e)
    assert len(changes) <= 3
    assert cost == exact <= sum(2 * pow_muls(abs(c)) + 2 for c in changes) - 1
    assert cost <= 2 * n


def test_walk_is_the_whole_digest_walk_at_8_to_20_bits(reference_pub):
    for mask_bits in range(8, 21):
        for seed in range(3):
            args = (mask_bits, 1 << 16, seed)
            got = birthday_search(reference_pub, *args)
            assert got == birthday_search_serial(reference_pub, *args), args
            assert got.collision is not None


@pytest.mark.parametrize("mask_bits", [30, 80])
@pytest.mark.parametrize("budget", [1, 74, 138])
def test_walk_spends_its_budget_as_the_whole_digest_walk(
    reference_pub, monkeypatch, budget, mask_bits
):
    # no collision at 30 or 80 bits: 2**b - 1 column flips, one whole digest,
    # then one flip a further row, ceil(budget / 2**b) rows (b = 0, 3, 4)
    calls = _logged_calls(monkeypatch)
    args = (mask_bits, budget, 7)
    got = birthday_search(reference_pub, *args)
    assert got.collision is None and got.trials == budget
    assert got == birthday_search_serial(reference_pub, *args)
    b = grid_bits(reference_pub, *args[:2])
    rows = -(-budget // (1 << b))
    assert [name for name, _ in calls] == ["_flip"] * ((1 << b) - 1) + ["digest"] + ["_flip"] * (rows - 1)


@pytest.mark.parametrize(
    "key, mask_bits, budget, b",
    [
        ("bundled", 20, 1 << 16, 5),  # the benchmark's birthday-20
        ("bundled", 80, (1 << 10) - 1, 5),  # b <= w // 2
        ("bundled", 20, (1 << 126) - 1, 5),  # w + 2 = n/2: the window fits
        ("bundled", 20, 1 << 126, 0),  # w + 2 = n/2 + 1: it does not
        ("bundled", 3, 1 << 16, 0),  # mask_bits // 4 = 0
        ("bundled", 20, 1, 0),  # w // 2 = 0
        ("mid", 16, 5000, 4),  # acceptance criterion 8
        ("mid", 20, (1 << 14) - 1, 5),  # w + 2 = n/2 at n = 32
        ("mid", 20, 1 << 14, 0),
        ("no_inverses", 20, 1 << 16, 0),  # T = prod C_i = 0 mod M
    ],
    ids=lambda x: f"w{x.bit_length()}" if isinstance(x, int) and x > 1 << 32 else None,
)
def test_grid_is_chosen_where_the_window_fits_and_inverses_exist(
    key, mask_bits, budget, b, reference_pub, mid_pub, monkeypatch
):
    # 2**b - 1 column flips come before the first whole digest; b = 0 is the
    # plain walk, one whole digest and then one flip a trial
    if key == "no_inverses":  # position 4, int bit 251, is 0 in seed 4's draw
        pub = reference_pub._replace(C=reference_pub.C[:4] + (reference_pub.M,) + reference_pub.C[5:])
    else:
        pub = reference_pub if key == "bundled" else mid_pub
    assert grid_bits(pub, mask_bits, budget) == b
    calls = _logged_calls(monkeypatch)
    got = birthday_search(pub, mask_bits, budget, 4)
    assert got == birthday_search_serial(pub, mask_bits, budget, 4)
    names = [name for name, _ in calls]
    assert names.index("digest") == (1 << b) - 1
    if key == "no_inverses":
        assert names == ["digest"] * got.trials
    elif not b:
        assert names == ["digest"] + ["_flip"] * (got.trials - 1)


@pytest.mark.parametrize("end", ["collision", "budget", "error"])
def test_search_never_forks(reference_pub, forks, monkeypatch, end):
    real, steps = attacks._flip, []

    def watched(*args):
        steps.append(1)
        if end == "error" and len(steps) > 100:
            raise RuntimeError("the walk fails at its 101st step")
        return real(*args)

    monkeypatch.setattr(attacks, "_flip", watched)
    if end == "error":
        with pytest.raises(RuntimeError):
            birthday_search(reference_pub, 30, 1 << 16, 3)
    else:
        mask_bits, budget = (20, 1 << 16) if end == "collision" else (30, 300)
        stats = birthday_search(reference_pub, mask_bits, budget, 3)
        assert (stats.collision is None) == (end == "budget")
    assert forks == [] and steps


@pytest.mark.parametrize("budget", [255, 256, 4096])
def test_toy_walk_tries_each_nonzero_message_once(reference_pub, monkeypatch, budget):
    # 255 eight-bit messages do not collide at 80 bits, so the walk meets the
    # zero message, digests the one after it whole, and ends at 255 trials
    small = reference_pub._replace(n=8, C=reference_pub.C[:8])
    calls = _logged_calls(monkeypatch)
    stats = birthday_search(small, 80, budget, 5)
    assert stats.collision is None and stats.trials == 255
    assert sorted(v for _, v in calls) == list(range(1, 256))
    assert [name for name, _ in calls].count("digest") == 2
    assert stats == birthday_search_serial(small, 80, budget, 5)


def test_walk_counts_each_trial_through_the_key_context(mid_pub, reference_pub):
    # the first message's whole digest, each column and row flip's grouped_pow
    # and mod_mul, and one product a cell off column 0, all on the key's
    # context: at most 2n a trial
    for pub, mask_bits, budget in (
        (mid_pub, 16, 5000),  # acceptance criterion 8's searches
        (mid_pub, 20, 1 << 16),  # the window does not fit: the plain walk
        (reference_pub, 17, 1 << 16),
        (reference_pub, 30, 400),
    ):
        args = (mask_bits, budget, 3)
        got, muls = _counted(birthday_search, pub, *args)
        assert got == birthday_search_serial(pub, *args)
        b = grid_bits(pub, mask_bits, budget)
        cells = list(islice(search_messages(pub, *args), max(got.trials, 1 << b)))
        first_row = [v for r, _, v in cells if r == 0]
        heads = [v for _, c, v in cells[: got.trials] if c == 0]
        first = _counted(digest, pub, BitString(cells[0][2], pub.n))[1]
        flips = sum(_flip_cost(v, w, pub.n)[1] for walk in (first_row, heads) for v, w in zip(walk, walk[1:]))
        assert muls == first + flips + got.trials - len(heads)
        assert muls <= 2 * pub.n * got.trials


def test_a_key_with_no_inverse_table_digests_every_message_whole(reference_pub, monkeypatch):
    # C_4 = M makes T = prod C_i = 0 mod M, so there is no table of inverses:
    # every message is digested whole, and the first with position 4 set (the
    # ninth from seed 2) has digest 0, which digest refuses
    C = reference_pub.C
    pub = reference_pub._replace(n=8, C=C[:4] + (reference_pub.M,) + C[5:8])
    monkeypatch.setattr(attacks, "_flip", None)
    assert birthday_search(pub, 80, 8, 2) == birthday_search_serial(pub, 80, 8, 2)
    with pytest.raises(DomainError, match="positive"):
        birthday_search(pub, 80, 9, 2)


def test_a_search_from_a_second_thread_never_forks(reference_pub, forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    args = (20, 1 << 16, 5)
    results = []
    thread = threading.Thread(target=lambda: results.append(birthday_search(reference_pub, *args)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    assert results == [birthday_search_serial(reference_pub, *args)]


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
