import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from juna.bitcodec import BitString, bit_long_shadow
from juna.compress import Digest, digest
from juna.errors import (
    DomainError,
    LengthMismatchError,
    ZeroMessageError,
)
from juna.keyfile import PublicParams, load
from juna.params import initialize

from compress_oracle import digest_oracle


def _walk_muls(counts: Counter) -> int:
    """Cost of grouped_pow over count positions at each level, from the counts.

    c positions over k distinct levels cost c - k bucket products, k - 1
    running-product and k - 1 result products, plus a square-and-multiply
    for each gap g between consecutive levels (taken down to 0):
    bit_length(g) - 1 squarings and popcount(g) - 1 products.
    """
    levels = sorted(counts, reverse=True)
    if not levels:
        return 0
    total = sum(counts.values()) + len(levels) - 2
    for e, below in zip(levels, levels[1:] + [0]):
        gap = e - below
        total += gap.bit_length() - 1 + bin(gap).count("1") - 1
    return total


def plain_muls(msg: BitString) -> int:
    """Cost of one bucketed walk over the 1-bits by their long shadows."""
    return _walk_muls(Counter(e for e in bit_long_shadow(msg).values if e))


def expected_muls(msg: BitString) -> int:
    """Cost of a digest under a key whose initial values are all units.

    With z zero bits, 2z < n, and more than z positions at the most common
    long shadow, s the lowest such level, the digest is T^s times a walk
    over the levels e - s above s and one over s - e below s, the zero bits
    at s: pow_muls(s), the two walks and one product per nonempty walk.
    Otherwise it is the plain walk.
    """
    counts = Counter(bit_long_shadow(msg).values)
    zeros = counts.pop(0, 0)
    size, s = max((c, -e) for e, c in counts.items())
    s = -s
    if 2 * zeros >= msg.n or size <= zeros:
        return _walk_muls(counts)
    up = Counter({e - s: c for e, c in counts.items() if e > s})
    down = Counter({s - e: c for e, c in counts.items() if e < s})
    if zeros:
        down[s] = zeros
    return _walk_muls(Counter({s: 1})) + _walk_muls(up) + _walk_muls(down) + bool(up) + bool(down)


def adversarial_messages(n: int) -> list[str]:
    """Bit patterns at the edges of the long-shadow range."""
    half = n // 2
    return [
        "1" + "0" * (n - 1),  # single 1-bit, first position
        "0" * half + "1" + "0" * (half - 1),  # single 1-bit, middle
        "0" * (n - 1) + "1",  # single 1-bit, last position
        "1" * n,  # all ones: every long shadow is 2, one product
        "1" * (n // 3) + "0" + "1" * (n - n // 3 - 1),  # all ones but one bit
        "1" * (n - 1) + "0",  # the plain walk's n + 1, 6 from the complement
        "1" * (n - 4) + "0000",  # four zero bits at level 2 of the complement
        "0000101" + "1" * (n - 7),  # n + 1 at n = 16, the exhaustive worst case
        "01" * half,
        "0011" * (n // 4),
        "1" + "0" * (3 * n // 4) + "1" * (n // 4 - 1),  # one long zero run
    ]


def test_tiny_digest_hand_checked(tiny_pub):
    # long shadows of 1111 are 2222, so d = 210^2 mod 101 = 64
    msg = BitString.from_string("1111")
    assert digest(tiny_pub, msg).value == 64
    assert digest_oracle(tiny_pub, msg).value == 64


def test_digest_equals_oracle_randomized(toy_pub, mid_pub):
    rng = random.Random(8)
    for pub in (toy_pub, mid_pub):
        for _ in range(1000):
            v = rng.getrandbits(pub.n) or 1
            msg = BitString.from_int(v, pub.n)
            assert digest(pub, msg).value == digest_oracle(pub, msg).value


def test_digest_deterministic(toy_pub):
    msg = BitString.from_string("01010110")
    assert digest(toy_pub, msg) == digest(toy_pub, msg)


def test_single_one_bit_is_power_of_initial_value(toy_pub):
    # a lone 1-bit carries the whole weight n and cannot double
    for x in range(toy_pub.n):
        msg = BitString.from_int(1 << x, toy_pub.n)
        expected = pow(toy_pub.C[toy_pub.n - 1 - x], toy_pub.n, toy_pub.M)
        assert digest(toy_pub, msg).value == expected


def test_mulcount_bound(toy_pub, mid_pub):
    for pub in (toy_pub, mid_pub):
        ctx = pub.context()
        rng = random.Random(21)
        for _ in range(200):
            v = rng.getrandbits(pub.n) or 1
            msg = BitString.from_int(v, pub.n)
            before = ctx.mulcount
            digest(pub, msg, ctx)
            used = ctx.mulcount - before
            assert used == expected_muls(msg)
            assert used <= 2 * pub.n


@pytest.fixture(scope="module")
def wide_pub(reference_pub):
    """n = 4096 over the reference modulus; the count depends only on the
    long shadows, so the initial values can be any residues."""
    rng = random.Random(4096)
    C = tuple(rng.randrange(2, reference_pub.M) for _ in range(4096))
    return PublicParams(m=reference_pub.m, n=4096, M=reference_pub.M, C=C)


def test_mulcount_adversarial_messages(reference_pub, wide_pub):
    for pub in (reference_pub, wide_pub):
        ctx = pub.context()
        for i, text in enumerate(adversarial_messages(pub.n)):
            msg = BitString.from_string(text)
            before = ctx.mulcount
            d = digest(pub, msg, ctx)
            used = ctx.mulcount - before
            assert d == digest_oracle(pub, msg), (pub.n, i)
            assert used == expected_muls(msg), (pub.n, i)
            assert used <= 2 * pub.n, (pub.n, i)


@pytest.mark.parametrize("n", [256, 4096])
def test_plain_walk_worst_cases_are_pinned(n):
    # both cost the plain walk n + 1; the complement form takes 0000101...1
    # to 19 (it costs n + 1 up to n = 16) and 11...10 to 6.  The count
    # depends only on the long shadows, so any residues serve
    pub = PublicParams(m=5, n=n, M=23, C=(2,) * n)
    ctx = pub.context()
    for text, muls in (("0000101" + "1" * (n - 7), 19), ("1" * (n - 1) + "0", 6)):
        msg = BitString.from_string(text)
        before = ctx.mulcount
        digest(pub, msg, ctx)
        assert ctx.mulcount - before == muls == expected_muls(msg), text[:8]
        assert plain_muls(msg) == n + 1, text[:8]


def _benchmark_messages(n: int, rng: random.Random) -> list[BitString]:
    """The bulk digest benchmark's three classes (uniform, 1-8 set bits,
    0-8 cleared bits), after all ones, the plain walk's n + 1 witness
    11...10 and a single leading 1-bit."""
    ones = (1 << n) - 1
    values = [ones, ones - 1, 1 << (n - 1)]
    for _ in range(12):
        values.append(rng.getrandbits(n) or 1)
        values.append(sum(1 << b for b in rng.sample(range(n), rng.randint(1, 8))))
        values.append(ones ^ sum(1 << b for b in rng.sample(range(n), rng.randint(0, 8))))
    return [BitString(v, n) for v in values]


@pytest.mark.parametrize("key", ["bundled-80-256", "seed4096-232-4096"])
def test_digest_and_count_do_not_depend_on_earlier_digests(key, reference_pub, request):
    # a traced and an untraced run of the same inputs share nothing but the
    # context: a table or cache built on first use and charged to it would
    # give the same message a different value or count in the second pass.
    # A fresh record has built nothing yet, whatever earlier tests digested
    pub = reference_pub._replace()
    if key.startswith("seed4096"):
        pub = load(request.getfixturevalue("keygen_4096")[1])
    ctx = pub.context()
    msgs = _benchmark_messages(pub.n, random.Random(pub.n))

    def run(order):
        out = {}
        for i in order:
            before = ctx.mulcount
            d = digest(pub, msgs[i], ctx)
            out[i] = (d.value, ctx.mulcount - before)
        return out

    forward = run(range(len(msgs)))
    assert run(reversed(range(len(msgs)))) == forward
    assert [used for _, used in forward.values()] == [expected_muls(m) for m in msgs]


@st.composite
def _run_messages(draw):
    """A nonzero message of even length n in [4, 4096] made of alternating
    runs of zeros and ones, the last run cut or stretched to fill n."""
    n = 2 * draw(st.integers(2, 2048))
    runs = draw(st.lists(st.integers(1, n), min_size=1, max_size=40))
    bit = draw(st.sampled_from("01"))
    text = ""
    for length in runs:
        text += bit * length
        bit = "1" if bit == "0" else "0"
    text = text[:n].ljust(n, text[-1])
    return text if "1" in text else text[:-1] + "1"


@settings(max_examples=150, deadline=None)
@given(_run_messages())
# the largest levels tie: 1, 2 and 4 at n/4 each, as many as the zero bits,
# or 1 and 2 at 3 each under 4 zero bits.  Only level 2 can hold more
# positions than there are zero bits (any other level needs a zero partner
# or a zero run per position), so a tie never takes the complement form
@example("1" * 8 + "10" * 4)
@example("1" * 2048 + "10" * 1024)
@example("000111111011")
def test_count_is_expected_muls_and_at_most_n_plus_1(text):
    # the count depends only on the long shadows, so any residues serve
    n = len(text)
    pub = PublicParams(m=5, n=n, M=23, C=(2,) * n)
    ctx = pub.context()
    msg = BitString.from_string(text)
    before = ctx.mulcount
    assert digest(pub, msg, ctx) == digest_oracle(pub, msg)
    assert ctx.mulcount - before == expected_muls(msg) <= plain_muls(msg) <= n + 1


def test_digest_exhaustive_at_toy_scale():
    for n in range(4, 15, 2):
        pub, _ = initialize(m=12, n=n, P=1201, nbar=n, rng=random.Random(n))
        ctx = pub.context()
        for v in range(1, 1 << n):
            msg = BitString.from_int(v, n)
            before = ctx.mulcount
            d = digest(pub, msg, ctx)
            assert ctx.mulcount - before == expected_muls(msg) <= plain_muls(msg) <= n + 1, (n, v)
            assert d == digest_oracle(pub, msg), (n, v)


@pytest.mark.parametrize(
    "key, blocks",
    [
        ("bundled", [(0, 42), (42, 84)]),
        ("m16_n256", [(0, 10), (10, 20)]),
    ],
)
def test_digest_factors_over_first_half_blocks(key, blocks, reference_pub):
    # First-half layout: 1-bits fixed at position 0, at each block's first
    # position and at n/2 - 1, the second half all zero.  Each free bit's long
    # shadow then depends only on its own block, so the digest splits:
    # digest(a | b) * digest(none) = digest(a) * digest(b) mod M.
    if key == "bundled":
        pub = reference_pub
    else:
        pub, _ = initialize(16, 256, 2**16, 256, rng=random.Random(7))
    n, M = pub.n, pub.M
    fixed = {0, n // 2 - 1} | {lo for lo, _ in blocks}

    def d(free):
        return digest(pub, BitString(sum(1 << (n - 1 - i) for i in fixed | free), n)).value

    rng = random.Random(blocks[1][1])
    for _ in range(200):
        a, b = ({i for i in range(lo + 1, hi) if rng.getrandbits(1)} for lo, hi in blocks)
        assert d(a | b) * d(set()) % M == d(a) * d(b) % M, (a, b)


def test_digest_rejects_bad_messages(toy_pub):
    with pytest.raises(ZeroMessageError):
        digest(toy_pub, BitString.from_string("0" * 8))
    with pytest.raises(LengthMismatchError):
        digest(toy_pub, BitString.from_string("1111"))


def test_digest_rejects_foreign_context(toy_pub, tiny_pub):
    with pytest.raises(DomainError):
        digest(toy_pub, BitString.from_string("1" * 8), tiny_pub.context())


def test_hex_is_fixed_width():
    assert Digest(value=64, m=12).hex == "040"
    assert Digest(value=1, m=80).hex == "0" * 19 + "1"
    assert str(Digest(value=1, m=80)) == Digest(value=1, m=80).hex



def test_grouped_and_dense_forms_count_expected_muls(reference_pub, wide_pub):
    # grouped_pow over the long-shadow groups and multi_pow over the dense
    # (C_i, e_i) pairs are the same computation: same value, same count, the
    # plain walk's, whichever form the digest takes
    rng = random.Random(77)
    for pub in (reference_pub, wide_pub):
        ctx = pub.context()
        texts = adversarial_messages(pub.n)
        texts += [format(rng.getrandbits(pub.n) or 1, f"0{pub.n}b") for _ in range(20)]
        for text in texts:
            msg = BitString.from_string(text)
            ls = bit_long_shadow(msg)
            counts = [ctx.mulcount]
            grouped = ctx.grouped_pow(pub.C, ls.groups)
            counts.append(ctx.mulcount)
            dense = ctx.multi_pow(zip(pub.C, ls.values))
            counts.append(ctx.mulcount)
            assert grouped == dense == digest_oracle(pub, msg).value
            assert counts[1] - counts[0] == counts[2] - counts[1] == plain_muls(msg)


def test_mulcount_survives_concurrent_hashing(toy_pub):
    # the counter must not lose updates under concurrent digest calls
    import threading

    ctx = toy_pub.context()
    rng = random.Random(55)
    batches = [
        [BitString.from_int(rng.randrange(1, 256), 8) for _ in range(100)]
        for _ in range(4)
    ]
    expected = sum(expected_muls(m) for batch in batches for m in batch)
    before = ctx.mulcount
    threads = [
        threading.Thread(target=lambda b=b: [digest(toy_pub, m, ctx) for m in b])
        for b in batches
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ctx.mulcount - before == expected


def test_first_use_of_the_inverse_table_from_several_threads(toy_pub):
    # four threads race the table's build on a fresh record of the toy key:
    # every value is the oracle's, and the summed count is the messages' own,
    # so the build charges nothing
    import sys
    import threading

    pub = toy_pub._replace()
    ctx = pub.context()
    n, ones = pub.n, (1 << pub.n) - 1
    rng = random.Random(34)
    batches = [[BitString(ones ^ (rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)), n)
                for _ in range(50)] for _ in range(4)]
    msgs = [m for batch in batches for m in batch]
    assert sum(map(expected_muls, msgs)) < sum(map(plain_muls, msgs))
    start = threading.Barrier(len(batches))
    values = {}

    def work(batch):
        start.wait()
        for m in batch:
            values[m] = digest(pub, m, ctx)

    before = ctx.mulcount
    threads = [threading.Thread(target=work, args=(b,)) for b in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert ctx.mulcount - before == sum(map(expected_muls, msgs))
    assert values == {m: digest_oracle(pub, m) for m in msgs}


@pytest.mark.parametrize("k", [0, 1])
def test_key_with_a_zero_initial_value_keeps_the_plain_walk(toy_pub, k):
    # C_j = 0 mod M leaves no inverse table: a dense message that a unit key
    # would hash from its complement takes the plain walk, and one with bit j
    # set has no digest, as with any message that sets bit j
    n, j = toy_pub.n, 3
    C = list(toy_pub.C)
    C[j] = k * toy_pub.M  # 0, or M itself
    pub = toy_pub._replace(C=tuple(C))
    ctx = pub.context()
    clear = BitString(((1 << n) - 1) ^ (1 << (n - 1 - j)), n)
    assert expected_muls(clear) < plain_muls(clear)
    before = ctx.mulcount
    assert digest(pub, clear, ctx) == digest_oracle(pub, clear)
    assert ctx.mulcount - before == plain_muls(clear)
    with pytest.raises(DomainError):
        digest(pub, BitString((1 << n) - 1, n), ctx)
