import functools
import itertools
import math
import random

import pytest

from juna import chp, keyfile, numtheory
from juna.chp import _generates
from juna.errors import (
    CompositeSafeFormError,
    DomainError,
    NotInvertibleError,
    SearchExhaustedError,
    UnknownFactorizationError,
)
from juna.numtheory import (
    ModContext,
    _miller_rabin,
    _almost_extra_strong_lucas,
    _proves_safe_prime,
    _search_shape,
    ceil_lg,
    find_safe_prime,
    is_probable_prime,
    multiplicative_order_safe,
    pow_muls,
)
from compress_oracle import square_multiply_oracle
from prime_oracle import (
    _strong_probable_prime,
    composite_safe_form,
    find_safe_prime_unsieved,
    is_probable_prime_plain,
    almost_extra_strong_lucas_plain,
)

REFERENCE_M = 636743755563737235857207
# A prime whose (M-1)/2 = 1099511627791 * 1099511628401 is not.
_NON_SAFE_PRIME = 2417851640636633232984383
# Above this bound is_probable_prime is the Baillie-PSW test.
_BPSW_FROM = 3_317_044_064_679_887_385_961_981
# A 232-bit safe prime, the modulus of keygen at seed 4096, --m 232.
_M232 = 4997464105296651671487586932735032660345060982367994914078607644897439


def _sieve_flags(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


def test_ceil_lg():
    assert ceil_lg(1) == 0
    assert ceil_lg(2) == 1
    assert ceil_lg(1024) == 10
    assert ceil_lg(1025) == 11
    assert ceil_lg(REFERENCE_M) == 80
    with pytest.raises(DomainError):
        ceil_lg(0)


def test_is_probable_prime_small():
    assert is_probable_prime(2)
    assert is_probable_prime(3)
    assert not is_probable_prime(4)
    assert is_probable_prime(1201)
    with pytest.raises(DomainError):
        is_probable_prime(1)


def test_is_probable_prime_reference_modulus():
    assert is_probable_prime(REFERENCE_M)
    assert not is_probable_prime(REFERENCE_M - 1)
    assert is_probable_prime((REFERENCE_M - 1) // 2)


def test_is_probable_prime_agrees_with_sieve():
    flags = _sieve_flags(10**5)
    for x in range(2, 10**5):
        assert is_probable_prime(x) == bool(flags[x]), x


# Composites that pass Miller-Rabin to every base of a set: 2047 and 3277
# to 2; 1373653 to 2, 3; 25326001 to 2, 3, 5; 3215031751 to 2..7;
# 4759123141 to 2, 7, 61; 341550071728321 to 2..17; 3825123056546413051
# to 2..23.
_STRONG_PSEUDOPRIMES = (2047, 3277, 1_373_653, 25_326_001, 3_215_031_751,
                        4_759_123_141, 341_550_071_728_321, 3_825_123_056_546_413_051)


def test_is_probable_prime_same_verdict_as_plain():
    rng = random.Random(34)
    sample = [rng.randrange(2, 1 << 34) for _ in range(20_000)]
    around_tiers = [x + d for x in (4_759_123_141, 1 << 32, 1 << 34) for d in range(-600, 600)]
    for x in [*range(2, 5001), *sample, *around_tiers, *_STRONG_PSEUDOPRIMES]:
        assert is_probable_prime(x) == is_probable_prime_plain(x), x
    assert not any(is_probable_prime(x) for x in _STRONG_PSEUDOPRIMES)


def test_is_probable_prime_same_verdict_as_plain_on_32_bit_values():
    # below 4 759 123 141 the trial division is one gcd with the primes up to 47
    rng = random.Random(32)
    for x in (rng.randrange(2, 1 << 32) for _ in range(10**5)):
        assert is_probable_prime(x) == is_probable_prime_plain(x), x


@pytest.fixture(scope="module")
def odd_below_1e5():
    """(odd primes, odd composites that are not squares) below 10**5."""
    flags = _sieve_flags(10**5)
    odd = [n for n in range(3, 10**5, 2) if math.isqrt(n) ** 2 != n]
    return [n for n in odd if flags[n]], [n for n in odd if not flags[n]]


def test_lucas_half_rejects_base2_strong_pseudoprimes(odd_below_1e5):
    primes, _ = odd_below_1e5
    flags = _sieve_flags(10**6)
    spsp2 = [n for n in range(3, 10**6, 2) if not flags[n] and _strong_probable_prime(n, 2)]
    assert spsp2[:3] == [2047, 3277, 4033] and len(spsp2) == 46
    for n in spsp2:
        assert _miller_rabin(n, (2,)) and not _almost_extra_strong_lucas(n), n
    assert all(_miller_rabin(p, (2,)) for p in primes)


# The almost-extra-strong Lucas pseudoprimes below 10**5, P chosen as in the kernel.
_AESLPSP_BELOW_1E5 = [989, 3239, 5777, 10469, 10877, 27971, 29681, 30739, 31631, 39059,
                      72389, 73919, 75077]


def test_base2_half_rejects_strong_lucas_pseudoprimes(odd_below_1e5):
    primes, composites = odd_below_1e5
    assert [n for n in composites if almost_extra_strong_lucas_plain(n)] == _AESLPSP_BELOW_1E5
    # the V-only ladder passes exactly the composites the recurrence passes
    assert [n for n in composites if _almost_extra_strong_lucas(n)] == _AESLPSP_BELOW_1E5
    assert all(_almost_extra_strong_lucas(p) for p in primes)
    for n in _AESLPSP_BELOW_1E5:
        assert not _miller_rabin(n, (2,)), n


def test_strong_lucas_is_the_recurrence_at_64_to_232_bits(keygen_4096):
    # the V-only ladder against the matrix powers of the recurrence, at the
    # widths keygen tests.  Factoring these n is out of reach, so P comes
    # from juna's Jacobi symbol.
    rng = random.Random(64232)
    odd, fermat = [], [(keyfile.load(keygen_4096[1]).M - 1) // 2]  # seed-4096 cofactor
    while len(fermat) < 41:
        bits = rng.randrange(64, 233)
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if math.isqrt(n) ** 2 == n:
            continue
        if pow(2, n - 1, n) == 1:
            fermat.append(n)
        elif len(odd) < 1000:
            odd.append(n)
    assert len(odd) == 1000
    for n in odd + fermat:
        expected = almost_extra_strong_lucas_plain(n, numtheory._jacobi)
        assert _almost_extra_strong_lucas(n) == expected, n
    assert all(_almost_extra_strong_lucas(n) for n in fermat)


def test_lucas_half_rejects_prime_squares():
    # 3511 is a Wieferich prime: its square passes the base-2 strong test
    assert _miller_rabin(3511**2, (2,))
    flags = _sieve_flags(3000)
    for p in [q for q in range(2001, 3000) if flags[q]] + [3511, 2**61 - 1, 2**89 - 1]:
        assert not _almost_extra_strong_lucas(p * p), p
    assert not is_probable_prime((2**89 - 1) ** 2)


def test_chernick_carmichael_numbers_rejected():
    # (6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael number
    k = round((_BPSW_FROM / 1296) ** (1 / 3)) - 1  # n is about 1296 k**3
    found = []
    while len(found) < 12:
        k += 1
        a, b, c = 6 * k + 1, 12 * k + 1, 18 * k + 1
        if a * b * c > _BPSW_FROM and all(is_probable_prime_plain(f) for f in (a, b, c)):
            found.append(a * b * c)
    # two of them pass the base-2 strong test, so only the Lucas half rejects them
    assert sum(_strong_probable_prime(n, 2) for n in found) == 2
    for n in found:
        assert pow(2, n - 1, n) == 1  # a Fermat pseudoprime to base 2
        assert not is_probable_prime(n), n


def test_bpsw_needs_both_halves(monkeypatch):
    p, q = (next(x for x in range(b + 1, 2 * b, 2) if is_probable_prime_plain(x))
            for b in (10**12, 10**13))
    n = p * q  # a semiprime above the bound, with no factor below 2000
    assert n > _BPSW_FROM and not is_probable_prime(n)
    monkeypatch.setattr(numtheory, "_almost_extra_strong_lucas", lambda n: True)
    assert not is_probable_prime(n)  # the base-2 half rejects it alone
    monkeypatch.undo()
    monkeypatch.setattr(numtheory, "_miller_rabin", lambda n, bases: True)
    assert not is_probable_prime(n)  # and so does the Lucas half


def test_bpsw_agrees_with_plain_above_bound():
    rng = random.Random(2018)

    def random_prime(bits):
        while True:
            x = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            if is_probable_prime_plain(x):
                return x

    odd = [rng.randrange(_BPSW_FROM, 1 << rng.randrange(82, 300)) | 1 for _ in range(300)]
    semiprimes = [random_prime(b) * random_prime(b + 3) for b in range(42, 120, 3)]
    primes = [random_prime(b) for b in range(84, 240, 8)]
    assert all(x > _BPSW_FROM for x in semiprimes + primes)
    for x in odd + semiprimes + primes:
        assert is_probable_prime(x) == is_probable_prime_plain(x), x
    assert all(is_probable_prime(x) for x in primes)


def test_mod_pow_examples():
    assert ModContext(101).mod_pow(2, 0) == 1
    assert ModContext(23).mod_pow(5, 11) == 22
    assert ModContext(101).mod_inverse(1) == 1


def test_mod_pow_agrees_with_iterated_multiplication():
    ctx = ModContext(1009)
    rng = random.Random(17)
    for _ in range(1000):
        base = rng.randrange(1, 1009)
        exp = rng.randrange(0, 1 << 12)
        acc = 1
        for _ in range(exp):
            acc = acc * base % 1009
        assert ctx.mod_pow(base, exp) == acc


def test_mod_pow_negative_exponent():
    ctx = ModContext(23)
    assert ctx.mod_pow(5, -1) == ctx.mod_inverse(5)
    assert ctx.mod_mul(ctx.mod_pow(5, -3), ctx.mod_pow(5, 3)) == 1
    with pytest.raises(NotInvertibleError, match="^0 has no inverse modulo 23$"):
        ctx.mod_pow(46, -2)


def test_multi_pow_agrees_with_pow_and_counts_once():
    ctx = ModContext(1009)
    rng = random.Random(19)
    for _ in range(300):
        pairs = [
            (rng.randrange(1, 3000), rng.randrange(0, 40))
            for _ in range(rng.randrange(0, 12))
        ]
        expected = 1
        for base, e in pairs:
            expected = expected * pow(base, e, 1009) % 1009
        before = ctx.mulcount
        assert ctx.multi_pow(pairs) == expected
        # never more than one product per unit of exponent
        assert ctx.mulcount - before <= max(sum(e for _, e in pairs) - 1, 0)


@pytest.mark.parametrize("M", [1009, REFERENCE_M, _M232])
def test_grouped_pow_agrees_with_multi_pow_and_pow(M):
    ctx = ModContext(M)
    rng = random.Random(23)
    unit_gaps = long_gaps = 0
    for _ in range(300):
        # levels a random walk up from 0, so that gaps of 1 and of 2 or more
        # both occur, and bases drawn unreduced onto them
        walk = list(itertools.accumulate(rng.choices((1, 1, 1, 2, 3, 6, 40), k=rng.randrange(1, 8))))
        bases = [rng.randrange(1, 3 * M) for _ in range(rng.randrange(0, 12))]
        exps = [rng.choice(walk) for _ in bases]
        groups = {}
        for i, e in enumerate(exps):
            groups.setdefault(e, []).append(i)
        expected = math.prod(pow(b, e, M) for b, e in zip(bases, exps)) % M
        # c bases over k exponents: c + k - 2 products, plus each gap's
        # square-and-multiply, the last gap taken down to 0
        levels = sorted(groups, reverse=True) + [0]
        gaps = [e - below for e, below in zip(levels, levels[1:])]
        unit_gaps += gaps.count(1)
        long_gaps += len(gaps) - gaps.count(1)
        muls = len(bases) + len(groups) - 2 if bases else 0
        muls += sum(g.bit_length() + g.bit_count() - 2 for g in gaps)
        before = ctx.mulcount
        assert ctx.grouped_pow(bases, groups) == expected
        assert ctx.mulcount - before == muls
        # zero exponents are skipped, at no cost
        pairs = list(zip(bases, exps)) + [(b, 0) for b in bases[:3]]
        rng.shuffle(pairs)
        before = ctx.mulcount
        assert ctx.multi_pow(pairs) == expected
        assert ctx.mulcount - before == muls
    assert unit_gaps > 100 and long_gaps > 100


def _grouped_pow_muls(exps):
    """grouped_pow's charge for bases raised to exps, all >= 1."""
    if not exps:
        return 0
    levels = sorted(set(exps), reverse=True) + [0]
    gaps = [e - below for e, below in zip(levels, levels[1:])]
    return len(exps) + len(levels) - 3 + sum(pow_muls(g) for g in gaps)


@pytest.mark.parametrize("M", [1009, REFERENCE_M, _M232])
def test_multi_pow_of_signed_exponents(M):
    ctx = ModContext(M)
    rng = random.Random(29)
    both = 0
    for _ in range(300):
        pairs = [
            (rng.randrange(1, 3 * M), rng.choice((0, 1, -1, 2, -2)) * rng.randrange(1, 50))
            for _ in range(rng.randrange(0, 12))
        ]
        pairs = [(b, e) for b, e in pairs if e >= 0 or b % M]  # 0 has no inverse
        expected = math.prod(pow(b, e, M) for b, e in pairs) % M
        up = [e for _, e in pairs if e > 0]
        down = [-e for _, e in pairs if e < 0]
        # each half as grouped_pow charges it, plus one product joining them
        muls = _grouped_pow_muls(up) + _grouped_pow_muls(down) + (1 if up and down else 0)
        both += bool(up and down)
        before = ctx.mulcount
        assert ctx.multi_pow(pairs) == expected
        assert ctx.mulcount - before == muls
    assert both > 100


def test_grouped_pow_and_multi_pow_refuse_nonpositive_exponents():
    ctx = ModContext(1009)
    for groups in ({2: [0], 0: [1]}, {-1: [0, 1]}):
        with pytest.raises(DomainError):
            ctx.grouped_pow([3, 5], groups)
    assert ctx.mulcount == 0
    assert ctx.multi_pow([(3, 0), (5, 0)]) == ctx.grouped_pow([], {}) == 1


def _bits_of_exponents(pairs, bits, M):
    """The per-bit subset products, one base at a time."""
    out = []
    for k in range(bits):
        s = 1
        for base, e in pairs:
            if e >> k & 1:
                s = s * base % M
        out.append(s)
    return out


@pytest.mark.parametrize(
    "M, bits",
    [(1019, 64), (1019, 13), (1019, 8), (1019, 9), (REFERENCE_M, 64), (REFERENCE_M, 1), (_M232, 64)],
)
def test_bit_products_agree_with_pow(M, bits):
    ctx = ModContext(M)
    rng = random.Random(bits)
    for size in (0, 1, 7, 300):
        pairs = [(rng.randrange(1, M), rng.getrandbits(bits)) for _ in range(size)]
        expected = 1
        for base, e in pairs:
            expected = expected * pow(base, e, M) % M
        before = ctx.mulcount
        product, per_bit = ctx.bit_products(pairs, bits)
        assert product == expected
        assert per_bit == _bits_of_exponents(pairs, bits, M)
        # each nonzero 8-bit digit; for bit k, at step j = k % 8 of its
        # window, a fold of 2 * (256 >> j) buckets into 256 >> j when j > 0,
        # and S_k over the 128 >> j odd ones; and Horner's 2 per bit
        digits = sum(1 for _, e in pairs for s in range(0, bits, 8) if e >> s & 255)
        halving = sum((128 >> k % 8) + (256 >> k % 8 if k % 8 else 0) for k in range(bits))
        assert ctx.mulcount - before == digits + halving + 2 * bits


def test_square_multiply_matches_loop_oracle():
    # builtin pow plus bit_length + popcount - 2 is the loop's value and count
    assert pow_muls(0) == 0
    M80 = REFERENCE_M
    base = 394375509141369037703184
    for e in range(1, 4097):
        assert (pow(base, e, M80), pow_muls(e)) == square_multiply_oracle(base, e, M80), e
    rng = random.Random(232)
    for M in (M80, _M232):
        ctx = ModContext(M)
        for _ in range(200):
            b, e = rng.randrange(M), rng.randrange(1, 1 << 232)
            value, muls = square_multiply_oracle(b, e, M)
            assert pow(b, e, M) == value and pow_muls(e) == muls
            before = ctx.mulcount
            assert ctx.mod_pow(b, e) == value
            assert ctx.mulcount - before == muls


def test_mod_inverse_errors():
    ctx = ModContext(23)
    with pytest.raises(NotInvertibleError):
        ctx.mod_inverse(0)
    for x in range(1, 23):
        assert ctx.mod_mul(x, ctx.mod_inverse(x)) == 1


def test_mulcount_reproducible():
    def run():
        ctx = ModContext(1009)
        ctx.mod_pow(7, 123456)
        ctx.mod_mul(3, 5)
        ctx.mod_pow(11, 99)
        return ctx.mulcount

    assert run() == run()
    # exponent 0 and 1 cost nothing
    ctx = ModContext(1009)
    ctx.mod_pow(7, 0)
    ctx.mod_pow(7, 1)
    assert ctx.mulcount == 0


def test_context_rejects_bad_modulus():
    for M in (100, 2, 1, 0, -5):
        with pytest.raises(DomainError):
            ModContext(M)


@pytest.mark.parametrize("M, q", [
    (3, None),  # (M-1)/2 = 1: M is tested itself
    (5, 2),
    (23, 11),
    (101, None),  # 50 is not prime
    (1009, None),  # 504 is not prime
    (100, DomainError),  # even
    (9, DomainError),  # 4 is not prime, and neither is 9
    (2 * 31 + 1, CompositeSafeFormError),  # 63 = 7 * 9 although 31 is prime
])
def test_context_derives_cofactor(M, q):
    if isinstance(q, type):
        with pytest.raises(q):
            ModContext(M)
    else:
        assert ModContext(M).q == q


def test_safe_prime_proof_matches_sieve():
    flags = _sieve_flags(2 * 10**5 + 1)
    verdicts = {True: 0, False: 0}
    for q in range(2, 10**5):
        if flags[q]:
            proof = _proves_safe_prime(2 * q + 1)
            assert proof == bool(flags[2 * q + 1]), q
            verdicts[proof] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def test_context_rejects_composite_safe_form_at_232_bits():
    q = composite_safe_form(232)
    with pytest.raises(CompositeSafeFormError, match="is not prime"):
        ModContext(2 * q + 1)


def test_context_tests_only_the_cofactor(tested):
    ModContext(REFERENCE_M)
    assert tested == [(REFERENCE_M - 1) // 2]
    tested.clear()
    # a prime that is not safe: the cofactor fails, then M gets its own test
    M = _NON_SAFE_PRIME
    assert ModContext(M).q is None
    assert tested == [(M - 1) // 2, M]
    tested.clear()
    # the search tests the accepted q once and no 64-bit M at all
    for seed in range(5):
        ctx = find_safe_prime(64, random.Random(seed))
        assert tested.count(ctx.q) == 1 and all(x < 1 << 63 for x in tested)
        tested.clear()


def test_generator_checks():
    # the comparison hash's test, order M - 1, against the powers of each g
    ctx = ModContext(23)
    generators = {g for g in range(23) if len({pow(g, k, 23) for k in range(22)}) == 22}
    assert {g for g in range(46) if _generates(ctx, g)} == generators | {g + 23 for g in generators}
    assert not {2, 22} & generators  # 2^11 = 1 mod 23, and -1 has order 2
    assert ctx.mod_pow(5, 22) == 1
    assert ctx.mod_pow(5, 11) != 1
    assert ctx.mod_pow(5, 2) != 1


def test_order_safe_prime():
    ctx = ModContext(23)
    assert multiplicative_order_safe(ctx, 2) == 11
    assert multiplicative_order_safe(ctx, 22) == 2  # M - 1
    assert multiplicative_order_safe(ctx, 5) == 22  # a generator
    # brute-force oracle for every element
    for w in range(2, 23):
        t = 1
        order = 0
        for k in range(1, 23):
            t = t * w % 23
            if t == 1:
                order = k
                break
        assert multiplicative_order_safe(ctx, w) == order


def test_order_requires_cofactor():
    with pytest.raises(UnknownFactorizationError):
        multiplicative_order_safe(ModContext(101), 3)


def test_find_safe_prime():
    ctx = find_safe_prime(12, random.Random(0))
    assert ceil_lg(ctx.M) == 12
    assert is_probable_prime(ctx.q)
    assert ctx.M == 2 * ctx.q + 1
    with pytest.raises(SearchExhaustedError):
        find_safe_prime(12, random.Random(0), budget=0)


@pytest.mark.parametrize("bits", range(5, 13))
def test_find_safe_prime_returns_only_safe_primes(bits):
    # below the sieve's reach a candidate M can be prime while (M-1)/2 is not
    for seed in range(50):
        ctx = find_safe_prime(bits, random.Random(seed))
        assert ctx.q is not None, seed


@pytest.mark.parametrize("bits", [5, 6, 8, 12, 32, 64, 128])
def test_find_safe_prime_matches_plain_loop(bits):
    # Below 2**81 both tests are deterministic.  At 128 bits the plain
    # test takes the first 8 of the 64 seeded bases to keep the run short;
    # a composite passing those would end it early and fail the test.
    is_prime = functools.partial(is_probable_prime_plain, rounds=8 if bits > 81 else 64)
    width = _search_shape(bits)[0]
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        ctx = find_safe_prime(bits, rng)
        assert ctx.M == find_safe_prime_unsieved(bits, oracle_rng, width, is_prime), seed
        assert rng.getstate() == oracle_rng.getstate(), seed
        assert ceil_lg(ctx.M) == bits and ctx.q == (ctx.M - 1) // 2


@pytest.mark.parametrize(
    "bits, seeds",
    [(b, 200) for b in range(5, 17)] + [(32, 100), (64, 50), (232, 5)],
)
def test_find_safe_prime_matches_unscreened_loop(bits, seeds):
    # The sieve and the base-2 rounds reject only composites, so the search
    # stops at the slot where the full tests alone stop, and leaves the rng
    # where one draw per window leaves it.
    width = _search_shape(bits)[0]
    for seed in range(seeds):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        M = find_safe_prime_unsieved(bits, oracle_rng, width, is_probable_prime)
        assert find_safe_prime(bits, rng).M == M, seed
        assert rng.getstate() == oracle_rng.getstate(), seed


def test_sieve_primes_lie_below_every_q():
    # so the sieve strikes only proper multiples, at every width it serves
    for bits in range(5, chp.MAX_BITS + 1):
        assert _search_shape(bits)[1] < 1 << (bits - 2), bits


def test_exhaustion_estimate_at_48_to_96_bits():
    # By the Hardy-Littlewood density, about 2.64/(ln q)**2 for odd q, one
    # safe prime falls on hit = (ln 2**(bits-1))**2 / 2.64 slots.  Then of
    # searches with a budget of k * hit slots, a share near e**-k should give
    # up, and the default budget of 20 ln 2 * hit gives up with about 2**-20.
    # Seeds 0-199 at 48, 64 and 96 bits, within 4 binomial standard
    # deviations of the pooled share.
    def hit(bits):
        return ((bits - 1) * math.log(2)) ** 2 / 2.64

    for bits in (48, 64, 96):
        assert _search_shape(bits)[2] >= 20 * math.log(2) * hit(bits)
    runs = [(bits, seed) for bits in (48, 64, 96) for seed in range(200)]
    for k in (1, 2):
        gave_up = 0
        for bits, seed in runs:
            try:
                find_safe_prime(bits, random.Random(seed), budget=round(k * hit(bits)))
            except SearchExhaustedError:
                gave_up += 1
        expected = math.exp(-k)
        sd = math.sqrt(expected * (1 - expected) / len(runs))
        assert abs(gave_up / len(runs) - expected) < 4 * sd, (k, gave_up)
