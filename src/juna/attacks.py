"""Executable cryptanalysis: subset-sum splitting, birthday search and
exhaustive toy collisions.

The meet-in-the-middle solver attacks plain subset-sum instances.  The
whole message space has no split point, but subspaces with 1-bits fixed at
block starts do: the digest factors over the blocks (the
test_digest_factors_over_* tests of tests/test_compress.py), so Merkle and
Hellman's meet-in-the-middle (1981) applies there.  The birthday harness
truncates digests so that collisions are reachable at desk scale (a testing
aid, not a mode of the hash), and tries a grid of variants of one message
over which the digest factors: a trial is one product of a row and a column term.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import combinations

from .bitcodec import BitString, _drawn, bit_long_shadow, random_messages
from .compress import _inverse_table, digest
from .errors import DomainError, InstanceTooLargeError, ParseError
from .keyfile import PublicParams

MITM_CAP = 40
COLLISION_CAP = 12

BIRTHDAY_COEFFICIENT = 1.1774  # sqrt(2 ln 2), inputs for a 50% collision

# Caps on an instance file; both lie far above any instance the solvers
# take, and the digit cap below Python's 4300-digit int() limit.
MAX_INSTANCE_BYTES = 1 << 16
MAX_INSTANCE_DIGITS = 1000


class SubsetSumInstance(namedtuple("SubsetSumInstance", "c s")):
    __slots__ = ()

    def __new__(cls, c: tuple[int, ...], s: int):
        if any(x < 1 for x in c):
            raise DomainError("weights must be positive")
        if s < 0:
            raise DomainError("target must be nonnegative")
        return tuple.__new__(cls, (c, s))

    @property
    def n(self) -> int:
        return len(self.c)


def parse_instance(text: str) -> SubsetSumInstance:
    """Read instance text: one s=<int> line and one c=<int> line per weight.

    Blank lines and surrounding whitespace are skipped.  Any other line,
    an integer over MAX_INSTANCE_DIGITS ASCII digits or a zero weight
    raises ParseError.  Files come through keyfile.read_ascii with the
    MAX_INSTANCE_BYTES cap.
    """
    weights = []
    target = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if key not in ("c", "s") or not (value.isascii() and value.isdigit()):
            raise ParseError(f"expected c=<int> or s=<int>, got {line!r}", line=lineno)
        if len(value) > MAX_INSTANCE_DIGITS:
            raise ParseError(f"over {MAX_INSTANCE_DIGITS} digits", line=lineno)
        if key == "c":
            weights.append(int(value))
        elif target is not None:
            raise ParseError("duplicate target line", line=lineno)
        else:
            target = int(value)
    if target is None:
        raise ParseError("missing s=<int> line")
    if not weights:
        raise ParseError("missing c=<int> lines")
    try:
        return SubsetSumInstance(c=tuple(weights), s=target)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def _subset_sums(weights) -> list[int]:
    """The sum of every subset of weights, at the index whose bit j says
    whether weights[j] is in it."""
    sums = [0]
    for w in weights:
        sums += [x + w for x in sums]
    return sums


def mitm_subset_sum(inst: SubsetSumInstance) -> tuple[int, ...] | None:
    """Meet-in-the-middle subset sum in O(n * 2^(n/2)).

    Tabulate all sums of the first floor(n/2) weights, sort, then for
    each assignment of the remaining weights binary-search the
    complement.  Ties resolve to the first hit in sorted-table order,
    with right-half assignments enumerated in counting order (low bit =
    first right-half weight), so the answer is deterministic.
    """
    n = inst.n
    if n > MITM_CAP:
        raise InstanceTooLargeError(f"n = {n} exceeds cap {MITM_CAP}")
    t = n // 2
    table = sorted(zip(_subset_sums(inst.c[:t]), range(1 << t)))
    sums = [e[0] for e in table]

    for rmask, total in enumerate(_subset_sums(inst.c[t:])):
        r = inst.s - total
        if r < 0:
            continue
        i = bisect_left(sums, r)
        if i < len(sums) and sums[i] == r:
            lmask = table[i][1]
            bits = [(lmask >> j) & 1 for j in range(t)]
            bits += [(rmask >> j) & 1 for j in range(n - t)]
            return tuple(bits)
    return None


class BirthdayStats(namedtuple("BirthdayStats", "trials collision threshold seed mask_bits collision_value",
                               defaults=(None,))):
    """Outcome of one truncated-digest birthday experiment: collision is a
    pair of BitStrings or None."""

    __slots__ = ()


def check_birthday(pub: PublicParams, mask_bits: int, budget: int) -> None:
    """DomainError unless birthday_search accepts mask_bits and budget."""
    if not 1 <= mask_bits <= pub.m:
        raise DomainError(f"mask_bits must lie in [1, {pub.m}]")
    if budget < 1:
        raise DomainError("budget must be at least 1")


def _long_shadow(v: int, n: int, b: int) -> int:
    """The long shadow of int bit b (position n - 1 - b) of the nonzero
    n-bit message v, read from v alone."""
    if not v >> b & 1:
        return 0
    above = v >> b + 1
    shadow = (above & -above).bit_length() if above else n - b + (v & -v).bit_length() - 1
    return shadow << (v >> (b + n // 2) % n & 1)


def _flip(pub: PublicParams, ctx, v: int, d: int, j: int) -> tuple[int, int]:
    """v with int bit j flipped and its digest, from v's digest d (neither
    message 0).  Only the long shadows of bit j, its partner and the next 1-bit
    below j (or the top 1-bit, if none) move; each change D goes into one
    grouped_pow by |D|, over C_i for D > 0 and C_i**-1 for D < 0, joined to d
    by one mod_mul.  For c changes over magnitudes e_1 > ... > e_r, e_(r+1) = 0,
    that is c + r - 1 + sum pow_muls(e_i - e_(i+1)) products, at most
    sum (2 pow_muls(|D|) + 2) - 1: Yao's gaps can cost more than the bare
    powers, {8, 1} 7 against pow_muls(8) + pow_muls(1) + 2 = 5."""
    n, C = pub.n, pub.C
    inverses = _inverse_table(pub)[1]
    w = v ^ 1 << j
    rest = v & w
    below = rest & (1 << j) - 1
    bases, groups = [], {}
    for b in {j, (j + n // 2) % n, (below or rest).bit_length() - 1}:
        if delta := _long_shadow(w, n, b) - _long_shadow(v, n, b):
            groups.setdefault(abs(delta), []).append(len(bases))
            bases.append((C if delta > 0 else inverses)[n - 1 - b])
    return w, ctx.mod_mul(d, ctx.grouped_pow(bases, groups))


def birthday_search(pub: PublicParams, mask_bits: int, budget: int, seed: int) -> BirthdayStats:
    """Try nonzero messages until two share a truncated digest.

    Digests are truncated to their low mask_bits bits purely so that
    collisions become reachable in a test run.  The messages are variants of
    the first nonzero draw of random.Random(seed) (Yuval, "How to swindle
    Rabin", Cryptologia 1979): a grid of rows by 2**b columns, b =
    min(mask_bits // 4, w // 2), w = budget.bit_length(), so that the 2**b
    column flips balance about trials / 2**b row flips.  Int bits 0 and b + 1
    are set, column c xors its Gray code into int bits 1..b and row r its own
    into the bits from b + 2.  As w + 2 <= n/2, no partner of a bit below
    w + 2 lies below w + 2 and each long shadow moves with the row or the
    column alone: D(r, c) = D(r, 0) * Y_c, Y_c = D(0, c) / D(0, 0).  Row heads
    and the Y_c (from 1) come by _flip, every other cell is one product.
    Where the grid does not fit, or the key has no inverse table, b = 0: rows
    over the last min(n, w) bits, the zero message no trial and the one after
    it (as every message of a key with no inverse table) digested whole.  The
    search ends at a collision, after budget trials or once every nonzero
    message was tried.
    """
    check_birthday(pub, mask_bits, budget)
    n, M = pub.n, pub.M
    mask = (1 << mask_bits) - 1
    ctx = pub.context()
    flips = _inverse_table(pub) is not None
    w = budget.bit_length()
    b = min(mask_bits // 4, w // 2) if flips and w + 2 <= n // 2 else 0
    low, cols = b + 2 if b else 0, (1 << b) - 1  # the lowest row bit, the column mask
    start = next(random_messages(seed, n, 1)) | (1 | 1 << b + 1 if b else 0)
    Y, x = [1], start
    for c in range(1, cols + 1):
        x, y = _flip(pub, ctx, x, Y[-1], (c & -c).bit_length())
        Y.append(y)
    seen: dict[int, int] = {}  # truncated digest -> trial index r << b | c
    v = d = trials = heads = 0  # v is 0 before the first message and after the zero one
    try:
        for r in range(1 << min(n - low, w - b)):
            u = start ^ (r ^ r >> 1) << low
            if not u:
                v = 0
                continue
            if v and flips:
                v, d = _flip(pub, ctx, v, d, low + (r & -r).bit_length() - 1)
            else:
                v, d = u, digest(pub, _drawn(u, n), ctx).value
            heads += 1
            for t, y in enumerate(Y, r << b):
                trials += 1
                e = (d * y % M if t & cols else d) & mask
                if seen.setdefault(e, t) != t or trials == budget:
                    break
            else:
                continue
            break
    finally:
        ctx._tick(trials - heads)  # one product a cell, bar the heads
    threshold = BIRTHDAY_COEFFICIENT * 2 ** (mask_bits / 2)
    if seen[e] == t:
        return BirthdayStats(trials, None, threshold, seed, mask_bits)
    grid = ((i & cols, i >> b) for i in (seen[e], t))
    pair = tuple(BitString.from_int(start ^ (c ^ c >> 1) << 1 ^ (r ^ r >> 1) << low, n) for c, r in grid)
    return BirthdayStats(trials, pair, threshold, seed, mask_bits, e)


class CollisionPair(namedtuple("CollisionPair", "msg1 msg2 digest_value ydiff product_is_one")):
    """Two distinct messages with equal (full) digests, plus the
    long-shadow difference and its product identity check."""

    __slots__ = ()


def brute_force_collision(pub: PublicParams) -> list[CollisionPair]:
    """Hash every nonzero message at toy scale and group by digest.

    For each colliding pair the long-shadow difference ydiff is reported
    together with a direct check that the initial values raised to it
    multiply to 1, which is the algebraic face of any collision.
    """
    n = pub.n
    if n > COLLISION_CAP:
        raise InstanceTooLargeError(f"n = {n} exceeds cap {COLLISION_CAP}")
    ctx = pub.context()
    groups: dict[int, list[int]] = {}
    for v in range(1, 1 << n):
        msg = BitString.from_int(v, n)
        d = digest(pub, msg).value
        groups.setdefault(d, []).append(v)

    pairs: list[CollisionPair] = []
    for d in sorted(groups):
        vs = groups[d]
        if len(vs) < 2:
            continue
        for v1, v2 in combinations(vs, 2):
            m1 = BitString.from_int(v1, n)
            m2 = BitString.from_int(v2, n)
            ls1 = bit_long_shadow(m1)
            ls2 = bit_long_shadow(m2)
            ydiff = tuple(a - b for a, b in zip(ls1.values, ls2.values))
            ok = ctx.multi_pow(zip(pub.C, ydiff)) == 1
            pairs.append(
                CollisionPair(
                    msg1=m1, msg2=m2, digest_value=d, ydiff=ydiff, product_is_one=ok
                )
            )
    return pairs
