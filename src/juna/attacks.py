"""Executable cryptanalysis: subset-sum splitting, birthday search,
exhaustive toy collisions, and knapsack density.

The meet-in-the-middle solver attacks plain subset-sum instances; the
long-shadow coupling of the compressor has no workable split point, so
the solver demonstrates the dichotomy on the additive problem it does
apply to.  The birthday harness truncates digests so that collisions are
reachable at desk scale; truncation is a testing aid, not a mode of the
hash.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .bitcodec import BitString, bit_long_shadow
from .compress import digest
from .errors import DomainError, InstanceTooLargeError, ParseError
from .numtheory import ceil_lg
from .params import PublicParams, decode_ascii

MITM_CAP = 40
COLLISION_CAP = 12

BIRTHDAY_COEFFICIENT = 1.1774  # sqrt(2 ln 2), inputs for a 50% collision

# Caps on an instance file; both lie far above any instance the solvers
# take, and the digit cap below Python's 4300-digit int() limit.
MAX_INSTANCE_BYTES = 1 << 16
MAX_INSTANCE_DIGITS = 1000


@dataclass(frozen=True)
class SubsetSumInstance:
    c: tuple[int, ...]
    s: int

    def __post_init__(self):
        if any(x < 1 for x in self.c):
            raise DomainError("weights must be positive")
        if self.s < 0:
            raise DomainError("target must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.c)


def parse_instance(data: bytes) -> SubsetSumInstance:
    """Read instance text: one s=<int> line and one c=<int> line per weight.

    Blank lines and surrounding whitespace are skipped.  Any other line,
    a non-ASCII byte, an integer over MAX_INSTANCE_DIGITS digits, more
    than MAX_INSTANCE_BYTES bytes or a zero weight raises ParseError.
    """
    text = decode_ascii(data, MAX_INSTANCE_BYTES)
    weights = []
    target = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if key not in ("c", "s") or not value.isdigit():
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
    left, right = inst.c[:t], inst.c[t:]

    table = []
    for mask in range(1 << t):
        total = 0
        mm = mask
        while mm:
            low = mm & -mm
            total += left[low.bit_length() - 1]
            mm ^= low
        table.append((total, mask))
    table.sort()
    sums = [e[0] for e in table]

    for rmask in range(1 << (n - t)):
        total = 0
        mm = rmask
        while mm:
            low = mm & -mm
            total += right[low.bit_length() - 1]
            mm ^= low
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


@dataclass(frozen=True)
class BirthdayStats:
    """Outcome of one truncated-digest birthday experiment."""

    trials: int
    collision: tuple[BitString, BitString] | None
    threshold: float
    seed: int
    mask_bits: int
    collision_value: int | None = None


def birthday_search(
    pub: PublicParams, mask_bits: int, budget: int, seed: int
) -> BirthdayStats:
    """Draw random nonzero messages until two share a truncated digest.

    Digests are truncated to their low mask_bits bits purely so that
    collisions become reachable in a test run; messages come from the
    rng seeded with seed.
    """
    import random

    if not 1 <= mask_bits <= pub.m:
        raise DomainError(f"mask_bits must lie in [1, {pub.m}]")
    if budget < 1:
        raise DomainError("budget must be at least 1")
    n = pub.n
    mask = (1 << mask_bits) - 1
    rng = random.Random(seed)
    seen: dict[int, int] = {}
    threshold = BIRTHDAY_COEFFICIENT * 2 ** (mask_bits / 2)

    for trials in range(1, budget + 1):
        v = 0
        while v == 0:
            v = rng.getrandbits(n)
        msg = BitString.from_int(v, n)
        t = digest(pub, msg).value & mask
        prior = seen.setdefault(t, v)
        if prior != v:
            return BirthdayStats(
                trials=trials,
                collision=(BitString.from_int(prior, n), msg),
                threshold=threshold,
                seed=seed,
                mask_bits=mask_bits,
                collision_value=t,
            )
    return BirthdayStats(
        trials=budget,
        collision=None,
        threshold=threshold,
        seed=seed,
        mask_bits=mask_bits,
    )


@dataclass(frozen=True)
class CollisionPair:
    """Two distinct messages with equal (full) digests, plus the
    long-shadow difference and its product identity check."""

    msg1: BitString
    msg2: BitString
    digest_value: int
    ydiff: tuple[int, ...]
    product_is_one: bool


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
            num = ctx.multi_pow((c, max(y, 0)) for c, y in zip(pub.C, ydiff))
            den = ctx.multi_pow((c, max(-y, 0)) for c, y in zip(pub.C, ydiff))
            ok = num == den  # num * den^-1 == 1 without an inversion
            pairs.append(
                CollisionPair(
                    msg1=m1, msg2=m2, digest_value=d, ydiff=ydiff, product_is_one=ok
                )
            )
    return pairs


def assp_density(n: int, m: int) -> Fraction:
    """Knapsack density of the additive problem: n * ceil(lg n) / m."""
    if n < 2 or m < 2:
        raise DomainError("need n, m >= 2")
    return Fraction(n * ceil_lg(n), m)
