"""Executable cryptanalysis: subset-sum splitting, birthday search and
exhaustive toy collisions.

The meet-in-the-middle solver attacks plain subset-sum instances; the
long-shadow coupling of the compressor has no workable split point, so
the solver demonstrates the dichotomy on the additive problem it does
apply to.  The birthday harness truncates digests so that collisions are
reachable at desk scale; truncation is a testing aid, not a mode of the
hash.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections import namedtuple
from itertools import combinations

from .bitcodec import BitString, _drawn, bit_long_shadow, random_messages
from .compress import digest
from .errors import DomainError, InstanceTooLargeError, ParseError
from ._procs import Replayed, part_count
from .keyfile import PublicParams

MITM_CAP = 40
COLLISION_CAP = 12

BIRTHDAY_COEFFICIENT = 1.1774  # sqrt(2 ln 2), inputs for a 50% collision

# Messages per chunk of birthday_search's stream, and the least expected
# work, in message bits digested, per process of a forked search.  A fork,
# its pipe, its copy-on-write faults and its reaping cost 3-5 ms per search
# on a 2-vCPU Xeon with Python 3.11; 2**16 bits are 256 digests at n = 256,
# about 20 ms there.  A search forks only from 2**17 expected bits: the
# bundled parameters from 18 masked bits and n = 32 from 24.
SEARCH_CHUNK = 64
MIN_SEARCH_WORK = 1 << 16

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


def _record(pub: PublicParams, mask: int, v: int) -> int:
    """(multiplications << mask_bits) | truncated digest of message v."""
    ctx = pub.context()
    before = ctx.mulcount
    t = digest(pub, _drawn(v, pub.n), ctx).value & mask
    return (ctx.mulcount - before) << mask.bit_length() | t


def birthday_search(
    pub: PublicParams, mask_bits: int, budget: int, seed: int
) -> BirthdayStats:
    """Draw random nonzero messages until two share a truncated digest.

    Digests are truncated to their low mask_bits bits purely so that
    collisions become reachable in a test run; messages come from the
    rng seeded with seed.

    The stream is cut into chunks of SEARCH_CHUNK messages, and chunk j is
    digested by process j % W through _procs.Replayed, for W processes from
    _procs.part_count with at least MIN_SEARCH_WORK of the expected
    min(budget, threshold) * n each.  The W - 1 children replay the stream
    and send back each digest's truncated value and count; this process
    draws every message, digests its own chunks and those of a child that
    ended, and checks the table strictly in stream order, charging the
    context a child's count only for the records it checks.  So the result
    and the count are those of one process for every W.
    """
    check_birthday(pub, mask_bits, budget)
    n = pub.n
    mask = (1 << mask_bits) - 1
    ctx = pub.context()
    seen: dict[int, int] = {}
    threshold = BIRTHDAY_COEFFICIENT * 2 ** (mask_bits / 2)
    workers = part_count(int(min(budget, threshold) * n), MIN_SEARCH_WORK)
    width = (mask_bits + 32 + 7) // 8  # bytes per record, 32 bits for the count
    stream = functools.partial(random_messages, seed, n, budget)
    compute = functools.partial(_record, pub, mask)
    with Replayed(stream, compute, workers, SEARCH_CHUNK, width) as messages:
        for trials, (v, record) in enumerate(messages, 1):
            if record is None:
                t = digest(pub, _drawn(v, n), ctx).value & mask
            else:
                ctx._tick(record >> mask_bits)
                t = record & mask
            prior = seen.setdefault(t, v)
            if prior != v:
                return BirthdayStats(
                    trials=trials,
                    collision=(BitString.from_int(prior, n), BitString.from_int(v, n)),
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
            num = ctx.multi_pow((c, max(y, 0)) for c, y in zip(pub.C, ydiff))
            den = ctx.multi_pow((c, max(-y, 0)) for c, y in zip(pub.C, ydiff))
            ok = num == den  # num * den^-1 == 1 without an inversion
            pairs.append(
                CollisionPair(
                    msg1=m1, msg2=m2, digest_value=d, ydiff=ydiff, product_is_one=ok
                )
            )
    return pairs
