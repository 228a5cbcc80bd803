"""Coprime sequences, the private multiplicative basis of the hash.

A sequence is admissible when every pair is either coprime or shares a
factor F such that neither reduced element A_i/F, A_j/F divides any
third element.  That condition is exactly what makes subset products,
and products with shadow exponents, injective.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import compress, islice, repeat
from math import gcd, prod
from operator import mod, not_

from .errors import (
    DomainError,
    InsufficientPrimesError,
    SearchExhaustedError,
)
from .numtheory import _WORD_PRIMORIAL, _sieve, is_probable_prime
from ._procs import Replayed, part_count


class CoprimeSequence(tuple):
    """Ordered, pairwise-distinct positive integers >= 2: a tuple of them.

    Admissibility is checked by verify(), not by the constructor, so
    tests can build deliberately bad sequences.
    """

    __slots__ = ()

    def __new__(cls, elements: tuple[int, ...]):
        if not elements:
            raise DomainError("empty sequence")
        if any(a < 2 for a in elements):
            raise DomainError("elements must be >= 2")
        if len(set(elements)) != len(elements):
            raise DomainError("elements must be pairwise distinct")
        return tuple.__new__(cls, elements)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self)

    def __repr__(self):
        return f"CoprimeSequence(elements={tuple(self)!r})"


# Work after which the pair scan of first_violation gives up: one unit per
# pair sharing a factor, plus n per divisor whose multiples are looked up.
# On bases A_i = 2 * p_i the scan took up to 0.5 s on a 2-vCPU Xeon
# (n = 830, just under the limit), and from n = 1024 it stops in 0.1 s.
SCAN_LIMIT = 1 << 20
# Elements per block of the coprimality pass.
_BLOCK = 64


def _shares_with_earlier(a: Sequence[int]) -> list[int]:
    """The indices i, in order, with gcd(a[i], a[j]) != 1 for some j < i.

    Each block of _BLOCK elements is checked within itself against a running
    product, and against the product of all earlier blocks through one gcd
    of that product with the block's own.
    """
    out = []
    prefix = 1
    for start in range(0, len(a), _BLOCK):
        block = a[start : start + _BLOCK]
        product = prod(block)
        shared = gcd(product, prefix)
        local = 1
        for i, x in enumerate(block, start):
            if gcd(x, local) != 1 or gcd(x, shared) != 1:
                out.append(i)
            local *= x
        prefix *= product
    return out


def first_violation(seq: CoprimeSequence) -> tuple[int, int, int] | None:
    """First (i, j, k) of 0-based indices violating admissibility, or None.

    Only pairs that share a factor can violate, and only elements that
    share one with an earlier or a later element can be in such a pair.
    Those pairs are scanned in lexicographic order; for one with gcd F the
    first third element divisible by A_i/F or A_j/F is the first index
    outside {i, j} among the first three multiples of either, looked up
    once per divisor.  Past SCAN_LIMIT units of work the scan raises
    SearchExhaustedError rather than run for hours.
    """
    a = seq.elements
    later = _shares_with_earlier(a)
    if not later:
        return None
    n = len(a)
    earlier = sorted(n - 1 - i for i in _shares_with_earlier(a[::-1]))
    work = 0
    firsts: dict[int, list[int]] = {}

    def multiples(d: int) -> list[int]:
        nonlocal work
        if d not in firsts:
            work += n
            divisible = map(not_, map(mod, a, repeat(d)))
            firsts[d] = list(islice(compress(range(n), divisible), 3))
        return firsts[d]

    for i in earlier:
        x = a[i]
        js = later[bisect_right(later, i) :]
        for j, f in zip(js, map(gcd, repeat(x), [a[j] for j in js])):
            if f == 1:
                continue
            work += 1
            ks = [k for k in multiples(x // f) + multiples(a[j] // f) if k != i and k != j]
            if ks:
                return (i, j, min(ks))
            if work > SCAN_LIMIT:
                raise SearchExhaustedError(
                    f"undetermined: pair scan stopped at the work limit {SCAN_LIMIT}, "
                    f"at pair ({i}, {j})"
                )
    return None


def verify(seq: CoprimeSequence) -> bool:
    """Whether the sequence satisfies the admissibility condition;
    SearchExhaustedError when the pair scan hits SCAN_LIMIT."""
    return first_violation(seq) is None


# Fewest primes drawn per process of a forked generate, and the candidates
# per chunk of its stream.  On a 2-vCPU Xeon with Python 3.11, two processes
# took n = 1024 at P = 2**32 from 51-54 ms to 39-42 ms, and n = 512 from
# 25-27 ms to 21-23 ms; at P = 2**20, where a test costs a third as much,
# n = 1024 read 0.95-1.05 times the serial time and n = 512 up to 1.16.
MIN_DRAW_PART = 512
DRAW_CHUNK = 64


def _candidates(rng, P: int):
    """generate's candidates in order: each value that rng.randrange(2, P + 1)
    returns in CPython, from the same getrandbits calls, less those with a
    proper factor below 48, which makes them composite."""
    getrandbits = rng.getrandbits
    width = P - 1
    k = width.bit_length()
    while True:
        x = getrandbits(k)
        while x >= width:
            x = getrandbits(k)
        x += 2
        if gcd(x, _WORD_PRIMORIAL) in (1, x):
            yield x


def _tested(x: int) -> int:
    """x << 1, with the low bit set when x is prime."""
    return x << 1 | is_probable_prime(x)


def generate(n: int, P: int, rng) -> CoprimeSequence:
    """Draw n distinct primes uniformly from [2, P].

    Distinct primes trivially satisfy admissibility.  Deterministic for
    a seeded rng: each candidate is the value, from the same getrandbits
    calls, that rng.randrange(2, P + 1) returns in CPython.

    This process draws every candidate, so the rng ends where one process
    leaves it.  The primality tests run on W processes from
    _procs.part_count, each with at least MIN_DRAW_PART primes to draw,
    through _procs.Replayed: each child replays the candidates from the
    rng the fork copied and sends x << 1 | is_probable_prime(x) for those
    of its chunks.  A record whose x differs from this process's candidate
    (an rng that does not replay across fork, such as random.SystemRandom)
    is tested here, as is each candidate of a child that ended.  So the
    primes are those of one process for every W.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if P < 2:
        raise InsufficientPrimesError(f"no primes at all below {P}")
    # Only small bounds can run short of primes; pi(2**21) ~ 155k >> 4096.
    if P <= 1 << 21:
        count = sum(_sieve(P))
        if count < n:
            raise InsufficientPrimesError(f"only {count} primes <= {P}, need {n}")
    picked: list[int] = []
    seen = set()
    workers = part_count(n, MIN_DRAW_PART)
    width = (P.bit_length() + 8) // 8  # bytes per record, x and one bit
    with Replayed(lambda: _candidates(rng, P), _tested, workers, DRAW_CHUNK, width) as candidates:
        for x, record in candidates:
            if x in seen:
                continue
            if record is None or record >> 1 != x:
                record = _tested(x)
            if record & 1:
                picked.append(x)
                seen.add(x)
                if len(picked) == n:
                    break
    return CoprimeSequence(tuple(picked))
