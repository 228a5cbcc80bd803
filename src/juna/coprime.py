"""Coprime sequences, the private multiplicative basis of the hash.

A sequence is admissible when every pair is either coprime or shares a
factor F such that neither reduced element A_i/F, A_j/F divides any
third element.  That condition is exactly what makes subset products,
and products with shadow exponents, injective.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import DomainError, InsufficientPrimesError, LengthMismatchError
from .numtheory import _sieve, is_probable_prime


@dataclass(frozen=True)
class CoprimeSequence:
    """Ordered, pairwise-distinct positive integers >= 2.

    Admissibility is checked by verify(), not by the constructor, so
    tests can build deliberately bad sequences.
    """

    elements: tuple[int, ...]
    bound: int | None = None  # max element allowed at generation time

    def __post_init__(self):
        if not self.elements:
            raise DomainError("empty sequence")
        if any(a < 2 for a in self.elements):
            raise DomainError("elements must be >= 2")
        if len(set(self.elements)) != len(self.elements):
            raise DomainError("elements must be pairwise distinct")
        if self.bound is not None and any(a > self.bound for a in self.elements):
            raise DomainError(f"element exceeds bound {self.bound}")

    @property
    def n(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


def first_violation(seq: CoprimeSequence) -> tuple[int, int, int] | None:
    """First (i, j, k) of 0-based indices violating admissibility, or None.

    Pairs are scanned in lexicographic order; for a pair with gcd F != 1
    the inner scan finds the first third element divisible by A_i/F or
    A_j/F.  The scan runs only when the elements are not pairwise
    coprime, which holds iff gcd(A_i, A_0 * ... * A_(i-1)) = 1 for all i.
    """
    a = seq.elements
    prefix = 1
    for x in a:
        if gcd(x, prefix) != 1:
            break
        prefix *= x
    else:
        return None
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            f = gcd(a[i], a[j])
            if f == 1:
                continue
            x = a[i] // f
            y = a[j] // f
            for k in range(n):
                if k == i or k == j:
                    continue
                if a[k] % x == 0 or a[k] % y == 0:
                    return (i, j, k)
    return None


def verify(seq: CoprimeSequence) -> bool:
    """Whether the sequence satisfies the admissibility condition."""
    return first_violation(seq) is None


def generate(n: int, P: int, rng) -> CoprimeSequence:
    """Draw n distinct primes uniformly from [2, P].

    Distinct primes trivially satisfy admissibility.  Deterministic for
    a seeded rng.
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
    while len(picked) < n:
        x = rng.randrange(2, P + 1)
        if x in seen:
            continue
        if is_probable_prime(x):
            picked.append(x)
            seen.add(x)
    return CoprimeSequence(tuple(picked), bound=P)


def subset_product(seq: CoprimeSequence, exponents: Sequence[int]) -> int:
    """Exact integer product of seq[i] ** exponents[i], no modulus."""
    if len(exponents) != len(seq):
        raise LengthMismatchError(
            f"{len(seq)} elements vs {len(exponents)} exponents"
        )
    out = 1
    for a, e in zip(seq.elements, exponents):
        if e < 0:
            raise DomainError("exponents must be nonnegative")
        if e:
            out *= a**e
    return out
