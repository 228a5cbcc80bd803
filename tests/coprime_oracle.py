"""Exact subset products of a coprime sequence, for the tests only.

The product is taken over the integers, with no modulus, so the tests can
check by exhaustion that admissible bases make subset products and
products with shadow exponents injective.
"""

from typing import Sequence

from juna.coprime import CoprimeSequence
from juna.errors import DomainError, LengthMismatchError


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
