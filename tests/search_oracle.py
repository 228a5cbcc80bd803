"""Keygen's basis draw without the inline draw and the word screen, for the
tests only.

generate_by_randrange draws each basis candidate with rng.randrange(2, P + 1)
and hands it straight to the primality test.  Tests require
juna.coprime.generate to return the same values and to leave the rng in the
same state.
"""

from juna.coprime import CoprimeSequence
from juna.numtheory import is_probable_prime


def generate_by_randrange(n: int, P: int, rng) -> CoprimeSequence:
    """n distinct primes from [2, P], each candidate drawn by rng.randrange."""
    picked: list[int] = []
    seen = set()
    while len(picked) < n:
        x = rng.randrange(2, P + 1)
        if x in seen:
            continue
        if is_probable_prime(x):
            picked.append(x)
            seen.add(x)
    return CoprimeSequence(tuple(picked))
