"""Keygen's two searches without the word screen and the inline draw, for the
tests only.

find_safe_prime_unscreened sieves each candidate q > 1999 by one gcd of q(2q + 1)
with the primorial of the primes below 2000, and generate_by_randrange draws
each basis candidate with rng.randrange(2, P + 1) and hands it straight to
the primality test.  Tests require juna.numtheory.find_safe_prime and
juna.coprime.generate to return the same values and to leave the rng in the
same state.
"""

import math

from juna.coprime import CoprimeSequence
from juna.errors import DomainError
from juna.numtheory import _PRIMORIAL, _SMALL_PRIMES, ModContext, _miller_rabin, is_probable_prime


def find_safe_prime_unscreened(bits: int, rng) -> ModContext:
    """The context of the first safe prime M = 2q + 1 of the given width, from
    candidates q drawn as find_safe_prime draws them."""
    lo = 1 << (bits - 2)
    hi = (1 << (bits - 1)) - 1
    while True:
        q = rng.randrange(lo, hi + 1) | 1
        M = 2 * q + 1
        if q > _SMALL_PRIMES[-1] and (
            math.gcd(q * M, _PRIMORIAL) != 1
            or not _miller_rabin(q, (2,))
            or not _miller_rabin(M, (2,))
        ):
            continue
        try:
            ctx = ModContext(M)
        except DomainError:
            continue
        if ctx.q is not None:
            return ctx


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
