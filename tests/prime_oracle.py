"""The plain primality test and safe-prime loop, for the tests only.

Primality divides by each prime below 2000 in turn, then runs
Miller-Rabin with the 13 bases that are deterministic below 3.3 * 10**24,
or with bases drawn from an rng seeded by x above that.  The safe-prime
loop tests each candidate q in full before it looks at 2q + 1.  None of
this shares code with the gcd trial division, the tiered bases or the
combined sieve behind juna.numtheory.
"""

import random

_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime_plain(x: int, rounds: int = 64) -> bool:
    """Same verdicts as juna.numtheory.is_probable_prime, the long way."""
    for p in _SMALL_PRIMES:
        if x == p:
            return True
        if x % p == 0:
            return False
    if x < _BOUND:
        bases = _BASES
    else:
        rng = random.Random(x ^ 0x9E3779B97F4A7C15)
        bases = [rng.randrange(2, x - 1) for _ in range(rounds)]
    return all(_strong_probable_prime(x, a % x) for a in bases if a % x)


def find_safe_prime_plain(bits: int, rng, rounds: int = 64) -> int:
    """M = 2q + 1 from the first candidate q, drawn as find_safe_prime
    draws it, for which q and M both pass the full test."""
    lo = 1 << (bits - 2)
    hi = (1 << (bits - 1)) - 1
    while True:
        q = rng.randrange(lo, hi + 1) | 1
        if is_probable_prime_plain(q, rounds) and is_probable_prime_plain(2 * q + 1, rounds):
            return 2 * q + 1


def composite_safe_form(bits: int) -> int:
    """The first prime q >= 2**(bits-2) whose 2q + 1 is composite but not
    divisible by 3, so only the exponentiation of juna's proof rejects it."""
    q = (1 << (bits - 2)) + 1
    while not (
        (2 * q + 1) % 3
        and is_probable_prime_plain(q, 8)
        and not is_probable_prime_plain(2 * q + 1, 8)
    ):
        q += 2
    return q
