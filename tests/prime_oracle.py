"""The plain primality tests and safe-prime loop, for the tests only.

Primality divides by each prime below 2000 in turn, then runs
Miller-Rabin with the 13 bases that are deterministic below 3.3 * 10**24,
or with 64 bases drawn from an rng seeded by x above that.  The strong
Lucas test steps the Lucas recurrence by powers of its 2x2 matrix and
takes the Jacobi symbol from the factors of n.  The safe-prime loop tests
each candidate q in full before it looks at 2q + 1.  None of this shares
code with the gcd trial division, the tiered bases, the U/V doubling
ladder or the combined sieve behind juna.numtheory.
"""

import math
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
    """Primality by trial division and Miller-Rabin: exact below 3.3 * 10**24
    like juna.numtheory.is_probable_prime, and above it `rounds` strong tests,
    an oracle independent of juna's Baillie-PSW."""
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


def _jacobi_by_factors(a: int, n: int) -> int:
    """(a/n) for odd n > 0 as the product of Legendre symbols over the prime
    factors of n, found by trial division, each by Euler's criterion."""
    result, p = 1, 3
    while n > 1:
        if p * p > n:
            p = n
        while n % p == 0:
            n //= p
            r = pow(a, (p - 1) // 2, p)
            result *= -1 if r == p - 1 else r
        p += 2
    return result


def _mat_mul(x, y, n: int):
    return [[(x[i][0] * y[0][j] + x[i][1] * y[1][j]) % n for j in (0, 1)] for i in (0, 1)]


def strong_lucas_plain(n: int, jacobi=_jacobi_by_factors) -> bool:
    """Strong Lucas test of odd n > 1, not a square, with Selfridge's D, P
    and Q.  The recurrence X_(j+1) = P X_j - Q X_(j-1) is stepped k times by
    the k-th power of its matrix [[P, -Q], [1, 0]], whose bottom row applied
    to (U_1, U_0) = (1, 0) and (V_1, V_0) = (P, 2) gives U_k and V_k.

    jacobi(D, n) picks D; the default factors n by trial division, so a
    large n needs another."""
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    A, base, k = [[1, 0], [0, 1]], [[P, -Q % n], [1, 0]], d
    while k:
        if k & 1:
            A = _mat_mul(A, base, n)
        base = _mat_mul(base, base, n)
        k >>= 1
    if A[1][0] == 0:  # U_d
        return True
    for _ in range(s):
        if (A[1][0] * P + A[1][1] * 2) % n == 0:  # V_(d * 2**r)
            return True
        A = _mat_mul(A, A, n)
    return False


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
