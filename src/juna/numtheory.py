"""Arbitrary-precision modular arithmetic with an auditable multiplication counter.

Everything the parameter generator and the compressor need from number
theory lives here: primality (Baillie-PSW above 3.3 * 10**24, exact below),
safe-prime search, exact orders in safe-prime groups, and a ModContext
whose every modular multiplication is counted so cost claims can be
measured rather than asserted.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import defaultdict
from operator import itemgetter

from .errors import (
    CompositeSafeFormError,
    DomainError,
    NotInvertibleError,
    SearchExhaustedError,
    UnknownFactorizationError,
)


def ceil_lg(x: int) -> int:
    """Smallest k with 2**k >= x."""
    if x < 1:
        raise DomainError("ceil_lg needs a positive integer")
    return (x - 1).bit_length()


def _sieve(limit: int) -> bytearray:
    """Flags for 0..limit, 1 exactly at the primes (Eratosthenes)."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return flags


_SMALL_PRIMES = tuple(itertools.compress(itertools.count(), _sieve(2000)))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# One gcd against the product of the small primes is the trial division.
_PRIMORIAL = math.prod(_SMALL_PRIMES)
# Below the first bound the product of the primes up to 47 does it instead:
# under 2**60, both gcd operands fit CPython's two-digit fast path.
_WORD_PRIMORIAL = math.prod(_SMALL_PRIMES[:15])
# The product of the odd primes 3 to 23.  q(2q + 1) is prime to it exactly
# when r(2r + 1) is, for r = q mod it: one gcd of two words.
_SCREEN = math.prod(_SMALL_PRIMES[1:9])

# (bound, bases): below each bound the base set is a proven-deterministic
# test (Jaeschke 1993; Sorenson and Webster 2015 for the last).
_DETERMINISTIC_BASES = (
    (4_759_123_141, (2, 7, 61)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def _miller_rabin(n: int, bases) -> bool:
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _almost_extra_strong_lucas(n: int) -> bool:
    """Almost-extra-strong Lucas test of odd n > 2 (Grantham, "Frobenius
    pseudoprimes", Math. Comp. 2001): P the first of 3, 4, 5, ... with
    ((P**2 - 4)/n) = -1, and Q = 1.  For n + 1 = d * 2**s, d odd, n passes if
    V_d = +-2 or V_(d * 2**r) = 0 for some r < s - 1.  With Q = 1 no power
    of Q is carried: the ladder on (V_k, V_(k+1)) costs two products a bit."""
    if math.isqrt(n) ** 2 == n:
        return False  # no P has ((P**2 - 4)/n) = -1 for a square n
    P = 3
    while (j := _jacobi(P * P - 4, n)) != -1:
        if j == 0 and P * P - 4 != n:
            return False
        P += 1
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    V, W = 2, P  # V_k and V_(k+1), from k = 0
    for bit in bin((n + 1) >> s)[2:]:
        if bit == "1":  # k -> 2k + 1
            V, W = (V * W - P) % n, (W * W - 2) % n
        else:  # k -> 2k
            V, W = (V * V - 2) % n, (V * W - P) % n
    if V == 2 or V == n - 2:
        return True
    for _ in range(s - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


def is_probable_prime(x: int) -> bool:
    """Whether x >= 2 is prime: trial division by the primes up to 47 below
    4 759 123 141 and by those below 2000 above it, then Miller-Rabin with
    bases proven deterministic below 3.3 * 10**24, so only larger x meet the
    Lucas half.  Above it, Baillie-PSW (Baillie and Wagstaff, Math. Comp.
    1980): a base-2 strong test and the almost-extra-strong Lucas test.  No
    composite is known to pass it; unlike for Miller-Rabin to bases known in
    advance, no way to build one is known (Albrecht et al., "Prime and
    Prejudice", CCS 2018)."""
    if x < 2:
        raise DomainError("primality is asked of integers >= 2")
    if x <= _SMALL_PRIMES[-1]:
        return x in _SMALL_PRIME_SET
    small = x < _DETERMINISTIC_BASES[0][0]
    if math.gcd(x, _WORD_PRIMORIAL if small else _PRIMORIAL) != 1:
        return False
    for bound, bases in _DETERMINISTIC_BASES:
        if x < bound:
            return _miller_rabin(x, bases)
    return _miller_rabin(x, (2,)) and _almost_extra_strong_lucas(x)


def _proves_safe_prime(M: int) -> bool:
    """Whether M = 2q + 1 is prime, given that q >= 2 is prime: a proof by
    Pocklington's criterion with F = q > sqrt(M) - 1 and witness 2, whose
    gcd(2**2 - 1, M) = 1 is 3 not dividing M (Brillhart, Lehmer and
    Selfridge, Math. Comp. 1975)."""
    return M % 3 != 0 and pow(2, M - 1, M) == 1


def pow_muls(e: int) -> int:
    """Multiplications of left-to-right binary square-and-multiply for
    e >= 0: one squaring per bit after the leading one, plus one
    multiplication per further set bit."""
    return e.bit_length() + e.bit_count() - 2 if e else 0


# Window width, in exponent bits, of ModContext.bit_products.
_WINDOW = 8


class ModContext:
    """A prime modulus plus a counter of multiplications done through it.

    The context is immutable apart from the counter.  When the cofactor
    q = (M-1)/2 is prime, M is proven from it (CompositeSafeFormError if the
    proof fails) and kept as self.q: multiplicative orders are then one of
    {1, 2, q, 2q} and can be decided exactly.  Otherwise M gets its own
    primality test and self.q is None.
    """

    def __init__(self, M: int):
        if M < 3 or M % 2 == 0:
            raise DomainError(f"modulus must be an odd prime, got {M}")
        q = (M - 1) // 2
        if q >= 2 and is_probable_prime(q):
            if not _proves_safe_prime(M):
                raise CompositeSafeFormError(f"modulus {M} is not prime")
        elif is_probable_prime(M):
            q = None
        else:
            raise DomainError(f"modulus {M} is not prime")
        self.M = M
        self.q = q
        self._count = 0
        self._lock = threading.Lock()

    @property
    def mulcount(self) -> int:
        with self._lock:
            return self._count

    def _tick(self, k: int = 1):
        with self._lock:
            self._count += k

    def mod_mul(self, a: int, b: int) -> int:
        self._tick()
        return a * b % self.M

    def mod_pow(self, base: int, exponent: int) -> int:
        """base**exponent mod M by builtin pow, charged pow_muls(exponent), the
        multiplications of left-to-right binary square-and-multiply, not
        CPython's internal operation count.

        Negative exponents go through the inverse of the base.
        """
        if exponent < 0:
            base = self.mod_inverse(base)
            exponent = -exponent
        return self.multi_pow(((base, exponent),))

    def multi_pow(self, pairs) -> int:
        """Product of base**exponent mod M over (base, exponent >= 0) pairs:
        grouped_pow over the bases with a positive exponent, grouped by it."""
        bases, groups = [], defaultdict(list)
        for base, e in pairs:
            if e > 0:
                groups[e].append(len(bases))
                bases.append(base)
            elif e:
                raise DomainError(f"multi_pow needs exponents >= 0, got {e}")
        return self.grouped_pow(bases, groups)

    def grouped_pow(self, bases, groups) -> int:
        """Product of bases[i]**e mod M over each exponent e >= 1 in groups
        and each position i in groups[e], by Yao's method (the bucket step of
        Pippenger's algorithm): walking the exponents down, a running product
        takes in each group and is raised to the gap to the next exponent.
        c bases over k exponents cost c + k - 2 products plus each gap's
        pow_muls, ticked once per call."""
        M = self.M
        levels = sorted(groups, reverse=True)
        if not levels:
            return 1
        if levels[-1] < 1:
            raise DomainError(f"grouped_pow needs exponents >= 1, got {levels[-1]}")
        running = acc = 1
        muls = -2  # the first group's first product and first fold are by 1
        for e, below in zip(levels, levels[1:] + [0]):
            ps = groups[e]
            if len(ps) == 1:
                running = running * bases[ps[0]] % M
            else:
                for c in itemgetter(*ps)(bases):
                    running = running * c % M
            acc = acc * pow(running, e - below, M) % M
            muls += len(ps) + 1 + pow_muls(e - below)
        self._tick(muls)
        return acc

    def bit_products(self, pairs, bits: int) -> tuple[int, list[int]]:
        """For (base, exponent) pairs with exponents in [0, 2**bits): the
        product of base**exponent mod M, and for each bit k the product S_k
        of the bases whose exponent has bit k set.

        Per 8-bit window each base goes into the bucket of its digit there
        (the bucket step of Pippenger's method), and S_k is the product of
        the buckets whose digit has the bit set.  The full product is
        prod S_k**(2**k), by Horner's rule at 2 multiplications per bit.
        Every multiplication done is ticked, once per call.
        """
        M = self.M
        mask = (1 << _WINDOW) - 1
        shifts = range(0, bits, _WINDOW)
        digits = range(1, mask + 1)
        buckets = [[1] * (1 << _WINDOW) for _ in shifts]
        muls = 0
        for base, e in pairs:
            for bucket, shift in zip(buckets, shifts):
                d = e >> shift & mask
                if d:
                    bucket[d] = bucket[d] * base % M
                    muls += 1
        per_bit = []
        for bucket in buckets:
            for j in range(_WINDOW):
                s = 1
                for d in digits:
                    if d >> j & 1:
                        s = s * bucket[d] % M
                per_bit.append(s)
        muls += len(per_bit) << (_WINDOW - 1)  # half the digits have bit j set
        per_bit = per_bit[:bits]
        acc = 1
        for s in reversed(per_bit):
            acc = acc * acc % M * s % M
        self._tick(muls + 2 * bits)
        return acc, per_bit

    def mod_inverse(self, x: int) -> int:
        try:
            return pow(x, -1, self.M)
        except ValueError:
            raise NotInvertibleError(f"{x % self.M} has no inverse modulo {self.M}") from None


def multiplicative_order_safe(ctx: ModContext, w: int) -> int:
    """Exact order of w when the modulus is a safe prime."""
    if ctx.q is None:
        raise UnknownFactorizationError(
            "order computation needs the prime cofactor q"
        )
    w %= ctx.M
    if w == 0:
        raise DomainError("0 has no multiplicative order")
    if w == 1:
        return 1
    if w == ctx.M - 1:
        return 2
    if ctx.mod_pow(w, ctx.q) == 1:
        return ctx.q
    return 2 * ctx.q


def find_safe_prime(bits: int, rng, budget: int | None = None) -> ModContext:
    """Search for M = 2q + 1 with q prime and ceil(lg M) = bits.

    Each attempt draws one candidate q uniformly from [2**(bits-2),
    2**(bits-1) - 1], which forces the bit length of M, from the getrandbits
    calls that rng.randrange makes for it in CPython.  Above the small
    primes, q and M are sieved together, first by the odd primes to 23
    through the residue of q, a word, then by one gcd with the primorial,
    and then given one base-2 Miller-Rabin round each before the full test
    of q and the proof of M (Wiener, "Safe Prime Generation with a Combined
    Sieve", 2003).  The screens reject only composites, so a seeded rng
    yields the same M as the full tests alone would.
    """
    if bits < 5:
        raise DomainError(f"safe-prime search needs at least 5 bits, got {bits}")
    attempts = 2_000_000 if budget is None else budget
    getrandbits = rng.getrandbits
    top = 1 << (bits - 2)
    for _ in range(attempts):
        # rng.randrange(top, 2 * top) in CPython: bits - 1 bits, redrawn
        # while the top one is set
        q = getrandbits(bits - 1)
        while q & top:
            q = getrandbits(bits - 1)
        q |= top | 1
        M = 2 * q + 1
        r = q % _SCREEN
        if q > _SMALL_PRIMES[-1] and (
            math.gcd(r * (2 * r + 1), _SCREEN) != 1
            or math.gcd(q * M, _PRIMORIAL) != 1
            or not _miller_rabin(q, (2,))
            or not _miller_rabin(M, (2,))
        ):
            continue
        try:
            ctx = ModContext(M)
        except DomainError:
            continue
        if ctx.q is not None:  # below the screens M can be prime, q not
            return ctx
    raise SearchExhaustedError(
        f"no {bits}-bit safe prime found in {attempts} attempts"
    )
