"""Arbitrary-precision modular arithmetic with an auditable multiplication counter.

Everything the parameter generator and the compressor need from number
theory lives here: primality (Baillie-PSW above 3.3 * 10**24, exact below),
safe-prime search, exact orders in safe-prime groups, and a ModContext
whose every modular multiplication is counted so cost claims can be
measured rather than asserted.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import defaultdict

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


# ModContext.bit_products' window: one byte of the exponent, so that its
# digits come from to_bytes.
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
        """base**exponent mod M, the one-pair multi_pow: by builtin pow,
        charged pow_muls(|exponent|), the multiplications of left-to-right
        binary square-and-multiply, not CPython's internal operation count.
        A negative exponent inverts the power once, uncounted."""
        return self.multi_pow(((base, exponent),))

    def multi_pow(self, pairs) -> int:
        """Product of base**exponent mod M over (base, exponent) pairs of
        either sign: one grouped_pow over the bases of each sign, grouped by
        the exponent's magnitude; the negative half's product is inverted once
        by mod_inverse, uncounted, and the halves are joined by one counted
        product when both are nonempty.  Zero exponents cost nothing."""
        up, down = ([], defaultdict(list)), ([], defaultdict(list))
        for base, e in pairs:
            if e:
                bases, groups = down if e < 0 else up
                groups[abs(e)].append(len(bases))
                bases.append(base)
        acc = self.grouped_pow(*up)
        if not down[0]:
            return acc
        inv = self.mod_inverse(self.grouped_pow(*down))
        return self.mod_mul(acc, inv) if up[0] else inv

    def grouped_pow(self, bases, groups) -> int:
        """Product of bases[i]**e mod M over each exponent e >= 1 in groups
        and each position i in groups[e], by Yao's method (the bucket step of
        Pippenger's algorithm): walking the exponents down, a running product
        takes in each group's bases by index and is raised to the gap to the
        next exponent; a gap of 1 is folded in with one product, not by pow.
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
            for i in ps:
                running = running * bases[i] % M
            muls += len(ps) + 1
            if e - below == 1:
                acc = acc * running % M
            else:
                acc = acc * pow(running, e - below, M) % M
                muls += pow_muls(e - below)
        self._tick(muls)
        return acc

    def bit_products(self, pairs, bits: int) -> tuple[int, list[int]]:
        """For (base, exponent) pairs with exponents in [0, 2**bits): the
        product of base**exponent mod M, and for each bit k the product S_k
        of the bases whose exponent has bit k set.

        Per 8-bit window, a byte of one to_bytes of the exponent, each base
        goes into the bucket of its digit (the bucket step of Pippenger's
        method), and Yates's halving fold reads the bits from the lowest up:
        S_k is the product of the odd-indexed buckets, and each even bucket
        times its odd neighbour is the bucket of their digit shifted right by
        one, for the next bit; both skip any product by 1, as most buckets
        stay 1 at small n.  The full product is prod S_k**(2**k), by
        Horner's rule at 2 multiplications per bit.  Every multiplication
        done is ticked, once per call.
        """
        M = self.M
        windows = -(-bits // _WINDOW)
        buckets = [[1] * (1 << _WINDOW) for _ in range(windows)]
        muls = 0

        def times(a, b):
            nonlocal muls
            if a == 1 or b == 1:
                return a * b
            muls += 1
            return a * b % M
        for base, e in pairs:
            for bucket, d in zip(buckets, e.to_bytes(windows, "little")):
                if d:
                    bucket[d] = bucket[d] * base % M
                    muls += 1
        per_bit = []
        for bucket in buckets:
            for j in range(min(_WINDOW, bits - len(per_bit))):
                if j:
                    bucket = list(map(times, bucket[::2], bucket[1::2]))
                per_bit.append(functools.reduce(times, bucket[1::2], 1))
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


# By the Hardy-Littlewood prime-pair conjecture, an odd q near x is the
# cofactor of a safe prime 2q + 1 with probability about 4 * C_2 / (ln x)**2,
# for C_2 = 0.6601... the twin-prime constant.
_SAFE_DENSITY = 2.64


def _search_shape(bits: int) -> tuple[int, int, int]:
    """(window width, sieve bound, default budget) of find_safe_prime for
    M of the given width, the width and budget in odd candidates q.

    One safe prime falls on about hit = (ln 2**(bits-1))**2 / 2.64 odd q,
    from its density at the top of the range.  A window of 4 hit slots
    misses with chance about e**-4, and a budget of 20 ln 2 hit slots gives
    up with chance about e**(-20 ln 2) = 2**-20.  A sieve prime p costs a
    step per window and saves the share 2/p of the base-2 rounds left, which
    cost more the wider M is.  The bound bits**4 / 2**18 was near the best
    of the bounds tried on a 2-vCPU Xeon, 2000 to 2**16 at 232 bits and
    2**18 to 2**22 at 1024; it is capped at 2**24 for 16 MiB of flags.  It
    stays below 2**(bits-2) <= q, so each q or 2q + 1 the sieve strikes is
    a proper multiple of its prime.
    """
    hit = ((bits - 1) * math.log(2)) ** 2 / _SAFE_DENSITY
    bound = min(bits**4 >> 18, 1 << 24)
    return math.ceil(4 * hit), bound, math.ceil(20 * math.log(2) * hit)


def find_safe_prime(bits: int, rng, budget: int | None = None) -> ModContext:
    """Search for M = 2q + 1 with q prime and ceil(lg M) = bits, by windows of
    consecutive odd q (Wiener, "Safe Prime Generation with a Combined
    Sieve", IACR ePrint 2003/186).

    Each window starts at one odd q0 with bit bits - 2 set, drawn by one
    rng.getrandbits(bits - 2), and covers q0, q0 + 2, ... up to
    _search_shape's width, clipped below 2**(bits-1) so that ceil(lg M) =
    bits.  One pass over the odd primes p below the sieve bound strikes the
    slots with q = 0 or q = (p - 1)/2 mod p, where p divides q or 2q + 1.
    Each survivor, in window order, gets one base-2 Miller-Rabin round on q
    and on M, then the full test of q and the proof of M (ModContext).  The
    sieve and the rounds reject only composites, so the search returns the
    first slot whose q and M are both prime, whatever the sieve bound.

    budget counts the slots examined, struck or not, over every window; by
    default _search_shape puts the chance of running out near 2**-20.
    """
    if bits < 5:
        raise DomainError(f"safe-prime search needs at least 5 bits, got {bits}")
    width, bound, default = _search_shape(bits)
    budget = default if budget is None else budget
    flags = _sieve(bound)
    flags[:3] = bytes(3)  # the odd primes only
    getrandbits = rng.getrandbits
    top = 1 << (bits - 2)
    examined = 0
    while examined < budget:
        q0 = getrandbits(bits - 2) | top | 1
        size = min(width, budget - examined, (2 * top + 1 - q0) // 2)
        examined += size
        alive = bytearray(b"\x01") * size
        for p in itertools.compress(range(bound + 1), flags):
            r = q0 % p
            half = (p + 1) >> 1  # 1/2 mod p
            k = (p - r) * half % p  # q0 + 2k = 0 mod p
            alive[k::p] = bytes(len(range(k, size, p)))
            k = (half - 1 - r) * half % p  # q0 + 2k = (p - 1)/2 mod p
            alive[k::p] = bytes(len(range(k, size, p)))
        for k in itertools.compress(range(size), alive):
            q = q0 + 2 * k
            M = 2 * q + 1
            if not (_miller_rabin(q, (2,)) and _miller_rabin(M, (2,))):
                continue
            try:
                ctx = ModContext(M)
            except DomainError:
                continue
            if ctx.q is not None:
                return ctx
    raise SearchExhaustedError(
        f"no {bits}-bit safe prime found in {budget} candidates"
    )
