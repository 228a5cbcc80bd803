"""Parameter initialization, validation, serialization, and the
white-box collision certificate.

Key generation produces a public side (the modulus M and the initial
values C_i) and a private side (the coprime basis A_i, the secret
exponent table ell, and the blinding values W and delta), tied together
by C_i = (A_i * W**ell(i)) ** delta mod M.  The private side is only
needed at initialization time and for certifying collisions without
hashing.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
import secrets
import threading
from dataclasses import dataclass

from . import coprime
from .bitcodec import BitString, bit_long_shadow
from .errors import (
    CompositeSafeFormError,
    DomainError,
    InconsistentParamsError,
    LengthMismatchError,
    NotInvertibleError,
    ParseError,
    SearchExhaustedError,
)
from .numtheory import (
    ModContext,
    _jacobi,
    ceil_lg,
    find_safe_prime,
    is_probable_prime,
    multiplicative_order_safe,
)

TEST_MIN_M = 12
PROD_MIN_M = 80
MAX_M = 232
TEST_MIN_N = 4
PROD_MIN_N = 80
MAX_N = 4096
MAX_NBAR = 1 << 32
MAX_REDRAWS = 64


@dataclass(frozen=True)
class PublicParams:
    """Everything the compressor needs: modulus, widths, initial values."""

    m: int
    n: int
    M: int
    C: tuple[int, ...]

    def __post_init__(self):
        if self.n % 2 or self.n < TEST_MIN_N or self.n > MAX_N:
            raise DomainError(f"n = {self.n} is not an even length in range")
        if len(self.C) != self.n:
            raise DomainError(f"expected {self.n} initial values, got {len(self.C)}")
        if self.m > MAX_M:
            raise DomainError(f"m = {self.m} exceeds {MAX_M}")
        if self.M < 3:
            raise DomainError("modulus too small")
        if ceil_lg(self.M) > self.m:
            raise DomainError(f"modulus needs {ceil_lg(self.M)} bits, m = {self.m}")

    def context(self) -> ModContext:
        """Shared counting context for this modulus (created lazily)."""
        ctx = self.__dict__.get("_ctx")
        if ctx is None:
            # setdefault keeps one winner if two threads race the create
            ctx = self.__dict__.setdefault("_ctx", ModContext(self.M))
        return ctx


@dataclass(frozen=True)
class PrivateParams:
    """Generation-time secrets; discardable, never to be published."""

    m: int
    n: int
    M: int
    P: int
    nbar: int
    W: int
    delta: int
    A: coprime.CoprimeSequence
    ell: tuple[int, ...]

    def __post_init__(self):
        if len(self.A) != self.n or len(self.ell) != self.n:
            raise DomainError("basis and exponent table must have n entries")
        if self.nbar < 1:
            raise DomainError("nbar must be positive")
        if self.P < 1:
            raise DomainError("P must be positive")


def omega_magnitudes(nbar: int) -> range:
    """The odd magnitudes 5, 7, ..., 2*nbar + 3."""
    return range(5, 2 * nbar + 4, 2)


def sample_omega(nbar: int, rng) -> tuple[int, ...]:
    """Draw the signed exponent set: one independent sign per magnitude."""
    if nbar < 1:
        raise DomainError("nbar must be positive")
    return tuple(
        mag if rng.randrange(2) else -mag for mag in omega_magnitudes(nbar)
    )


def capacity_report(m: int, n: int, nbar: int, P: int) -> dict:
    """Both published forms of the sizing rule, with log2 margins."""
    main = 2 * n**5 * nbar * P**5
    alt = 2 * nbar**5 * P**5
    return {
        "main_ok": main >= 1 << m,
        "main_lg": math.log2(main),
        "alt_ok": alt >= 1 << m,
        "alt_lg": math.log2(alt),
        "m": m,
    }


def check_init_constraints(m, n, P, nbar, production, budget=None):
    """DomainError unless initialize accepts these sizes and budget."""
    min_m = PROD_MIN_M if production else TEST_MIN_M
    min_n = PROD_MIN_N if production else TEST_MIN_N
    if n % 2:
        raise DomainError(f"n = {n} must be even")
    if not min_n <= n <= MAX_N:
        raise DomainError(f"n = {n} outside [{min_n}, {MAX_N}]")
    if not min_m <= m <= MAX_M:
        raise DomainError(f"m = {m} outside [{min_m}, {MAX_M}]")
    if production and m > n:
        raise DomainError(f"production requires m <= n, got m={m}, n={n}")
    if production and not 10 <= ceil_lg(P) <= 32:
        raise DomainError(f"prime bound width {ceil_lg(P)} outside [10, 32]")
    if P < 3 or P > 1 << 32:
        raise DomainError(f"prime bound {P} out of range")
    if ceil_lg(P) > m:
        raise DomainError(f"prime bound width {ceil_lg(P)} exceeds m = {m}")
    if not n <= nbar <= MAX_NBAR:
        raise DomainError(f"nbar = {nbar} outside [n, 2**32]")
    if not capacity_report(m, n, nbar, P)["main_ok"]:
        raise DomainError(
            f"capacity rule fails: 2*n^5*nbar*P^5 < 2^{m} for n={n}, nbar={nbar}, P={P}"
        )
    if budget is not None and budget < 0:
        raise DomainError(f"budget must be at least 0, got {budget}")


# Fewest values in one forked part of _compute_initial_values.  A fork, a
# pipe and a waitpid cost about 2.2 ms on a 2-vCPU Xeon with Python 3.11;
# 512 values at 232 bits are 50-85 ms of work there.
MIN_PART = 512


def _initial_values_part(M, W, w_inv, delta, A, ell) -> list[int]:
    """(A_i * W**ell_i)**delta mod M for the pairs of A and ell."""
    return [pow(a * pow(W if l >= 0 else w_inv, abs(l), M) % M, delta, M) for a, l in zip(A, ell)]


def _pow_muls(e: int) -> int:
    """Multiplications of left-to-right square-and-multiply for e >= 0."""
    return max(e.bit_length() + e.bit_count() - 2, 0)


def _part_count(work: int, least: int = MIN_PART) -> int:
    """Processes to split `work` units over: one per usable CPU, each with
    at least `least` units, and 1 where fork is missing or unsafe (other
    threads)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, work // least))


def _pin(cpu: int | None) -> bool:
    """Keep this thread on `cpu`, if one is given and the system allows it;
    whether it did."""
    if cpu is None:
        return False
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return False
    return True


class _Forked:
    """Forked children that each write the byte strings of one producer to a
    pipe while this process reads them, an exact byte count at a time.

    Used as a context manager around the work of this process.  Entering
    starts one child per producer; where the system allows it (Linux) this
    process is held on the first usable CPU and child j on the next, since a
    new child can share its parent's CPU for hundreds of milliseconds before
    the scheduler moves it (seen on a 2-vCPU VM).  Leaving kills and reaps
    every child and restores this process's CPU set, on every exit path.
    A child leaves by os._exit, so it never returns into the caller, runs no
    atexit handler and flushes none of the parent's buffers.
    """

    def __init__(self, producers):
        self.producers = producers
        self.children: list[tuple[int, int] | None] = []
        self.saved: set[int] = set()

    def __enter__(self):
        try:
            if self.producers and hasattr(os, "sched_setaffinity"):
                self.saved = os.sched_getaffinity(0)
            cpus = sorted(self.saved) or [None]
            if not _pin(cpus[0]):
                self.saved = set()
            for j, produce in enumerate(self.producers, 1):
                self.children.append(self._start(cpus[j % len(cpus)], produce))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        try:
            for j in range(len(self.children)):
                self._reap(j)
        finally:
            if self.saved:
                os.sched_setaffinity(0, self.saved)

    @staticmethod
    def _start(cpu, produce) -> tuple[int, int] | None:
        """(pid, read end) of a child on `cpu` writing each byte string of
        produce() to a pipe, or None if it cannot be started."""
        try:
            r, w = os.pipe()
        except OSError:
            return None
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return None
        if pid == 0:
            try:
                os.close(r)
                _pin(cpu)
                for data in produce():
                    done = 0
                    while done < len(data):
                        done += os.write(w, data[done:])
                os._exit(0)
            finally:
                os._exit(1)
        os.close(w)
        return pid, r

    def read(self, j: int, size: int) -> bytes | None:
        """The next `size` bytes from child j (from 0), or None if it ended
        before writing them; a child that ended is reaped and reads as None
        from then on."""
        child = self.children[j]
        if child is None:
            return None
        chunks = []
        while size:
            chunk = os.read(child[1], size)
            if not chunk:
                self._reap(j)
                return None
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    def _reap(self, j: int):
        """Close child j's pipe, kill it and wait for it, if it is still here."""
        import signal

        child, self.children[j] = self.children[j], None
        if child is not None:
            pid, r = child
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _compute_initial_values(ctx, A, ell, W, delta) -> tuple[int, ...]:
    """C_i = (A_i * W**ell_i)**delta mod M, with ctx charged what
    square-and-multiply would use for each power, plus one product per value.

    The pairs are split into _part_count contiguous parts.  Forked children
    compute all parts but the first, which this process computes meanwhile;
    a part whose child fails is computed here, so the values and the count
    never depend on the split.
    """
    M = ctx.M
    w_inv = ctx.mod_inverse(W)
    k = _part_count(len(A))
    cuts = [len(A) * j // k for j in range(k + 1)]
    parts = [(A[lo:hi], ell[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    width = (M.bit_length() + 7) // 8

    def packed(a, l):
        values = _initial_values_part(M, W, w_inv, delta, a, l)
        yield b"".join(c.to_bytes(width, "big") for c in values)

    with _Forked([functools.partial(packed, a, l) for a, l in parts[1:]]) as children:
        out = _initial_values_part(M, W, w_inv, delta, *parts[0])
        joined = [children.read(j, len(a) * width) for j, (a, _) in enumerate(parts[1:])]
    for data, (a, l) in zip(joined, parts[1:]):
        if data is None:
            out += _initial_values_part(M, W, w_inv, delta, a, l)
        else:
            out += [int.from_bytes(data[i : i + width], "big") for i in range(0, len(data), width)]
    powers_of_w = sum(_pow_muls(abs(l)) for _, l in zip(A, ell))
    ctx._tick(powers_of_w + len(out) * (1 + _pow_muls(delta)))
    return tuple(out)


def initialize(
    m: int,
    n: int,
    P: int,
    nbar: int,
    rng,
    production: bool = False,
    budget: int | None = None,
) -> tuple[PublicParams, PrivateParams]:
    """Run the full initialization: basis, modulus, blinding, exponents.

    Deterministic for a seeded rng.  A duplicate among the C_i (expected
    about once in 2**m runs) triggers a full redraw of W, delta, and the
    exponent table.
    """
    check_init_constraints(m, n, P, nbar, production, budget)
    A = coprime.generate(n, P, rng)
    # a safe prime makes the order checks exact
    ctx = find_safe_prime(m, rng, budget=budget)
    M = ctx.M
    order_bound = 1 << (m - ceil_lg(P))
    for _ in range(MAX_REDRAWS):
        while True:
            W = rng.randrange(2, M - 1)
            if multiplicative_order_safe(ctx, W) >= order_bound:
                break
        while True:
            delta = rng.randrange(2, M - 1)
            if math.gcd(delta, M - 1) == 1:
                break
        ell = tuple(rng.sample(sample_omega(nbar, rng), n))
        C = _compute_initial_values(ctx, A, ell, W, delta)
        if len(set(C)) == n and all(1 < c < M for c in C):
            break
    else:
        raise SearchExhaustedError("could not avoid duplicate initial values")
    pub = PublicParams(m=m, n=n, M=M, C=C)
    priv = PrivateParams(m=m, n=n, M=M, P=P, nbar=nbar, W=W, delta=delta, A=A, ell=ell)
    return pub, priv


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    informative: bool = False


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks if not c.informative)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            tag = "INFO" if c.informative else ("PASS" if c.ok else "FAIL")
            line = f"{tag} {c.name}"
            if c.informative:
                line += f" ok={str(c.ok).lower()}"
            if c.detail:
                line += f" ({c.detail})"
            out.append(line)
        return out


# Trial division in the cofactor_structure check stops at this divisor:
# about 8.4 million odd divisors, near 1 s on a 2-vCPU Xeon.
COFACTOR_SEARCH_LIMIT = 1 << 24


def _cofactor_structure(q: int, bound: int) -> tuple[bool, str]:
    """Whether q = (M-1)/2, already found not prime, has no prime factor
    up to bound, and the detail line saying why.

    A composite q <= bound**2 has a prime factor up to bound, so only a
    larger q is divided, by 2 and the odd numbers up to the bound or
    COFACTOR_SEARCH_LIMIT.  A search that the limit cuts short fails as
    undetermined rather than running for days.
    """
    if 2 <= q <= bound * bound:
        return False, f"(M-1)/2 is composite and at most {bound}^2"
    if q % 2 == 0:
        return False, "(M-1)/2 divisible by 2"
    limit = min(bound, COFACTOR_SEARCH_LIMIT)
    for f in range(3, limit + 1, 2):
        if q % f == 0:
            return False, f"(M-1)/2 divisible by {f}"
    if limit < bound:
        return False, (
            f"undetermined: no factor of (M-1)/2 up to the search limit {limit}, "
            f"bound {bound}"
        )
    return True, f"no prime factor of (M-1)/2 up to {bound}"


# Bits of each random exponent r_i of the batch test of the initial values.
BATCH_BITS = 64


def _batch_rounds(q: int) -> int:
    """Rounds of the batch test that bring its miss probability to 2**-BATCH_BITS.

    A round passes a wrong C_j only if r_j falls in one residue class mod q
    (or mod 4 or 2 when q = 2, where the group is cyclic of order 4), which
    at most ceil(2**BATCH_BITS / q) of the 2**BATCH_BITS values do.
    """
    per_class = -(-(1 << BATCH_BITS) // q)
    rounds = 1
    while per_class**rounds > 1 << (BATCH_BITS * (rounds - 1)):
        rounds += 1
    return rounds


def _batch_consistent(ctx, C, priv, r) -> bool:
    """One round of the small-exponents batch test (Bellare, Garay and Rabin,
    Eurocrypt 1998) of C_i = (A_i * W**ell_i)**delta mod M, for exponents r_i
    in [0, 2**BATCH_BITS):

        prod C_i**r_i = (prod A_i**r_i * W**(sum r_i * ell_i))**delta.

    Modulo a safe prime M = 2q + 1 with q odd the group is Z_2 x Z_q, and the
    product sees the Z_2 part of a wrong C_j only when r_j is odd.  So for
    each bit k, the Legendre symbols of the products S_k of the C_i and T_k
    of the A_i whose r_i has bit k set must also agree:
    (S_k/M) = ((T_k/M) * (W/M)**(sum of ell_i over that subset))**delta.
    """
    M = ctx.M
    lhs, S = ctx.bit_products(zip(C, r), BATCH_BITS)
    t, T = ctx.bit_products(zip(priv.A, r), BATCH_BITS)
    w = ctx.mod_pow(priv.W, sum(x * l for x, l in zip(r, priv.ell)))
    if lhs != ctx.mod_pow(ctx.mod_mul(t, w), priv.delta):
        return False
    # bit k of odd is the parity of the sum of ell_i over subset k
    odd = functools.reduce(operator.xor, (x for x, l in zip(r, priv.ell) if l % 2), 0)
    chi_w = _jacobi(priv.W, M)
    return all(
        _jacobi(s, M) == (_jacobi(t, M) * chi_w ** (odd >> k & 1)) ** (priv.delta % 2)
        for k, (s, t) in enumerate(zip(S, T))
    )


def _initial_values_consistent(ctx, pub, priv) -> tuple[bool, str]:
    """Whether the private side gives pub.C, and the detail line.

    With M a safe prime and every C_i, A_i and W a unit mod M, this is the
    batch test with fresh exponents from `secrets`, repeated _batch_rounds(q)
    times; it passes wrong initial values with probability at most
    2**-BATCH_BITS.  Otherwise the values are recomputed exactly.
    """
    M, q = ctx.M, ctx.q
    in_group = (
        len(pub.C) == len(priv.A)
        and all(0 < c < M for c in pub.C)
        and all(a % M for a in priv.A)
        and priv.W % M
    )
    if q is None or not in_group:
        return _compute_initial_values(ctx, priv.A, priv.ell, priv.W, priv.delta) == pub.C, ""
    rounds = _batch_rounds(q)
    ok = all(
        _batch_consistent(ctx, pub.C, priv, [secrets.randbits(BATCH_BITS) for _ in pub.C])
        for _ in range(rounds)
    )
    return ok, f"batch test, {rounds} round{'s' * (rounds > 1)}, miss probability at most 2^-{BATCH_BITS}"


def validate(pub: PublicParams, priv: PrivateParams | None = None) -> ValidationReport:
    """Itemized check of every generation constraint.

    Primality is read off pub.context(), which the audit reuses.  The
    cofactor requirement accepts either branch: (M-1)/2 prime, or no prime
    factor of it up to 4n(2*nbar+3), searched no further than
    COFACTOR_SEARCH_LIMIT, with nbar = n when only the public side is in
    hand.  With the private side, initial_values_consistent is the batch
    test of _initial_values_consistent when (M-1)/2 is prime.
    """
    checks: list[CheckResult] = []

    def add(name, ok, detail="", informative=False):
        checks.append(CheckResult(name, bool(ok), detail, informative))

    M, m, n = pub.M, pub.m, pub.n
    nb = priv.nbar if priv else n

    q = (M - 1) // 2
    try:
        ctx = pub.context()
        q_prime = ctx.q is not None
    except CompositeSafeFormError:
        ctx, q_prime = None, True  # (M-1)/2 passed, and the proof rejected M
    except DomainError:  # for odd M, context() found (M-1)/2 not prime first
        ctx, q_prime = None, M % 2 == 0 and q >= 2 and is_probable_prime(q)
    add("modulus_prime", ctx is not None, f"M = {M}")
    add("modulus_bit_length", ceil_lg(M) == m, f"ceil(lg M) = {ceil_lg(M)}, m = {m}")
    add("cofactor_prime", q_prime, f"(M-1)/2 = {q}", informative=True)
    if q_prime:
        add("cofactor_structure", True, "(M-1)/2 is prime")
    else:
        add("cofactor_structure", *_cofactor_structure(q, 4 * n * (2 * nb + 3)))
    add("initial_values_range", all(1 < c < M for c in pub.C))
    add("initial_values_distinct", len(set(pub.C)) == n)

    if priv is not None:
        add(
            "private_header_match",
            (priv.m, priv.n, priv.M) == (m, n, M),
            f"priv carries m={priv.m}, n={priv.n}",
        )
        try:
            add("basis_admissible", coprime.verify(priv.A))
        except SearchExhaustedError as exc:
            add("basis_admissible", False, str(exc))
        add("basis_in_bound", all(2 <= a <= priv.P for a in priv.A))
        add("nbar_range", n <= priv.nbar <= MAX_NBAR, f"nbar = {priv.nbar}")
        mags_ok = all(
            abs(l) % 2 == 1 and 5 <= abs(l) <= 2 * priv.nbar + 3 for l in priv.ell
        )
        add("lever_magnitudes", mags_ok)
        add("lever_injective", len(set(priv.ell)) == n)
        add(
            "lever_one_sign_per_magnitude",
            len({abs(l) for l in priv.ell}) == n,
        )
        add("delta_invertible", math.gcd(priv.delta, M - 1) == 1)
        in_range = 1 < priv.W < M - 1
        add("blinder_in_range", in_range)
        if not in_range:
            add("blinder_order", False, "W outside (1, M - 1)")
        elif q_prime and ctx is not None:
            shift = m - ceil_lg(priv.P)
            order = multiplicative_order_safe(ctx, priv.W)
            add(
                "blinder_order",
                shift <= 0 or order >= 1 << shift,
                f"order {order} vs bound 2^{shift}",
            )
        else:
            add(
                "blinder_order",
                True,
                "not checkable without a prime cofactor",
                informative=True,
            )
        if ctx is None:
            add("initial_values_consistent", False, "modulus is not prime")
        else:
            try:
                add("initial_values_consistent", *_initial_values_consistent(ctx, pub, priv))
            except NotInvertibleError as exc:
                add("initial_values_consistent", False, str(exc))
        cap = capacity_report(m, n, priv.nbar, priv.P)
        add(
            "capacity",
            cap["main_ok"],
            f"main 2^{cap['main_lg']:.1f}, alt 2^{cap['alt_lg']:.1f} vs 2^{m}",
            informative=True,
        )

    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class CollisionCertificate:
    """Private-side witness that two messages collide (or do not).

    k and kprime are the exact signed exponent sums of the two long
    shadows against the secret table; the certificate holds exactly when
    W**(k - kprime) equals the basis product of the long-shadow
    differences, which happens exactly when the digests agree.  kappa is
    the 2-adic valuation of k - kprime, and psi the odd-part root from
    the published collision relation, recorded when it exists.
    """

    k: int
    kprime: int
    kappa: int | None
    psi: int | None
    lhs: int
    rhs: int
    holds: bool


def certify_collision(
    priv: PrivateParams, pub: PublicParams, msg1: BitString, msg2: BitString
) -> CollisionCertificate:
    """Decide digest equality from the private side, without hashing."""
    ctx = pub.context()
    regen = _compute_initial_values(ctx, priv.A, priv.ell, priv.W, priv.delta)
    if regen != pub.C or (priv.m, priv.n, priv.M) != (pub.m, pub.n, pub.M):
        raise InconsistentParamsError("private side does not regenerate public side")
    if len(msg1) != pub.n or len(msg2) != pub.n:
        raise LengthMismatchError("messages must have exactly n bits")
    ls1 = bit_long_shadow(msg1)
    ls2 = bit_long_shadow(msg2)
    k = sum(e * l for e, l in zip(ls1.values, priv.ell))
    kprime = sum(e * l for e, l in zip(ls2.values, priv.ell))
    diff = k - kprime
    lhs = ctx.mod_pow(priv.W, diff)
    d = [e2 - e1 for e1, e2 in zip(ls1.values, ls2.values)]
    num = ctx.multi_pow((a, max(x, 0)) for a, x in zip(priv.A, d))
    den = ctx.multi_pow((a, max(-x, 0)) for a, x in zip(priv.A, d))
    rhs = ctx.mod_mul(num, ctx.mod_inverse(den))
    kappa = None
    psi = None
    if diff != 0:
        kappa = (diff & -diff).bit_length() - 1
        odd = diff >> kappa
        if math.gcd(abs(odd), pub.M - 1) == 1:
            inv = pow(odd, -1, pub.M - 1)
            psi = ctx.mod_pow(rhs, inv)
    return CollisionCertificate(
        k=k, kprime=kprime, kappa=kappa, psi=psi, lhs=lhs, rhs=rhs, holds=lhs == rhs
    )


# ---------------------------------------------------------------------------
# File format: line-oriented ASCII, LF, decimal integers.

PUB_HEADER = "JUNA-PUB 1"
# No field of either file can be wider than the largest modulus.
MAX_INT_DIGITS = len(str(1 << MAX_M))
PRIV_HEADER = "JUNA-PRIV 1"
# The private file is the longer: its header, seven fields and 2n values,
# each line at most a five-letter key, "=", a sign, the digits and LF.
MAX_FILE_BYTES = (1 + 7 + 2 * MAX_N) * (MAX_INT_DIGITS + 8)


def serialize(obj: PublicParams | PrivateParams) -> str:
    if isinstance(obj, PublicParams):
        lines = [PUB_HEADER, f"m={obj.m}", f"n={obj.n}", f"M={obj.M}"]
        lines += [f"C={c}" for c in obj.C]
    elif isinstance(obj, PrivateParams):
        lines = [
            PRIV_HEADER,
            f"m={obj.m}",
            f"n={obj.n}",
            f"M={obj.M}",
            f"P={obj.P}",
            f"nbar={obj.nbar}",
            f"W={obj.W}",
            f"delta={obj.delta}",
        ]
        lines += [f"A={a}" for a in obj.A]
        lines += [f"L={l}" for l in obj.ell]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"


# key=<int> with 1 to MAX_INT_DIGITS ASCII digits, and a "-" allowed on L= only.
# One pattern checks a whole block of value lines, joined back with LF.
_FIELD = {key: rf"{key}={'-?' if key == 'L' else ''}[0-9]{{1,{MAX_INT_DIGITS}}}" for key in "CAL"}
_BLOCK = {key: re.compile(rf"(?:{f}\n)*{f}") for key, f in _FIELD.items()}


def _expect_int(lines: list[str], i: int, key: str, digits: int = MAX_INT_DIGITS) -> int:
    """The integer on line i (0-based) as key=<int> of at most `digits` digits,
    or the ParseError naming the line."""
    if i >= len(lines):
        raise ParseError("unexpected end of file", line=i + 1)
    line = lines[i]
    if "=" not in line:
        raise ParseError(f"expected {key}=<int>, got {line!r}", line=i + 1)
    k, _, v = line.partition("=")
    if k != key:
        raise ParseError(f"expected key {key!r}, got {k!r}", line=i + 1)
    body = v[1:] if key == "L" and v.startswith("-") else v
    if len(body) > digits:
        raise ParseError(f"{key!r} has over {digits} digits", line=i + 1)
    if not (body.isascii() and body.isdigit()):
        raise ParseError(f"bad integer {v!r} for key {key!r}", line=i + 1)
    return int(v)


def _block(lines: list[str], start: int, count: int, key: str) -> tuple[int, ...]:
    """The integers of `count` key=<int> lines from line `start` (0-based).

    One pattern match checks the block; only when it fails are the lines
    walked one by one, so that the error names the first bad line.
    """
    block = lines[start : start + count]
    if len(block) == count and _BLOCK[key].fullmatch("\n".join(block)):
        return tuple([int(line[len(key) + 1 :]) for line in block])
    return tuple(_expect_int(lines, i, key) for i in range(start, start + count))


def _end(lines: list[str], i: int):
    if i < len(lines):
        raise ParseError(f"trailing content {lines[i]!r}", line=i + 1)


def parse(text: str) -> PublicParams | PrivateParams:
    """Parse a parameter file; the header line picks the flavour."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("unexpected end of file", line=1)
    header = lines[0]
    if header == PUB_HEADER:
        m, n, M = (_expect_int(lines, i, key) for i, key in enumerate("mnM", 1))
        C = _block(lines, 4, n, "C")
        _end(lines, 4 + n)
        try:
            return PublicParams(m=m, n=n, M=M, C=C)
        except DomainError as exc:
            raise ParseError(str(exc)) from exc
    if header == PRIV_HEADER:
        keys = ("m", "n", "M", "P", "nbar", "W", "delta")
        m, n, M, P, nbar, W, delta = (_expect_int(lines, i, k) for i, k in enumerate(keys, 1))
        A = _block(lines, 8, n, "A")
        L = _block(lines, 8 + n, n, "L")
        _end(lines, 8 + 2 * n)
        try:
            A = coprime.CoprimeSequence(A)
            return PrivateParams(m=m, n=n, M=M, P=P, nbar=nbar, W=W, delta=delta, A=A, ell=L)
        except DomainError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown header {header!r}", line=1)


def read_ascii(path, limit: int) -> str:
    """A text file of at most `limit` bytes, reading no more than one past it;
    ParseError for a longer file or a non-ASCII byte."""
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise ParseError(f"file is over {limit} bytes")
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte at offset {exc.start}") from exc


def load(path) -> PublicParams | PrivateParams:
    return parse(read_ascii(path, MAX_FILE_BYTES))


def save(obj: PublicParams | PrivateParams, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize(obj))


def bundled_public_params() -> PublicParams:
    """The published 80-bit / 256-value reference parameter set."""
    from importlib.resources import files

    text = files("juna.data").joinpath("m80_n256.pub").read_text(encoding="ascii")
    return parse(text)
