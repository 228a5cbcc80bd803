"""Parameter initialization, validation, and the white-box collision
certificate.

Key generation produces a public side (the modulus M and the initial
values C_i) and a private side (the coprime basis A_i, the secret
exponent table ell, and the blinding values W and delta), tied together
by C_i = (A_i * W**ell(i)) ** delta mod M.  The private side is only
needed at initialization time and for certifying collisions without
hashing.  The records and their files live in juna.keyfile.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple

from . import coprime
from ._procs import Replayed, part_count
from .bitcodec import BitString, bit_long_shadow
from .errors import (
    CompositeSafeFormError,
    DomainError,
    InconsistentParamsError,
    LengthMismatchError,
    NotInvertibleError,
    SearchExhaustedError,
)
from .keyfile import MAX_M, MAX_N, TEST_MIN_N, PrivateParams, PublicParams
# Bound here only for perfbench/, which traces and calls them as juna.params.*
from .keyfile import bundled_public_params, parse, save  # noqa: F401
from .numtheory import (
    _jacobi,
    ceil_lg,
    find_safe_prime,
    is_probable_prime,
    multiplicative_order_safe,
    pow_muls,
)

TEST_MIN_M = 12
PROD_MIN_M = 80
PROD_MIN_N = 80
MAX_NBAR = 1 << 32
MAX_REDRAWS = 64


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


def _initial_value(M, delta, a, x, raised) -> int:
    """(a * W**ell)**delta mod M, for x = (W**delta)**ell when raised, else
    x = W**ell."""
    if raised:
        return pow(a, delta, M) * x % M
    return pow(a * x % M, delta, M)


def _powers(M, base, inverse, exponents) -> tuple[list[int], int]:
    """[base**l mod M for l in exponents], with inverse = base**-1, and the
    multiplications square-and-multiply would use for them.

    Up the sorted magnitudes of each sign, each power is the last one times
    base**gap (inverse**gap below 0), or base**|l| alone where that takes
    fewer multiplications, so the walk never costs more than the powers
    taken one at a time.
    """
    power, muls = [1] * len(exponents), 0
    order = sorted(range(len(exponents)), key=exponents.__getitem__)
    up = [i for i in order if exponents[i] > 0]
    down = [i for i in reversed(order) if exponents[i] < 0]
    for b, indices in ((base, up), (inverse, down)):
        x = last = 0
        for i in indices:
            mag = abs(exponents[i])
            if mag != last:
                alone, step = pow_muls(mag), pow_muls(mag - last) + 1
                if last and step < alone:
                    x = x * pow(b, mag - last, M) % M
                    muls += step
                else:
                    x = pow(b, mag, M)
                    muls += alone
                last = mag
            power[i] = x
    return power, muls


def _compute_initial_values(ctx, A, ell, W, delta) -> tuple[int, ...]:
    """C_i = (A_i * W**ell_i)**delta mod M, as A_i**delta * V**ell_i for
    V = W**delta.

    This process computes V and every V**ell_i by _powers, before it forks.
    ctx is charged what square-and-multiply would use for V and that walk,
    and for each value pow_muls(delta) plus one product.  V pays when the
    walk saves at least pow_muls(delta) against each W**|ell_i| taken alone,
    as at production sizes and most test-mode ones (not always at m = 12,
    n = 8); otherwise the values are (A_i * W**ell_i)**delta from the walk
    over W.  So the charge never exceeds that of the powers taken one at a
    time, and the values are the same bytes either way.

    The indices are cut into part_count chunks, one per process, and run
    through _procs.Replayed: forked children compute the values of all
    chunks but the first, which this process computes meanwhile, and each
    value a child did not send is computed here, so the values and the
    count never depend on the split.  Each value replaces its power in one
    list, so the powers cost no memory beyond the values.
    """
    M = ctx.M
    w_inv = ctx.mod_inverse(W)
    V = pow(W, delta, M)
    power, walk = _powers(M, V, ctx.mod_inverse(V), ell)
    raised = walk + pow_muls(delta) <= sum(pow_muls(abs(l)) for l in ell)
    if raised:
        walk += pow_muls(delta)
    else:
        power, walk = _powers(M, W, w_inv, ell)
    n = len(A)
    k = part_count(n, MIN_PART)

    def compute(i):
        return _initial_value(M, delta, A[i], power[i], raised)

    with Replayed(lambda: range(n), compute, k, -(-n // k), (M.bit_length() + 7) // 8) as values:
        for i, value in values:
            power[i] = compute(i) if value is None else value
    ctx._tick(walk + len(power) * (1 + pow_muls(delta)))
    return tuple(power)


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


class CheckResult(namedtuple("CheckResult", "name ok detail informative", defaults=("", False))):
    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "checks")):
    """checks is a tuple of CheckResult."""

    __slots__ = ()

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
    import secrets

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
    add("initial_values_range", min(pub.C) > 1 and max(pub.C) < M)
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


class CollisionCertificate(namedtuple("CollisionCertificate", "k kprime kappa psi lhs rhs holds")):
    """Private-side witness that two messages collide (or do not).

    k and kprime are the exact signed exponent sums of the two long
    shadows against the secret table; the certificate holds exactly when
    W**(k - kprime) equals the basis product of the long-shadow
    differences, which happens exactly when the digests agree.  kappa is
    the 2-adic valuation of k - kprime, and psi the odd-part root from
    the published collision relation, recorded when it exists.
    """

    __slots__ = ()


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
