"""The discrete-log comparison hash and the cost comparison table.

The comparator maps a pair (w1, w2) of exponents below q to
alpha**w1 * beta**w2 mod p over a safe prime p = 2q + 1 with two
independent generators.  The cost table puts its bit-operation count,
compression rate, and birthday threshold side by side with the
multiplicative hash's.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .errors import DomainError, ParseError
from .keyfile import MAX_M, MAX_N, end, expect_int
from .numtheory import ModContext, find_safe_prime, multiplicative_order_safe


class ChpParams(namedtuple("ChpParams", "p alpha beta")):
    __slots__ = ()

    def __new__(cls, p: int, alpha: int, beta: int):
        # one representative per residue: 5 and 28 mod 23 are one generator
        for name, g in (("alpha", alpha), ("beta", beta)):
            if not 1 < g < p - 1:
                raise DomainError(f"{name} must lie in (1, p - 1)")
        if alpha == beta:
            raise DomainError("generators must differ")
        return tuple.__new__(cls, (p, alpha, beta))

    @property
    def q(self) -> int:
        """The cofactor (p - 1)/2, prime when p is a safe prime."""
        return (self.p - 1) // 2


def _generates(ctx: ModContext, g: int) -> bool:
    """Whether g generates the whole group modulo the safe prime ctx.M."""
    return g % ctx.M != 0 and multiplicative_order_safe(ctx, g) == ctx.M - 1


def check_setup_bits(bits: int) -> None:
    """DomainError unless chp_setup accepts the width bits."""
    if not 5 <= bits <= MAX_BITS:
        raise DomainError(f"need 5 to {MAX_BITS} bits, got {bits}")


def chp_setup(bits: int, rng) -> ChpParams:
    """Safe prime of the given width plus the two smallest generators.

    The generator scan from 2 upward is deterministic, so the whole
    setup is reproducible from the rng seed alone.
    """
    check_setup_bits(bits)
    ctx = find_safe_prime(bits, rng)
    found = []
    g = 2
    while len(found) < 2:
        if _generates(ctx, g):
            found.append(g)
        g += 1
    return ChpParams(p=ctx.M, alpha=found[0], beta=found[1])


def chp_hash(params: ChpParams, w1: int, w2: int) -> int:
    """alpha**w1 * beta**w2 mod p for exponents in [0, q-1]."""
    if not 0 <= w1 < params.q or not 0 <= w2 < params.q:
        raise DomainError(f"exponents must lie in [0, {params.q - 1}]")
    p = params.p
    return pow(params.alpha, w1, p) * pow(params.beta, w2, p) % p


def compare_costs(m: int, n: int, lg_p: int) -> dict:
    """Side-by-side metrics at equal claimed security.

    Bit-operation counts use the standard 2*lg(M)**2 cost per modular
    multiplication: the comparator performs 2*lg(p) of them on lg(p)-bit
    numbers, the multiplicative hash at most 2n on m-bit numbers.
    Birthday thresholds are input counts for a 50% collision.
    """
    if m < 2 or n < 2 or lg_p < 2:
        raise DomainError("all widths must be at least 2")
    if m > MAX_M or n > MAX_N or lg_p > MAX_BITS:
        raise DomainError(f"widths must be at most m={MAX_M}, n={MAX_N}, lg p={MAX_BITS}")
    return {
        "chp_bit_ops": 8 * lg_p**3,
        "juna_bit_ops": 4 * n * m * m,
        "chp_rate": Fraction(lg_p, 2 * (lg_p - 1)),
        "juna_rate": Fraction(m, n),
        "chp_birthday_inputs": isqrt(1 << lg_p),
        "juna_birthday_inputs": isqrt(1 << m),
    }


CHP_HEADER = "CHP 2"
# 1000 digits, about 3300 bits, is below Python's 4300-digit int() limit.
MAX_INT_DIGITS = 1000
# The widest p whose every value parse_chp reads back: 2**3321 < 10**1000.
MAX_BITS = (10**MAX_INT_DIGITS).bit_length() - 1
MAX_FILE_BYTES = len(CHP_HEADER) + 1 + 3 * (len("alpha=") + MAX_INT_DIGITS + 1)


def serialize_chp(params: ChpParams) -> str:
    return f"{CHP_HEADER}\np={params.p}\nalpha={params.alpha}\nbeta={params.beta}\n"


def parse_chp(text: str) -> ChpParams:
    lines = text.split("\n")
    if lines[0] != CHP_HEADER:
        raise ParseError(f"unknown header {lines[0]!r}", line=1)
    if lines[-1] == "":
        lines.pop()
    p, alpha, beta = (
        expect_int(lines, i, key, MAX_INT_DIGITS) for i, key in enumerate(("p", "alpha", "beta"), 1)
    )
    end(lines, 4)
    try:
        return ChpParams(p=p, alpha=alpha, beta=beta)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def validate_chp(params: ChpParams) -> bool:
    """Primality of q and p, from the context, plus both generator checks."""
    try:
        ctx = ModContext(params.p)
    except DomainError:
        return False
    return ctx.q is not None and _generates(ctx, params.alpha) and _generates(ctx, params.beta)
