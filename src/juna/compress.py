"""The compression step: an n-bit nonzero message to an m-bit digest.

The digest is the product of the public initial values raised to the
message's long shadows, reduced modulo M: one bucketed multi-exponentiation
(ModContext.grouped_pow) over the 1-bits as the codec groups them by long
shadow, so positions with a zero long shadow cost nothing.
"""

from __future__ import annotations

from collections import namedtuple

from .bitcodec import BitString, bit_long_shadow
from .errors import DomainError, LengthMismatchError
from .keyfile import PublicParams
from .numtheory import ModContext


class Digest(namedtuple("Digest", "value m")):
    """An integer in [1, M-1], rendered as fixed-width lowercase hex."""

    __slots__ = ()

    def __new__(cls, value: int, m: int):
        if value < 1:
            raise DomainError("digest value must be positive")
        if value >> m:
            raise DomainError(f"digest value does not fit in {m} bits")
        return tuple.__new__(cls, (value, m))

    @property
    def hex(self) -> str:
        """Lowercase hex, zero-padded to ceil(m/4) digits."""
        return format(self.value, f"0{(self.m + 3) // 4}x")

    def __str__(self) -> str:
        return self.hex


def digest(pub: PublicParams, msg: BitString, ctx: ModContext | None = None) -> Digest:
    """Hash a message: prod C_i ** long_shadow_i mod M.

    With c nonzero long shadows over k distinct values this costs c + k - 2
    multiplications, plus bit_length(g) + popcount(g) - 2 for each gap g
    between consecutive values (the last taken down to 0): about 140 on
    uniformly random messages at n = 256, about 2070 at n = 4096, and at
    most n + 1 over every nonzero message up to n = 14, against the 2n bound.
    """
    if ctx is None:
        ctx = pub.context()
    elif ctx.M != pub.M:
        raise DomainError("context modulus does not match parameters")
    if len(msg) != pub.n:
        raise LengthMismatchError(f"message has {len(msg)} bits, parameters want {pub.n}")
    value = ctx.grouped_pow(pub.C, bit_long_shadow(msg).groups)
    return Digest(value=value, m=pub.m)
