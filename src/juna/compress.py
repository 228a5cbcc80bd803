"""The compression step: an n-bit nonzero message to an m-bit digest.

The digest is the product of the public initial values raised to the
message's long shadows, reduced modulo M: one bucketed multi-exponentiation
(ModContext.grouped_pow) over the 1-bits as the codec groups them by long
shadow, so positions with a zero long shadow cost nothing; a dense message
is hashed from its complement, where its commonest long shadow costs nothing.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import accumulate

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

    With c nonzero long shadows over k distinct values the plain walk costs
    c + k - 2 multiplications, plus bit_length(g) + popcount(g) - 2 for each
    gap g between consecutive values (the last taken down to 0): about 140 on
    uniformly random messages at n = 256, about 2070 at n = 4096.  With z
    zero bits and more than z positions at long shadow s = 2, the most common
    level (one at 1 has a zero partner, one at 3 or more a zero run of its
    own, so no other level can outnumber the zero bits), the digest is
    T**s * prod C_i**(ls_i - s), T = prod C_i: mod_pow(T, s), grouped_pows
    over C by ls_i - s > 0 and over _inverse_table by s - ls_i > 0, zero bits
    at s, each joined by one product when nonempty; all ones costs 1, not n.
    Up to n = 16 that is never dearer than the plain walk, and the worst case
    is n + 1 (at n = 16, 0000101...1) against the 2n bound; a Hypothesis
    property of the tests checks both on runs of zeros and ones at even n
    in [4, 4096].
    """
    if ctx is None:
        ctx = pub.context()
    elif ctx.M != pub.M:
        raise DomainError("context modulus does not match parameters")
    if len(msg) != pub.n:
        raise LengthMismatchError(f"message has {len(msg)} bits, parameters want {pub.n}")
    groups = bit_long_shadow(msg).groups
    zeros, s = pub.n - msg.value.bit_count(), 2
    if len(groups.get(s, ())) <= zeros or (table := _inverse_table(pub)) is None:
        return Digest(value=ctx.grouped_pow(pub.C, groups), m=pub.m)
    T, inverses = table
    up = {e - s: ps for e, ps in groups.items() if e > s}
    down = {s - e: ps for e, ps in groups.items() if e < s}
    if zeros:
        down[s] = [hit.start() for hit in re.finditer("0", str(msg))]
    value = ctx.mod_pow(T, s)
    for bases, part in ((pub.C, up), (inverses, down)):
        if part:
            value = ctx.mod_mul(value, ctx.grouped_pow(bases, part))
    return Digest(value=value, m=pub.m)


def _inverse_table(pub: PublicParams):
    """(T, [C_i**-1 mod M]) with T = prod C_i mod M, or None when T = 0, cached
    on pub at first use: one pow(T, -1, M) and about 4n products, charged to no
    context, so that a digest's count depends on its message alone; n residues,
    about 0.3 MB at m = 232, n = 4096.  Two threads may race the build, and
    setdefault keeps one winner."""
    if "_inverses" not in pub.__dict__:
        M, C, table = pub.M, pub.C, None
        prefix = list(accumulate(C, lambda a, b: a * b % M, initial=1))
        suffix = list(accumulate(reversed(C), lambda a, b: a * b % M, initial=1))[::-1]
        if T := prefix[-1]:
            inv = pow(T, -1, M)
            table = T, [inv * p * q % M for p, q in zip(prefix, suffix[1:])]
        pub.__dict__.setdefault("_inverses", table)
    return pub.__dict__["_inverses"]
