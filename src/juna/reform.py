"""Reformation: compress a classical hash's output to half its width.

A profile is a parameter set whose message length equals the underlying
hash's output width and whose modulus width is half of it.  Feeding the
underlying digest through the compressor then halves the output size
while the collision resistance claimed for the compressor keeps the
overall security at the underlying hash's birthday bound.  The
underlying hash itself is external input here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import compress, params
from .bitcodec import BitString
from .errors import DomainError, LengthMismatchError, ZeroMessageError


@dataclass(frozen=True)
class ReformProfile:
    pub: params.PublicParams

    def __post_init__(self):
        if self.pub.n != 2 * self.pub.m:
            raise DomainError(
                f"profile needs m = n/2, got m={self.pub.m}, n={self.pub.n}"
            )

    @property
    def underlying_bits(self) -> int:
        return self.pub.n

    @property
    def output_bits(self) -> int:
        return self.pub.m


def reform_digest(profile: ReformProfile, underlying: BitString) -> compress.Digest:
    """Compress an underlying digest to half its width."""
    if len(underlying) != profile.underlying_bits:
        raise LengthMismatchError(
            f"underlying digest has {len(underlying)} bits, "
            f"profile wants {profile.underlying_bits}"
        )
    if underlying.is_zero():
        # Distinct from the generic precondition so callers can decide
        # what to do with an all-zero underlying digest explicitly.
        raise ZeroMessageError("underlying digest is all zero")
    return compress.digest(profile.pub, underlying)


def load_profile(path) -> ReformProfile:
    obj = params.load(path)
    if not isinstance(obj, params.PublicParams):
        raise DomainError("profile file must hold public parameters")
    return ReformProfile(pub=obj)
