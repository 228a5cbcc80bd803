"""Reformation: compress a classical hash's output to half its width.

A profile is a parameter set whose message length equals the underlying
hash's output width and whose modulus width is half of it.  Feeding the
underlying digest through the compressor then halves the output size
while the collision resistance claimed for the compressor keeps the
overall security at the underlying hash's birthday bound.  The
underlying hash itself is external input here.
"""

from __future__ import annotations

from collections import namedtuple

from . import compress, keyfile
from .bitcodec import BitString
from .errors import DomainError


class ReformProfile(namedtuple("ReformProfile", "pub")):
    __slots__ = ()

    def __new__(cls, pub: keyfile.PublicParams):
        if pub.n != 2 * pub.m:
            raise DomainError(f"profile needs m = n/2, got m={pub.m}, n={pub.n}")
        return tuple.__new__(cls, (pub,))

    @property
    def underlying_bits(self) -> int:
        return self.pub.n

    @property
    def output_bits(self) -> int:
        return self.pub.m


def reform_digest(profile: ReformProfile, underlying: BitString) -> compress.Digest:
    """Compress an underlying digest to half its width; compress.digest
    raises LengthMismatchError for the wrong width and ZeroMessageError for
    an all-zero digest."""
    return compress.digest(profile.pub, underlying)
