"""Bit strings and their shadow encodings.

A message enters the hash as one fixed-width bit string.  Before
compression each bit is replaced by its shadow (a count folding the
neighbouring zero runs into the 1-bits) and then by its long shadow
(the shadow, doubled when the bit halfway across the string is set).
Both encodings are injective on nonzero strings of even length, and the
shadow sums are pinned exactly: shadows add up to n, long shadows to
something between n and 2n.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lshift
from string import hexdigits

from .errors import (
    DomainError,
    InconsistentEncodingError,
    LengthMismatchError,
    OddLengthError,
    ParseError,
    ZeroMessageError,
)

MIN_BITS = 4  # relaxed floor so exhaustive tests stay feasible
MAX_BITS = 4096

_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def leading_bits(data: str | bytes, take: int | None = None) -> str:
    """The first take bits (all by default) of hex text or raw bytes.

    Hex text is stripped of surrounding whitespace and must then be bare
    digits: no sign, prefix or separator.  Bits are read most significant
    first and returned as 0/1 text.
    """
    if isinstance(data, str):
        text = data.strip()
        if not text or text.strip(hexdigits):
            raise ParseError(f"not a hex string: {data!r}")
        value, total = int(text, 16), 4 * len(text)
    else:
        value, total = int.from_bytes(data, "big"), 8 * len(data)
    take = total if take is None else take
    if not 0 < take <= total:
        raise LengthMismatchError(f"asked for {take} bits, input has {total}")
    return format(value >> (total - take), f"0{take}b")


@dataclass(frozen=True)
class BitString:
    """An n-bit message held as one int; the first bit is the most significant."""

    value: int
    n: int

    def __post_init__(self):
        if self.n % 2:
            raise OddLengthError(f"bit length {self.n} is odd")
        if not MIN_BITS <= self.n <= MAX_BITS:
            raise LengthMismatchError(
                f"bit length {self.n} outside [{MIN_BITS}, {MAX_BITS}]"
            )
        if self.value < 0 or self.value >> self.n:
            raise DomainError(f"{self.value} does not fit in {self.n} bits")

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitString":
        return cls(value, n)

    @classmethod
    def from_string(cls, text: str) -> "BitString":
        if not text or text.strip("01"):
            raise ParseError(f"not a bit string: {text!r}")
        return cls(int(text, 2), len(text))

    @classmethod
    def from_hex(cls, text: str, n: int) -> "BitString":
        """First n bits of the hex digits, most significant bit first."""
        return cls.from_string(leading_bits(text, n))

    def is_zero(self) -> bool:
        return not self.value

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __len__(self):
        return self.n


@dataclass(frozen=True)
class ShadowString:
    """Shadow or long-shadow counts of a nonzero n-bit string.

    Entries lie in [0, n] and sum into [n, 2n]: plain shadows sum to n
    exactly, and long shadows add each doubled entry once more.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        distinct = set(self.values)  # few distinct counts: cheaper than min/max over all
        if not distinct or min(distinct) < 0 or max(distinct) > n:
            raise DomainError("shadow entries must lie in [0, n]")
        if not n <= sum(self.values) <= 2 * n:
            raise DomainError(f"shadow entries must sum into [{n}, {2 * n}]")

    @classmethod
    def from_string(cls, text: str) -> "ShadowString":
        """Parse either form __str__ renders: one digit per entry, or
        space-separated entries."""
        tokens = text.split(" ") if " " in text else list(text)
        width = len(str(len(tokens)))  # no entry can exceed n
        if not text or any(
            not (tok.isascii() and tok.isdigit()) or len(tok) > width for tok in tokens
        ):
            raise ParseError(f"not a shadow string: {text!r}")
        return cls(tuple(map(int, tokens)))

    def __str__(self) -> str:
        sep = "" if max(self.values) <= 9 else " "
        return sep.join(map(str, self.values))

    def __len__(self):
        return len(self.values)


def _shadows(bits: str) -> list[int]:
    # runs[k] is the zero run before the (k+1)-th 1-bit, runs[-1] the tail
    runs = bits.split("1")
    if len(runs) == 1:
        raise ZeroMessageError("message must contain at least one 1-bit")
    out = [0] * len(bits)
    i = -1
    for run in runs[:-1]:
        step = len(run) + 1
        i += step
        out[i] = step
    out[len(runs[0])] += len(runs[-1])
    return out


def bit_shadow(msg: BitString) -> ShadowString:
    """Shadow encoding by the three positional rules.

    Zeros shadow to zero.  A 1-bit shadows to one plus the run of zeros
    immediately before it.  The leftmost 1-bit additionally absorbs the
    run of zeros after the rightmost 1-bit, so every zero is charged to
    exactly one 1-bit and the counts sum to n.
    """
    return ShadowString(tuple(_shadows(str(msg))))


def bit_long_shadow(msg: BitString, shadows: ShadowString | None = None) -> ShadowString:
    """Long-shadow encoding: each shadow doubles when the bit halfway
    across the string is set.

    A caller already holding the shadow string can pass it in to skip
    recomputing it.
    """
    s = str(msg)
    if shadows is None:
        values = _shadows(s)
    elif len(shadows) != len(s):
        raise LengthMismatchError("shadow string does not match the message")
    else:
        values = shadows.values
    half = len(s) // 2
    # rotating by half lines each value up with its partner bit
    partners = (s[half:] + s[:half]).encode().translate(_ZERO_ONE)
    return ShadowString(tuple(map(lshift, values, partners)))


def recover_bits(ls: ShadowString) -> BitString:
    """Invert the long-shadow encoding via its zero/nonzero mask.

    A position is a 1-bit exactly when its long shadow is nonzero.  The
    recovered string is re-encoded as a consistency check.
    """
    candidate = BitString.from_string("".join("1" if v else "0" for v in ls.values))
    if bit_long_shadow(candidate) != ls:
        raise InconsistentEncodingError(
            "no bit string produces this long-shadow string"
        )
    return candidate


def pad_to_length(bits: str, n: int) -> BitString:
    """Append a single 1 then zeros to reach n bits.

    Convenience for callers holding a short input; the hash itself is
    defined only on exactly-n-bit messages, so padded use must be
    flagged by the caller.
    """
    if len(bits) >= n:
        raise LengthMismatchError(
            f"cannot pad {len(bits)} bits to {n}; input must be shorter"
        )
    return BitString.from_string(bits + "1" + "0" * (n - len(bits) - 1))
