"""Bit strings and their shadow encodings.

A message enters the hash as one fixed-width bit string.  Before
compression each bit is replaced by its shadow (a count folding the
neighbouring zero runs into the 1-bits) and then by its long shadow
(the shadow, doubled when the bit halfway across the string is set).
Only 1-bits have nonzero shadows, so an encoding is held as the 1-bits'
positions grouped by count.  Both encodings are injective on nonzero
strings of even length, and the shadow sums are pinned exactly: shadows
add up to n, long shadows to something between n and 2n.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import repeat

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

# 0x90 + 2 * bit + partner, for a 1-bit, to its partner
_PARTNER = bytes.maketrans(b"\x92\x93", b"\x00\x01")
_HEX_DIGITS = b"0123456789abcdefABCDEF"


def leading_bits(data: str | bytes, take: int | None = None) -> tuple[int, int]:
    """The first take bits (all by default) of hex text or raw bytes, as
    (value, take), first bit most significant.  Hex text is stripped of
    surrounding whitespace and must then be bare digits, checked by one pass
    deleting them: no sign, prefix or separator."""
    if isinstance(data, str):
        text = data.strip()
        if not (text and text.isascii()) or text.encode().translate(None, _HEX_DIGITS):
            raise ParseError(f"not a hex string: {data!r}")
        value, total = int(text, 16), 4 * len(text)
    else:
        value, total = int.from_bytes(data, "big"), 8 * len(data)
    take = total if take is None else take
    if not 0 < take <= total:
        raise LengthMismatchError(f"asked for {take} bits, input has {total}")
    return value >> (total - take), take


class BitString(namedtuple("BitString", "value n")):
    """An n-bit message held as one int; the first bit is the most significant."""

    __slots__ = ()

    def __new__(cls, value: int, n: int):
        if n % 2:
            raise OddLengthError(f"bit length {n} is odd")
        if not MIN_BITS <= n <= MAX_BITS:
            raise LengthMismatchError(f"bit length {n} outside [{MIN_BITS}, {MAX_BITS}]")
        if value < 0 or value >> n:
            raise DomainError(f"{value} does not fit in {n} bits")
        return tuple.__new__(cls, (value, n))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitString":
        return cls(value, n)

    @classmethod
    def from_string(cls, text: str) -> "BitString":
        """Nonempty text of ASCII 0s and 1s, checked by one pass deleting both."""
        if not (text and text.isascii()) or text.encode().translate(None, b"01"):
            raise ParseError(f"not a bit string: {text!r}")
        return cls(int(text, 2), len(text))

    @classmethod
    def from_hex(cls, text: str, n: int) -> "BitString":
        """First n bits of the hex digits, most significant bit first."""
        return cls(*leading_bits(text, n))

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __len__(self):
        return self.n


class ShadowString(namedtuple("ShadowString", "n groups")):
    """Shadow or long-shadow counts of a nonzero n-bit string.

    groups maps each nonzero count to the ascending positions holding it;
    the n entries, .values, are built when read.  They lie in [0, n] and
    sum into [n, 2n]: plain shadows sum to n exactly, and long shadows add
    each doubled entry once more.  Equality and hash go by the entries.
    """

    __slots__ = ()

    def __new__(cls, values):
        groups = defaultdict(list)
        for i, v in enumerate(values):
            if v:
                groups[v].append(i)
        n = len(values)
        if not n or min(groups, default=0) < 0 or max(groups, default=0) > n:
            raise DomainError("shadow entries must lie in [0, n]")
        if not n <= sum(v * len(ps) for v, ps in groups.items()) <= 2 * n:
            raise DomainError(f"shadow entries must sum into [{n}, {2 * n}]")
        return tuple.__new__(cls, (n, dict(groups)))

    @property
    def values(self) -> tuple[int, ...]:
        out = [0] * self.n
        for v, ps in self.groups.items():
            for i in ps:
                out[i] = v
        return tuple(out)

    def __hash__(self):
        return hash(self.values)

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
        sep = "" if max(self.groups) <= 9 else " "
        return sep.join(map(str, self.values))

    def __len__(self):
        return self.n


def _encode(bits: str, partners) -> ShadowString:
    """Group the 1-bits of bits by shadow, each shifted left by its partner
    bit; partners yields one 0/1 per 1-bit, leftmost first."""
    # runs[k] is the zero run before the (k+1)-th 1-bit, runs[-1] the tail
    runs = bits.split("1")
    if len(runs) == 1:
        raise ZeroMessageError("message must contain at least one 1-bit")
    groups = defaultdict(list)
    i = len(runs[0])
    groups[(i + 1 + len(runs[-1])) << next(partners)].append(i)
    for size, partner in zip(map(len, runs[1:-1]), partners):
        i += size + 1
        groups[(size + 1) << partner].append(i)
    return tuple.__new__(ShadowString, (len(bits), dict(groups)))  # valid by construction


def _drawn(value: int, n: int) -> BitString:
    """BitString(value, n) unchecked, for a nonzero n-bit draw at a PublicParams n."""
    return tuple.__new__(BitString, (value, n))


def bit_shadow(msg: BitString) -> ShadowString:
    """Shadow encoding by the three positional rules.

    Zeros shadow to zero.  A 1-bit shadows to one plus the run of zeros
    immediately before it.  The leftmost 1-bit additionally absorbs the
    run of zeros after the rightmost 1-bit, so every zero is charged to
    exactly one 1-bit and the counts sum to n.
    """
    return _encode(str(msg), repeat(0))


def bit_long_shadow(msg: BitString) -> ShadowString:
    """Long-shadow encoding: each shadow doubles when the bit halfway
    across the string is set."""
    s = str(msg)
    half = len(s) // 2
    b = s.encode()
    # rotating by half lines each bit up with its partner
    both = int.from_bytes(b, "big") * 2 + int.from_bytes(b[half:] + b[:half], "big")
    # each byte is 0x90 + 2 * bit + partner, at most 0x93, so no byte carries
    return _encode(s, iter(both.to_bytes(len(b), "big").translate(_PARTNER, b"\x90\x91")))


def recover_bits(ls: ShadowString) -> BitString:
    """Invert the long-shadow encoding via its zero/nonzero mask.

    A position is a 1-bit exactly when its long shadow is nonzero.  The
    recovered string is re-encoded as a consistency check.
    """
    ones = (i for ps in ls.groups.values() for i in ps)
    candidate = BitString(sum(1 << (ls.n - 1 - i) for i in ones), ls.n)
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
