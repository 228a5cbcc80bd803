"""The key files juna writes and reads, the records they hold, and the
bounded reader of every file juna reads.

A key pair is two line-oriented ASCII files of decimal integers: the
public side a signer ships (JUNA-PUB 1: the modulus M and the initial
values C_i) and the private side that only key generation and the
collision certificate read (JUNA-PRIV 1).  Both headers meet one check.
"""

from __future__ import annotations

import os
from collections import namedtuple

from . import coprime
from .bitcodec import MAX_BITS as MAX_N, MIN_BITS as TEST_MIN_N  # n is the message width
from .errors import DomainError, ParseError
from .numtheory import ModContext, ceil_lg

MAX_M = 232


def _check_header(m: int, n: int, M: int):
    """DomainError unless m, n and M are a header either file may carry."""
    if n % 2 or n < TEST_MIN_N or n > MAX_N:
        raise DomainError(f"n = {n} is not an even length in range")
    if m > MAX_M:
        raise DomainError(f"m = {m} exceeds {MAX_M}")
    if M < 3:
        raise DomainError("modulus too small")
    if ceil_lg(M) > m:
        raise DomainError(f"modulus needs {ceil_lg(M)} bits, m = {m}")


class PublicParams(namedtuple("PublicParams", "m n M C")):
    """Everything the compressor needs: modulus, widths, initial values.

    The one record with an instance __dict__, with three caches: context(), the
    digest's table of inverses, and the private record certify_collision last
    found consistent (a check that at a safe prime misses with probability
    <= 2**-64); fields stay read-only."""

    def __new__(cls, m: int, n: int, M: int, C: tuple[int, ...]):
        _check_header(m, n, M)
        if len(C) != n:
            raise DomainError(f"expected {n} initial values, got {len(C)}")
        return tuple.__new__(cls, (m, n, M, C))

    def context(self) -> ModContext:
        """Shared counting context for this modulus (created lazily)."""
        ctx = self.__dict__.get("_ctx")
        if ctx is None:
            # setdefault keeps one winner if two threads race the create
            ctx = self.__dict__.setdefault("_ctx", ModContext(self.M))
        return ctx


class PrivateParams(namedtuple("PrivateParams", "m n M P nbar W delta A ell")):
    """Generation-time secrets; discardable, never to be published."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, M: int, P: int, nbar: int, W: int, delta: int,
                A: coprime.CoprimeSequence, ell: tuple[int, ...]):
        _check_header(m, n, M)
        if len(A) != n or len(ell) != n:
            raise DomainError("basis and exponent table must have n entries")
        if nbar < 1:
            raise DomainError("nbar must be positive")
        if P < 1:
            raise DomainError("P must be positive")
        return tuple.__new__(cls, (m, n, M, P, nbar, W, delta, A, ell))


PUB_HEADER = "JUNA-PUB 1"
# No field of either file can be wider than the largest modulus.
MAX_INT_DIGITS = len(str(1 << MAX_M))
PRIV_HEADER = "JUNA-PRIV 1"
# The private file is the longer: its header, seven fields and 2n values,
# each line at most a five-letter key, "=", a sign, the digits and LF.
MAX_FILE_BYTES = (1 + 7 + 2 * MAX_N) * (MAX_INT_DIGITS + 8)
# The field lines after each header line, then the keys of its blocks of n lines
_LAYOUT = {PUB_HEADER: ("m n M".split(), "C"), PRIV_HEADER: ("m n M P nbar W delta".split(), "AL")}


def serialize(obj: PublicParams | PrivateParams) -> str:
    if not isinstance(obj, (PublicParams, PrivateParams)):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    header = PUB_HEADER if isinstance(obj, PublicParams) else PRIV_HEADER
    fields, keys = _LAYOUT[header]
    lines = [header] + [f"{k}={getattr(obj, k)}" for k in fields]
    blocks = (obj.C,) if keys == "C" else (obj.A, obj.ell)
    lines += [f"{k}={v}" for k, block in zip(keys, blocks) for v in block]
    return "\n".join(lines) + "\n"


def expect_int(lines: list[str], i: int, key: str, digits: int = MAX_INT_DIGITS) -> int:
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


def end(lines: list[str], i: int):
    """The ParseError naming line i (0-based) if the file goes on to it."""
    if i < len(lines):
        raise ParseError(f"trailing content {lines[i]!r}", line=i + 1)


def _split(data: bytes):
    """(keys, field values, value blocks) of a well-formed file, or None.
    The pieces of one split of the buffer on LF key= per block key are its
    only copies; each block must be n pieces of 1 to MAX_INT_DIGITS ASCII
    digits (bytes.isdigit: int() also takes +, _ and spaces), an L piece
    after one optional sign.  A bad field line raises the walk's ParseError."""
    eol = data.find(b"\n")
    layout = _LAYOUT.get(data[:eol].decode("latin-1")) if eol >= 0 else None
    if layout is None:
        return None
    fields, keys = layout
    head, *block = data.split(f"\n{keys[0]}=".encode())
    if not block or head.count(b"\n") != len(fields) or not head.isascii():
        return None
    lines = head.decode().split("\n")
    values = [expect_int(lines, i, key) for i, key in enumerate(fields, 1)]
    blocks = [block]
    if keys == "AL":
        block[-1], *more = block[-1].split(b"\nL=")
        blocks.append(more or [b""])  # a file without L lines fails below
    blocks[-1][-1] = blocks[-1][-1].removesuffix(b"\n")
    for key, pieces in zip(keys, blocks):
        bare = [p.removeprefix(b"-") for p in pieces] if key == "L" else pieces
        if (len(bare) != values[1] or max(map(len, bare)) > MAX_INT_DIGITS
                or not all(map(bytes.isdigit, bare))):
            return None
    return keys, values, [tuple(map(int, pieces)) for pieces in blocks]


def _walk(text: str):
    """(keys, field values, value blocks) line by line, or the ParseError of the first bad one."""
    header = text.partition("\n")[0]
    if header not in _LAYOUT:
        raise ParseError(f"unknown header {header!r}" if text else "unexpected end of file", line=1)
    fields, keys = _LAYOUT[header]
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    values = [expect_int(lines, i, key) for i, key in enumerate(fields, 1)]
    n, head = values[1], len(fields) + 1
    spans = [range(head + j * n, head + (j + 1) * n) for j in range(len(keys))]
    blocks = [tuple(expect_int(lines, i, k) for i in r) for k, r in zip(keys, spans)]
    end(lines, head + len(keys) * n)
    return keys, values, blocks


def parse(data: bytes | str) -> PublicParams | PrivateParams:
    """Parse a parameter file, as ASCII bytes or text; the header line picks
    the flavour.  ASCII text is encoded once, and _split reads the bytes.  A
    file it does not accept is read line by line, to name the first bad line;
    bytes that hold a non-ASCII byte name the first one instead."""
    if isinstance(data, str) and data.isascii():
        data = data.encode()
    raw = isinstance(data, bytes)
    keys, values, blocks = raw and _split(data) or _walk(_ascii(data).decode() if raw else data)
    try:
        return (PublicParams(*values, *blocks) if keys == "C"
                else PrivateParams(*values, coprime.CoprimeSequence(blocks[0]), blocks[1]))
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def read_ascii(path, limit: int) -> bytes:
    """The bytes of a file of at most `limit` bytes, read at its size and on only if
    that fills (a pipe, a grown file), never past `limit` + 1; ParseError for a
    longer file or a non-ASCII byte, whose offset is looked for only then."""
    with open(path, "rb") as fh:
        first = min(os.stat(path).st_size, limit) + 1
        data = fh.read(first)
        if len(data) == first <= limit:
            data += fh.read(limit + 1 - first)
    if len(data) > limit:
        raise ParseError(f"file is over {limit} bytes")
    return _ascii(data)


def _ascii(data: bytes) -> bytes:
    """data if it is ASCII, else the ParseError naming its first other byte."""
    if not data.isascii():
        bad = next(i for i, b in enumerate(data) if b > 127)
        raise ParseError(f"non-ASCII byte at offset {bad}")
    return data


def load(path) -> PublicParams | PrivateParams:
    """The parameters in the file at path, parsed from the bytes as read."""
    return parse(read_ascii(path, MAX_FILE_BYTES))


def save(obj: PublicParams | PrivateParams, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize(obj))


def bundled_public_params() -> PublicParams:
    """The published 80-bit / 256-value reference parameter set."""
    from importlib.resources import files

    return parse(files("juna.data").joinpath("m80_n256.pub").read_bytes())