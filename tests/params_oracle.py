"""Oracles of juna.params and juna.keyfile, for the tests only.

The line-by-line parameter parser reads one line at a time and checks each
key and integer as it goes, the way juna.params.parse did before it checked
whole blocks of value lines at once.  Tests require the two to accept the
same files, return equal objects and raise the same ParseError, message and
line.  The initial values taken one power at a time and the whole signed
exponent set are keygen's earlier formulas, kept to check its current ones.
"""

from juna import coprime
from juna.errors import DomainError, ParseError
from juna.keyfile import (
    MAX_INT_DIGITS,
    PRIV_HEADER,
    PUB_HEADER,
    PrivateParams,
    PublicParams,
)
from juna.params import omega_magnitudes


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0

    @property
    def lineno(self) -> int:
        return self.pos + 1

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file", line=self.lineno)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_int(self, key: str, signed: bool = False) -> int:
        lineno = self.lineno
        line = self.next()
        if "=" not in line:
            raise ParseError(f"expected {key}=<int>, got {line!r}", line=lineno)
        k, _, v = line.partition("=")
        if k != key:
            raise ParseError(f"expected key {key!r}, got {k!r}", line=lineno)
        body = v[1:] if signed and v.startswith("-") else v
        if len(body) > MAX_INT_DIGITS:
            raise ParseError(f"{key!r} has over {MAX_INT_DIGITS} digits", line=lineno)
        if not (body.isascii() and body.isdigit()):
            raise ParseError(f"bad integer {v!r} for key {key!r}", line=lineno)
        return int(v)

    def done(self):
        if self.pos != len(self.lines):
            raise ParseError(
                f"trailing content {self.lines[self.pos]!r}", line=self.lineno
            )


def parse_line_by_line(text: str) -> PublicParams | PrivateParams:
    """Parse a parameter file; the header line picks the flavour."""
    r = _LineReader(text)
    header = r.next()
    if header == PUB_HEADER:
        m = r.expect_int("m")
        n = r.expect_int("n")
        M = r.expect_int("M")
        C = tuple(r.expect_int("C") for _ in range(n))
        r.done()
        try:
            return PublicParams(m=m, n=n, M=M, C=C)
        except DomainError as exc:
            raise ParseError(str(exc)) from exc
    if header == PRIV_HEADER:
        m = r.expect_int("m")
        n = r.expect_int("n")
        M = r.expect_int("M")
        P = r.expect_int("P")
        nbar = r.expect_int("nbar")
        W = r.expect_int("W")
        delta = r.expect_int("delta")
        A = tuple(r.expect_int("A") for _ in range(n))
        L = tuple(r.expect_int("L", signed=True) for _ in range(n))
        r.done()
        try:
            return PrivateParams(
                m=m,
                n=n,
                M=M,
                P=P,
                nbar=nbar,
                W=W,
                delta=delta,
                A=coprime.CoprimeSequence(A),
                ell=L,
            )
        except (DomainError, ValueError) as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown header {header!r}", line=1)


def initial_values_one_at_a_time(ctx, A, ell, W, delta) -> tuple[int, ...]:
    """C_i = (A_i * W**ell_i)**delta mod M, each power taken alone through
    ctx, so that ctx is charged each one's square-and-multiply count and one
    product per value: the formula keygen used before it walked the powers
    of W**delta."""
    return tuple(ctx.mod_pow(ctx.mod_mul(a, ctx.mod_pow(W, l)), delta) for a, l in zip(A, ell))


def sample_omega(nbar: int, rng) -> tuple[int, ...]:
    """The whole signed exponent set, one independent sign per magnitude:
    keygen drew ell as rng.sample of this nbar-tuple before it sampled the
    magnitudes from their range and signed only the n it kept."""
    if nbar < 1:
        raise DomainError("nbar must be positive")
    return tuple(
        mag if rng.randrange(2) else -mag for mag in omega_magnitudes(nbar)
    )
