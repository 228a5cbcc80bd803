"""Independent evaluation of the compression formula and of its cost model,
for the tests only.

Each term C_i ** long_shadow_i is raised with the builtin pow and the
terms are multiplied together, which shares no code with the bucketed
multi-exponentiation behind juna.compress.digest.  The square-and-multiply
loop counts, one by one, the multiplications that juna.numtheory charges
for each exponentiation by formula.
"""

from juna.bitcodec import BitString, bit_long_shadow
from juna.compress import Digest
from juna.errors import LengthMismatchError
from juna.params import PublicParams


def digest_oracle(pub: PublicParams, msg: BitString) -> Digest:
    """Same formula as digest(), evaluated per term."""
    if len(msg) != pub.n:
        raise LengthMismatchError(f"message has {len(msg)} bits, parameters want {pub.n}")
    acc = 1
    for c, e in zip(pub.C, bit_long_shadow(msg).values):
        acc = acc * pow(c, e, pub.M) % pub.M
    return Digest(value=acc, m=pub.m)


def square_multiply_oracle(base: int, exponent: int, M: int) -> tuple[int, int]:
    """base**exponent mod M for base in [0, M) and exponent >= 1 by
    left-to-right binary square-and-multiply, with the multiplications used."""
    result = base
    muls = 0
    for bit in bin(exponent)[3:]:
        result = result * result % M
        muls += 1
        if bit == "1":
            result = result * base % M
            muls += 1
    return result, muls
