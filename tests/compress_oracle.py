"""Independent evaluation of the compression formula, for the tests only.

Each term C_i ** long_shadow_i is raised with the builtin pow and the
terms are multiplied together, which shares no code with the bucketed
multi-exponentiation behind juna.compress.digest.
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
