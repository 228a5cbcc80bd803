"""Single-block multiplicative hash over a prime field.

A message of n bits is encoded into its long shadows and compressed to
an m-bit digest as a product of public initial values raised to those
shadows, modulo a safe prime.  The package covers parameter generation
and validation, the compression step with a cost-audited fast path, a
discrete-log comparison hash, reformation of classical hash outputs,
and an executable cryptanalysis harness.
"""

from .bitcodec import (
    BitString,
    ShadowString,
    bit_long_shadow,
    bit_shadow,
    pad_to_length,
    recover_bits,
)
from .compress import Digest, digest
from .coprime import CoprimeSequence
from .errors import JunaError
from .keyfile import PrivateParams, PublicParams, bundled_public_params
from .numtheory import ModContext, ceil_lg, is_probable_prime
from .params import CollisionCertificate, certify_collision, initialize, validate

__all__ = [
    "BitString",
    "CollisionCertificate",
    "CoprimeSequence",
    "Digest",
    "JunaError",
    "ModContext",
    "PrivateParams",
    "PublicParams",
    "ShadowString",
    "bit_long_shadow",
    "bit_shadow",
    "bundled_public_params",
    "ceil_lg",
    "certify_collision",
    "digest",
    "initialize",
    "is_probable_prime",
    "pad_to_length",
    "recover_bits",
    "validate",
]

__version__ = "0.1.0"
