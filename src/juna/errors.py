"""Exception types shared across the package."""


class JunaError(Exception):
    """Base class for every error this package raises deliberately."""


class ZeroMessageError(JunaError):
    """An all-zero message where a nonzero one is required."""


class OddLengthError(JunaError):
    """A bit string of odd length; the codec is defined on even lengths only."""


class LengthMismatchError(JunaError):
    """Two sequences that must agree in length do not."""


class InsufficientPrimesError(JunaError):
    """Fewer primes below the bound than sequence elements requested."""


class NotInvertibleError(JunaError):
    """Modular inverse requested for a non-unit."""


class BadFactorizationError(JunaError):
    """Supplied factor list does not multiply back to the group order."""


class UnknownFactorizationError(JunaError):
    """Order computation needs the cofactor, which is not available."""


class SearchExhaustedError(JunaError):
    """A randomized search ran out of its attempt budget."""


class ParseError(JunaError):
    """Malformed parameter, instance, or digest text.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DomainError(JunaError):
    """Argument outside the range an operation is defined on."""


class CompositeSafeFormError(DomainError):
    """A modulus M = 2q + 1 that is composite although q is prime."""


class InstanceTooLargeError(JunaError):
    """Problem instance exceeds the configured size cap for this solver."""


class InconsistentParamsError(JunaError):
    """Private parameters do not regenerate the given public parameters."""


class InconsistentEncodingError(JunaError):
    """A long-shadow string that no bit string encodes to."""
