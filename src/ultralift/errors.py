"""Exception hierarchy shared by all solvers and grounds.

Exit-code mapping used by the CLI:
  UsageError / ParseError      -> 64
  HypothesisViolation          -> 2
  StallError                   -> 3
  PrecisionLossError, ResourceCapError -> 70 (a printed solution that fails
    its round-trip re-verification raises PrecisionLossError, and so does a
    solver hypothesis that the inputs' truncation orders cannot decide)
"""


class UltraliftError(Exception):
    """Base class for all package errors."""


class UsageError(UltraliftError):
    """Caller broke a precondition (empty input, mismatched structures, ...)."""


class ParseError(UsageError):
    """Text in one of the serialization grammars failed to parse."""


class PrecisionLossError(UltraliftError):
    """The question cannot be decided at the available truncation order."""


class ResourceCapError(UltraliftError):
    """A configured search bound (tower degree, window size) was exceeded."""


class HypothesisViolation(UltraliftError):
    """A solver hypothesis failed; carries the offending quantities."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = dict(details)


class NoAsymptoticIntegral(HypothesisViolation):
    """Integration hit the exponent -1 obstruction."""


class StallError(UltraliftError):
    """A correction step failed to strictly increase the residual value.

    Carries the certificate prefix so the failing step can be inspected.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate
