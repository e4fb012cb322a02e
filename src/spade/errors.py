"""Exception hierarchy shared by the whole package.

Exit-code mapping used by the CLI: 2 = configuration error, 3 = numeric
failure, 4 = I/O or file-format error.
"""


class SpadeError(Exception):
    exit_code = 1


class ConfigError(SpadeError):
    exit_code = 2


class ShapeError(ConfigError):
    """Tensor/raster shape mismatch; message lists both shapes."""


class NumericError(SpadeError):
    exit_code = 3


class DomainError(NumericError):
    """Value outside the mathematical domain of an operation."""


class InsufficientPointsError(NumericError):
    pass


class DegenerateDesignError(NumericError):
    """Least-squares design matrix is rank deficient (e.g. zero variance)."""


class InconsistentMeasurementsError(NumericError):
    """Measurements imply a non-positive scale for a positive-depth scene."""


class FitOverflowError(NumericError):
    """Alignment arithmetic left the float64 range."""


class AlignmentFailureError(NumericError):
    """Both the joint fit and the scale-only fallback failed."""


class EmptyEvaluationError(NumericError):
    """No valid pixels left after masking."""


class DivergenceError(NumericError):
    """Training loss became non-finite."""


class FormatError(SpadeError):
    """Malformed file; the message ends with the byte offset where parsing failed, when one is known."""

    exit_code = 4

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
