"""Exception types shared across the package."""


class ShiftAddError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ShiftAddError, ValueError):
    """Shapes of operands do not line up."""


class AccuracyUnreachableError(ShiftAddError):
    """An adaptive decomposition exhausted its budget before the target."""


class PlanFormatError(ShiftAddError, ValueError):
    """A plan file is malformed."""


class PlanVersionError(PlanFormatError):
    """A plan file carries an unsupported format version."""


class MatrixFormatError(ShiftAddError, ValueError):
    """A matrix or vector file is malformed."""
