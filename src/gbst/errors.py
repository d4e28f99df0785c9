"""Exception hierarchy shared by all gbst modules."""


class GBSTError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(GBSTError):
    """Transform/graph size outside the supported range."""


class InvalidParameterError(GBSTError):
    """Negative or otherwise inadmissible graph parameters."""


class DegenerateGraphError(GBSTError):
    """Operation undefined for a zero edge weight."""


class DecompositionError(GBSTError):
    """Eigendecomposition failed or produced a degenerate spectrum."""


class DimensionMismatchError(GBSTError):
    """Operands of a block/transform operation disagree in size."""


class NotACorrespondenceError(GBSTError):
    """Graph parameters do not match the defining relation of the requested trig type."""


class NonPositiveDefiniteError(GBSTError):
    """A matrix required to be positive definite is not."""


class DegenerateInputError(GBSTError):
    """Input statistics are degenerate (e.g. zero trace covariance)."""


class EmptyDatasetError(GBSTError):
    """Residual dataset contains no blocks."""


class InconsistentBlockSizeError(GBSTError):
    """Residual dataset blocks are not all N x N."""


class DatasetFormatError(GBSTError):
    """Binary residual dataset file is malformed or truncated."""


class DatasetTooLargeError(GBSTError):
    """Residual dataset has more rows than its exact int64 moment can hold."""


class IntegerOverflowError(GBSTError):
    """Integerized transform entry exceeds the 8-bit magnitude budget."""
