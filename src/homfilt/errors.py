"""Exception types shared across the package."""


class HomfiltError(Exception):
    """Base class for all package errors."""


class ModelShapeError(HomfiltError):
    """A coefficient function returned an array of the wrong shape."""


class BlowUpError(HomfiltError):
    """Non-finite state encountered during simulation."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"numerical blow-up at step {step}")


class NotSymmetricError(HomfiltError):
    """Matrix expected to be symmetric is not."""


class NotPSDError(HomfiltError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class WeightCollapseError(HomfiltError):
    """All particle weights underflowed to zero."""

    def __init__(self, max_log_weight: float):
        self.max_log_weight = max_log_weight
        super().__init__(f"weight collapse (max log-weight {max_log_weight:.6g})")


class NonErgodicWarning(UserWarning):
    """Replicate disagreement far beyond the pooled standard error."""


class GridMismatchError(HomfiltError):
    """Observation grid is not uniform, so it gives the filters no one step."""


class UsageError(HomfiltError):
    """Invalid configuration or command-line input."""


class StudyAbortError(HomfiltError):
    """Too many failed replications at some epsilon."""
