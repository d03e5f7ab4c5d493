"""Exception hierarchy shared by all solver components."""


class GnesolveError(Exception):
    """Base class for all errors raised by this package.

    An error raised inside the outer loop of a run carries the failing outer
    iteration, the trace rows computed before it, and the inner steps taken
    before it.
    """

    iteration: int | None = None
    rows: list | None = None
    inner_steps: int | None = None


class StructuralError(GnesolveError):
    """Dimension or shape mismatch in user-supplied data."""


class NumericError(GnesolveError):
    """An oracle or update produced non-finite values."""


class ValidationError(GnesolveError):
    """A parameter or step-size condition failed validation."""


class InexactnessError(GnesolveError):
    """An inner solver could not certify the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class DivergenceError(GnesolveError):
    """An outer iteration produced a non-finite state."""


class ConfigError(GnesolveError):
    """An experiment configuration could not be parsed or is inconsistent."""
