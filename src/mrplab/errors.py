"""Exception types shared across the package."""


class MrplabError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(MrplabError, ValueError):
    """A parameter lies outside the admissible region."""


class UnsupportedOperationError(MrplabError):
    """The operation is undefined for this object (e.g. density of an atomic measure)."""


class ConfigurationError(MrplabError, ValueError):
    """Inconsistent model configuration or invalid query."""


class SchemaError(ConfigurationError):
    """A model or query file violates the expected schema."""


class InvalidInterarrivalError(MrplabError, ValueError):
    """An interarrival value is nonpositive, or a kernel puts mass outside (0, inf)."""


class OutOfHorizonError(MrplabError, ValueError):
    """A count was queried beyond the observed horizon."""


class IngestionError(MrplabError, ValueError):
    """External counting data is malformed (unsorted grid, tied event times, bad header)."""


class CapacityError(MrplabError):
    """Requested simulation exceeds configured resource limits."""


class AccuracyError(MrplabError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate so callers can still report it.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate

    def __reduce__(self):
        # `args` holds only the message, so the default reduction cannot rebuild
        # the error, and a worker process could not hand it back to its parent
        return type(self), (self.args[0], self.value, self.error_estimate)


class InsufficientDataError(MrplabError, ValueError):
    """Sample too small for the requested statistical check."""


class DegenerateTestError(MrplabError, ValueError):
    """Test parameters make the statistic degenerate (e.g. prefix length < 2)."""


class UnsupportedModelError(MrplabError):
    """The model shape does not support the requested computation."""
