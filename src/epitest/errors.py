"""Exception types shared across the toolkit."""


class EpitestError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EpitestError, ValueError):
    """An input object violates one of its declared invariants."""


class DimensionError(ValidationError):
    """Operands have mismatched population sizes or vector lengths."""


class InconsistentObservationError(EpitestError, ValueError):
    """A belief update was asked to condition on a zero-probability observation."""


class ContractViolation(EpitestError, RuntimeError):
    """A caller broke an interface contract (out-of-range action, empty
    alpha set, observation present without a test, ...)."""


class SizeCapError(EpitestError, RuntimeError):
    """Problem size exceeds a solver's enumeration cap."""


class CoverageError(EpitestError, ValueError):
    """A belief cannot be valued on an interpolation grid: it is not a
    distribution over the grid's states, or the hull LP failed."""

    def __init__(self, belief_dense, message=None):
        self.belief_dense = belief_dense
        if message is None:
            message = f"belief not covered by interpolation grid: {belief_dense}"
        super().__init__(message)


class InternalInconsistency(EpitestError, RuntimeError):
    """A cross-check that should hold by construction failed (for example a
    lower bound exceeding an upper bound)."""
