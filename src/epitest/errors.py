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


class InternalInconsistency(EpitestError, RuntimeError):
    """A property that should hold by construction failed (for example a
    lower bound exceeding an upper bound, or HiGHS failing on a hull LP that
    is always feasible and bounded)."""
