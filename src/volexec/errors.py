"""Exception types shared across the package."""


class InconsistentStrategyError(ValueError):
    """Rate curve does not integrate to the declared share total."""


class NegativeRateError(ValueError):
    """Inventory curve increases somewhere, implying a negative execution rate."""


class SolverFailureError(RuntimeError):
    """A linear or nonlinear solve failed; the message says where."""


class ConsistencyError(RuntimeError):
    """Two independent evaluations of the same quantity disagree."""
