"""Shared exception types for the workbench."""


class ParityError(ValueError):
    """Raised on a node-count parity no request can satisfy.

    Either n * degree is odd, so no regular graph exists, or n is odd when a
    proper degree-edge-coloring is asked for: every color class would have
    to be a perfect matching, and an odd node count has none.
    """


class DegreeError(ValueError):
    """Raised when the requested degree is out of range for the node count."""


class RejectSignal(RuntimeError):
    """Raised when no proper edge coloring with `degree` colors was found.

    Callers are expected to resample the graph and try again.
    """


class CapacityError(RuntimeError):
    """Raised when a dense simulation or contraction would exceed memory caps."""


class FitError(RuntimeError):
    """Raised when a curve fit fails to converge or is degenerate."""


class DomainError(ValueError):
    """Raised when a numeric argument is outside its mathematical domain."""


class InfeasibleBudget(RuntimeError):
    """Raised when slicing cannot reach the requested width budget."""


class EmptySamples(ValueError):
    """Raised when an estimator receives an empty sample list."""


class EmptyTable(ValueError):
    """Raised when a shot table contains no records."""
