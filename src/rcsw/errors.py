"""Shared exception types for the workbench: the failures a caller handles.

Bad arguments raise ``ValueError``; each type here is caught somewhere in
the package.
"""


class RejectSignal(RuntimeError):
    """Raised when no proper edge coloring with `degree` colors was found.

    Callers are expected to resample the graph and try again.
    """


class CapacityError(RuntimeError):
    """Raised when a dense simulation or contraction would exceed memory caps."""


class FitError(RuntimeError):
    """Raised when a curve fit fails to converge or is degenerate."""


class InfeasibleBudget(RuntimeError):
    """Raised when slicing cannot reach the requested width budget."""
