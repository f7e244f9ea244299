"""Closed-form cost models, analytic rank bounds, and cost reporting.

The effective qubit number of a contraction is log2 of its FLOPs per
two-qubit gate; dividing by n gives the complexity density, which the
geometry-level models below predict from (n, d) alone.  Combining a model
with the fidelity-resolvability depth limit gives the largest effective
qubit number reachable for given error and time budgets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..circuits import Circuit
from ..estimators import verifiable_depth
from .tree import ContractionTree


@dataclass(frozen=True)
class SimpleCostModel:
    """Two-constant density models, one per circuit geometry.

    2d: density = amp * min(1, slope * d / sqrt(n)), a function of the
    scale-free depth d / sqrt(n) alone.  rg: density = min(1, rate*(d -
    offset)), clipped at 0, saturating for d past offset + 1/rate.
    """

    geometry: str
    amp: float = 1.1
    slope: float = 0.35
    rate: float = 0.125
    offset: float = 2.0

    def __post_init__(self):
        if self.geometry not in ("2d", "rg"):
            raise ValueError("geometry must be '2d' or 'rg'")


def simple_cost(model: SimpleCostModel, n: int, d: float) -> tuple[float, float]:
    """Model complexity density and the FLOP count it implies."""
    if model.geometry == "2d":
        density = model.amp * min(1.0, model.slope * d / math.sqrt(n))
    else:
        density = min(1.0, model.rate * (d - model.offset))
    density = max(density, 0.0)
    try:
        flops = (n * d / 2.0) * 2.0 ** (density * n)
    except OverflowError:  # density * n past 1024: beyond any float
        flops = math.inf
    return density, flops


def lower_bound_rank(n: int, d: int) -> float:
    """Expander-cut floor on the largest rank of any contraction tree.

    With eta(d) = 2*sqrt(ln(2)/d), every balanced cut of a random d-regular
    graph has at least (d/2)(1-eta) boundary edges per node with high
    probability, which forces any contraction order of an n-qubit circuit
    on it to reach rank at least n(1-eta)/9.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    eta = 2.0 * math.sqrt(math.log(2.0) / d)
    return n * (1.0 - eta) / 9.0


# quantum time budget of the frontier, in per-shot times
TIME_BUDGET = 100.0


@dataclass(frozen=True)
class MaxQubitsResult:
    n_eff: float
    n_star: int
    d_star: int
    depth_limit: float  # largest verifiable depth at n_star


def max_effective_qubits(eps: float, tau_q: float, t_q: float,
                         model: SimpleCostModel) -> MaxQubitsResult:
    """Largest model-predicted effective qubit number under a time budget.

    Scans n = 8, 12, ... and, at each n, the depths d = 1, 2, ... whose
    fidelity stays resolvable in the quantum time budget, up to
    verifiable_depth, maximizing density * n.  Past n = ln(t_q / tau_q) /
    eps not even depth 1 is resolvable, which ends the scan.
    """
    best = None
    for n in range(8, math.floor(verifiable_depth(eps, tau_q, t_q, 1)) + 1, 4):
        d_max = verifiable_depth(eps, tau_q, t_q, n)
        for d in range(1, math.floor(d_max) + 1):
            density, _ = simple_cost(model, n, d)
            n_eff = density * n
            if best is None or n_eff > best.n_eff:
                best = MaxQubitsResult(n_eff, n, d, d_max)
    if best is None:
        raise ValueError("no feasible (n, d) point in the grid")
    return best


CSV_HEADER = ("ensemble,N,d,d_eff,log2_flops,log2_width,"
              "log2_flops_sliced,n_slices,C_density,seed")


@dataclass
class CostSummary:
    """One row of a contraction-cost scan."""

    ensemble: str
    n: int
    d: int
    d_eff: float
    log2_flops: float
    log2_width: float
    log2_flops_sliced: float | None
    n_slices: int
    c_density: float
    seed: int | None

    def csv_row(self) -> str:
        sliced = "" if self.log2_flops_sliced is None else \
            f"{self.log2_flops_sliced:.4f}"
        seed = "" if self.seed is None else str(self.seed)
        return (f"{self.ensemble},{self.n},{self.d},{self.d_eff:.4f},"
                f"{self.log2_flops:.4f},{self.log2_width:.4f},"
                f"{sliced},{self.n_slices},{self.c_density:.6f},{seed}")


def summarize(c: Circuit, tree: ContractionTree,
              sliced_tree: ContractionTree | None = None,
              seed: int | None = None) -> CostSummary:
    """Cost summary of an optimized tree, densities per two-qubit gate."""
    flops = tree.stats.total_flops  # can be 0 when no two-qubit gate is sampled
    n_eff = math.log2(flops / max(c.n_2q, 1)) if flops else 0.0
    sliced_cost = None
    n_slices = 0
    if sliced_tree is not None:
        sliced_cost = sliced_tree.stats.log2_total
        n_slices = len(sliced_tree.sliced)
    return CostSummary(
        ensemble=c.ensemble,
        n=c.n,
        d=c.depth,
        d_eff=c.d_eff,
        log2_flops=tree.stats.log2_flops,
        log2_width=tree.stats.log2_width,
        log2_flops_sliced=sliced_cost,
        n_slices=n_slices,
        c_density=n_eff / c.n,
        seed=seed,
    )
