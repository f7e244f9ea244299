"""Tensor-network contraction cost analysis.

Maps layered circuits to closed tensor networks, searches for contraction
orders, prices them in FLOPs, slices under a width budget, and checks the
analytic rank bounds.  Small networks can be executed exactly for
verification against the statevector simulator.
"""
from .execute import execute_tree
from .models import (
    CSV_HEADER,
    TIME_BUDGET,
    CostSummary,
    SimpleCostModel,
    lower_bound_rank,
    max_effective_qubits,
    simple_cost,
    summarize,
)
from .network import TensorNetwork, circuit_to_tn
from .order import light_cone_order, optimize_order
from .slicing import slice_tree
from .tree import ContractionTree

__all__ = [
    "TensorNetwork", "circuit_to_tn",
    "ContractionTree",
    "optimize_order", "light_cone_order",
    "slice_tree", "execute_tree",
    "SimpleCostModel", "simple_cost", "CostSummary", "summarize",
    "CSV_HEADER", "lower_bound_rank", "max_effective_qubits", "TIME_BUDGET",
]
