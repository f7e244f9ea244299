"""Index slicing under a width budget.

Fixing (slicing) an index turns one contraction into independent tasks,
one per index value, each over a network with that index fixed.
Slicing never reduces total work for a fixed tree; it trades memory for a
task-count multiplier.  Indices are chosen greedily by per-slice width
reduction, re-optimizing the tree at intervals because the best order for
the sliced network can differ from the unsliced one.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import InfeasibleBudget
from .network import TensorNetwork
from .order import optimize_order
from .tree import ContractionTree, index_mask, leg_sets, mask_indices, walk_merges

REOPT_EVERY = 4  # slices between re-optimizations of the tree
MAX_SLICES = 60  # slice count at which the budget is declared infeasible


def slice_tree(tn: TensorNetwork, tree: ContractionTree, width_budget: float,
               budget: int = 4, seed=0) -> ContractionTree:
    """Slice indices until every per-task intermediate fits the budget.

    Returns a tree whose stats describe one task plus the task-count
    multiplier.  Raises InfeasibleBudget when the budget is below 2 or the
    slice count runs away.
    """
    if width_budget < 2:
        raise InfeasibleBudget("width budget below a single binary index")
    legs = leg_sets(tn.indices)
    sliced = list(tree.sliced)
    merges = list(tree.merges)
    seeds = iter(np.random.SeedSequence(seed).spawn(MAX_SLICES + 1))
    since_reopt = 0
    while True:
        live = ~index_mask(sliced)
        walk = walk_merges(merges, legs, live)
        if 2.0 ** walk.log2_width <= width_budget:
            break
        if len(sliced) >= MAX_SLICES:
            raise InfeasibleBudget(
                f"{MAX_SLICES} slices did not reach width "
                f"2^{math.log2(width_budget):g}")
        # only the first widest node's unsliced legs are tried, so a step
        # costs at most its rank in trials
        candidates = walk.widest & live
        if not candidates:
            raise InfeasibleBudget("no index left to slice in oversized nodes")
        best = None
        for i in mask_indices(candidates):
            trial = walk_merges(merges, legs, live & ~(1 << i))
            key = (trial.log2_width, trial.flops, i)
            if best is None or key < best[0]:
                best = (key, i)
        sliced.append(best[1])
        since_reopt += 1
        if since_reopt >= REOPT_EVERY:
            since_reopt = 0
            merges = list(optimize_order(tn, budget=budget, seed=next(seeds),
                                         sliced=tuple(sliced)).merges)
    out = ContractionTree(tn.n_tensors, merges, sliced=tuple(sliced))
    return out.attach_stats(legs)
