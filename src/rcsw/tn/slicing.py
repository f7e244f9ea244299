"""Index slicing under a width budget.

Fixing (slicing) an index turns one contraction into independent tasks,
one per index value, each over a network with that index fixed.
Slicing never reduces total work for a fixed tree; it trades memory for a
task-count multiplier.  Indices are chosen greedily, one per step, among
the unsliced legs of the widest node: the one giving the smallest
(log2 width, FLOPs, index id) wins.  The tree is re-optimized every
``REOPT_EVERY`` slices because the best order for the sliced network can
differ from the unsliced one.  The re-optimized tree replaces the current
one without being priced against it, so a step can end on a costlier
tree than the one it started from.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import InfeasibleBudget
from .network import TensorNetwork
from .order import optimize_order
from .tree import ContractionTree, _walk, index_mask, leg_sets, walk_merges

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
    merges, stats = tree.merges, tree.stats
    seeds = iter(np.random.SeedSequence(seed).spawn(MAX_SLICES + 1))
    since_reopt = 0
    while True:
        if 2.0 ** stats.log2_width <= width_budget:
            break
        if len(sliced) >= MAX_SLICES:
            raise InfeasibleBudget(
                f"{MAX_SLICES} slices did not reach width "
                f"2^{math.log2(width_budget):g}")
        # the first widest node's unsliced legs are the candidates; one walk
        # prices them all and a second prices the winner's tree
        cut = index_mask(sliced)
        candidates = stats.widest & ~cut
        if not candidates:
            raise InfeasibleBudget("no index left to slice in oversized nodes")
        _, _, i = min(_walk(merges, legs, cut, candidates)[1])
        stats = walk_merges(merges, legs, cut | 1 << i)
        sliced.append(i)
        since_reopt += 1
        if since_reopt >= REOPT_EVERY:
            since_reopt = 0
            reopt = optimize_order(tn, budget=budget, seed=next(seeds),
                                   sliced=tuple(sliced))
            merges, stats = reopt.merges, reopt.stats
    return ContractionTree(merges, tuple(sliced), stats)

