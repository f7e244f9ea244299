"""Index slicing under a width budget.

Fixing (slicing) an index turns one contraction into independent tasks,
one per index value, each over a network with that index fixed.
Slicing never reduces total work for a fixed tree; it trades memory for a
task-count multiplier.  Indices are chosen greedily, one per step, among
the unsliced legs of the widest node: the one giving the smallest
(log2 width, FLOPs, index id) wins.  One walk over the merges prices every
candidate at once (Gray & Kourtis, arXiv:2002.01935): slicing index i
halves the term 8 << k of each merge whose children carry i, and lowers
the width K by one exactly when i lies on every node of size K.  The tree
is re-optimized at intervals because the best order for the sliced
network can differ from the unsliced one.
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
        _, _, i = min(_candidate_prices(merges, legs, cut, candidates))
        stats = walk_merges(merges, legs, cut | 1 << i)
        sliced.append(i)
        since_reopt += 1
        if since_reopt >= REOPT_EVERY:
            since_reopt = 0
            reopt = optimize_order(tn, budget=budget, seed=next(seeds),
                                   sliced=tuple(sliced))
            merges, stats = reopt.merges, reopt.stats
    return ContractionTree(merges, tuple(sliced), stats)


def _candidate_prices(merges, legs: list[int], cut: int,
                      candidates: int) -> list[tuple[int, int, int]]:
    """(log2_width, flops, i) of the tree with each candidate i also cut.

    One walk serves every candidate: the FLOPs of slicing i are the total
    less half of each merge term whose children carry i, and the width is
    K - 1 when i lies on every node of the largest live size K, leaves
    included, and K otherwise.
    """
    live = ~cut
    width, on_all = -1, 0  # largest live size, legs common to its nodes
    for ls in legs:
        k = (ls & live).bit_count()
        if k > width:
            width, on_all = k, ls
        elif k == width:
            on_all &= ls
    node = list(legs)
    flops = 0
    carried = dict.fromkeys((1 << i for i in mask_indices(candidates)), 0)
    for a, b in merges:
        la, lb = node[a], node[b]
        parent = la ^ lb
        k = (parent & live).bit_count()
        if k > width:
            width, on_all = k, parent
        elif k == width:
            on_all &= parent
        legs_ab = (la | lb) & live
        term = 8 << legs_ab.bit_count()
        flops += term
        hit = legs_ab & candidates
        while hit:
            low = hit & -hit
            carried[low] += term
            hit ^= low
        node.append(parent)
    return [(width - 1 if on_all & bit else width, flops - (carried[bit] >> 1),
             bit.bit_length() - 1) for bit in carried]
