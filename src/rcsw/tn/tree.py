"""Contraction trees and their cost accounting.

A tree over a closed network is a list of pairwise merges in static
single-assignment form: leaves are numbered 0..T-1 and merge step s
produces node T+s.  A leg set is a Python int with bit i set for index i.
Because every index appears in exactly two tensors, the legs of a merged
node are the XOR of its children's legs.  Every index has dimension 2 and
a sliced index has one fixed value per task, so the log2 size of a leg set
is the number of its legs outside the ``cut`` mask ``index_mask(sliced)``,
``(legs & ~cut).bit_count()``.  This module is the only one that prices
a merge.  Costs use 8*S*K real FLOPs for a complex contraction producing
S entries from a contracted dimension K.  S*K spans the live legs of the
two children together, so every term is ``merge_flops``, 8 * 2^k, and
FLOP totals are exact Python ints.  One walk over the merges prices a
tree for the order search, the slicer and ``price``, and in the same pass
every slice candidate (Gray & Kourtis, arXiv:2002.01935): cutting a live
index i halves the term of each merge whose children carry i, and lowers
the width K by one exactly when i lies on every node of size K, leaves
included.  A ``ContractionTree`` is priced when it is made and never
changes.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class TreeStats:
    """Cost of one slice task and the number of tasks."""

    flops: int        # FLOPs of one task
    log2_width: int   # log2 of the largest node, leaves included
    widest: int       # legs of the first node of that size, leaves first
    n_sliced: int     # sliced indices; 2^n_sliced tasks

    @property
    def width(self) -> int:
        return 1 << self.log2_width

    @property
    def log2_flops(self) -> float:
        return math.log2(self.flops) if self.flops > 0 else 0.0

    @property
    def total_flops(self) -> int:
        return self.flops << self.n_sliced

    @property
    def log2_total(self) -> float:
        return math.log2(self.total_flops) if self.total_flops > 0 else 0.0


def index_mask(ids) -> int:
    """Bitmask with bit i set for each index i in ids."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def mask_indices(mask: int) -> list[int]:
    """Index ids set in a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def leg_sets(indices: list[tuple[int, ...]]) -> list[int]:
    """Leg set of each tensor as an index bitmask."""
    return [index_mask(ids) for ids in indices]


def merge_flops(la: int, lb: int, live: int) -> int:
    """FLOPs of merging nodes with legs la and lb: S * K = size(la ^ lb) *
    size(la & lb) spans the live legs of la | lb."""
    return 8 << ((la | lb) & live).bit_count()


def _walk(merges, legs: list[int], cut: int,
          candidates: int) -> tuple[TreeStats, list[tuple[int, int, int]]]:
    """Stats of a merge list with ``cut`` fixed, and the (log2_width, flops,
    i) of the tree with each index i of ``candidates`` also cut."""
    live = ~cut
    best, widest, on_all = -1, 0, 0  # on_all: legs common to nodes of size best
    for ls in legs:
        k = (ls & live).bit_count()
        if k > best:
            best, widest, on_all = k, ls, ls
        elif k == best:
            on_all &= ls
    best = max(best, 0)
    node = list(legs)  # node legs by SSA id
    flops = 0
    candidates &= live
    carried = dict.fromkeys((1 << i for i in mask_indices(candidates)), 0)
    for a, b in merges:
        la, lb = node[a], node[b]
        parent = la ^ lb
        k = (parent & live).bit_count()
        if k > best:
            best, widest, on_all = k, parent, parent
        elif k == best:
            on_all &= parent
        term = merge_flops(la, lb, live)
        flops += term
        hit = (la | lb) & candidates
        while hit:
            low = hit & -hit
            carried[low] += term
            hit ^= low
        node.append(parent)
    if legs and (len(merges) != len(legs) - 1 or node[-1]):
        raise ValueError("merge list does not contract the network to a scalar")
    prices = [(best - 1 if on_all & bit else best, flops - (carried[bit] >> 1),
               bit.bit_length() - 1) for bit in carried]
    return TreeStats(flops, best, widest, cut.bit_count()), prices


def walk_merges(merges, legs: list[int], cut: int) -> TreeStats:
    """Price a merge list with the indices in ``cut`` fixed (sliced)."""
    return _walk(merges, legs, cut, 0)[0]


@dataclass(frozen=True)
class ContractionTree:
    """Merge order over a fixed network, with the cost of one slice task."""

    merges: list[tuple[int, int]]
    sliced: tuple[int, ...]
    stats: TreeStats


def price(merges, legs: list[int], sliced=()) -> ContractionTree:
    """Check a merge list over these leaves and price it as a tree.

    Sliced indices have one fixed value per task; the stats then describe a
    single task and the total carries the task-count multiplier.
    """
    if legs and len(merges) != len(legs) - 1:
        raise ValueError("a binary tree over T leaves has T-1 merges")
    seen = set()
    for s, (a, b) in enumerate(merges):
        for x in (a, b):
            if not 0 <= x < len(legs) + s or x in seen:
                raise ValueError(f"merge {s} reuses or forward-references {x}")
            seen.add(x)
    cut = index_mask(sliced)
    stray = cut & ~functools.reduce(operator.or_, legs, 0)
    if stray:
        raise ValueError(f"sliced indices {mask_indices(stray)} are on no tensor")
    return ContractionTree(list(merges), tuple(sliced), walk_merges(merges, legs, cut))
