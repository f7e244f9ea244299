"""Contraction trees and their cost accounting.

A tree over a closed network is a list of pairwise merges in static
single-assignment form: leaves are numbered 0..T-1 and merge step s
produces node T+s.  A leg set is a Python int with bit i set for index i.
Because every index appears in exactly two tensors, the legs of a merged
node are the XOR of its children's legs.  Every index has dimension 2 and
a sliced index has one fixed value per task, so the log2 size of a leg set
is the number of its legs inside the ``live`` mask ``~index_mask(sliced)``;
``log2_size`` is the one pricing rule the order search and the slicer use.
Costs use 8*S*K real FLOPs for a complex contraction producing S entries
from a contracted dimension K; every such term is 8 * 2^k, so FLOP totals
are exact Python ints.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple


@dataclass
class TreeStats:
    """Cost of one slice task and the number of tasks."""

    flops: int        # FLOPs of one task
    log2_width: int   # log2 of the largest node, leaves included
    n_sliced: int     # sliced indices; 2^n_sliced tasks

    @property
    def width(self) -> int:
        return 1 << self.log2_width

    @property
    def max_rank(self) -> float:
        return float(self.log2_width)

    @property
    def log2_flops(self) -> float:
        return math.log2(self.flops) if self.flops > 0 else 0.0

    @property
    def sliced_multiplier(self) -> int:
        return 1 << self.n_sliced

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


def log2_size(legs: int, live: int) -> int:
    """log2 of the number of entries of a tensor with these legs."""
    return (legs & live).bit_count()


class Walk(NamedTuple):
    """Cost of one merge list at one ``live`` mask."""

    flops: int
    log2_width: int   # log2 of the largest node, leaves included
    widest: int       # legs of the first node of that size, leaves first


def walk_merges(merges, legs: list[int], live: int) -> Walk:
    """Price a merge list at the dimensions given by ``live``."""
    node = dict(enumerate(legs))
    widest = max(legs, key=lambda ls: log2_size(ls, live), default=0)
    best = log2_size(widest, live)
    flops = 0
    nxt = len(legs)
    for a, b in merges:
        la, lb = node.pop(a), node.pop(b)
        parent = la ^ lb
        k = log2_size(parent, live)
        flops += 8 << (k + log2_size(la & lb, live))
        if k > best:
            best, widest = k, parent
        node[nxt] = parent
        nxt += 1
    if len(node) > 1 or any(node.values()):
        raise ValueError("merge list does not contract the network to a scalar")
    return Walk(flops, best, widest)


def analyze_merges(merges, legs: list[int], sliced: tuple[int, ...] = ()) -> TreeStats:
    """Walk a merge list and price it.

    Sliced indices have one fixed value per task; the stats then describe a
    single task and the total carries the task-count multiplier.
    """
    cut = index_mask(sliced)
    stray = cut & ~functools.reduce(operator.or_, legs, 0)
    if stray:
        raise ValueError(f"sliced indices {mask_indices(stray)} are on no tensor")
    walk = walk_merges(merges, legs, ~cut)
    return TreeStats(walk.flops, walk.log2_width, cut.bit_count())


@dataclass
class ContractionTree:
    """Merge order over a fixed network, with cached cost totals."""

    n_leaves: int
    merges: list[tuple[int, int]]
    sliced: tuple[int, ...] = ()
    stats: TreeStats | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n_leaves >= 1 and len(self.merges) != self.n_leaves - 1:
            raise ValueError("a binary tree over T leaves has T-1 merges")
        seen = set()
        for s, (a, b) in enumerate(self.merges):
            top = self.n_leaves + s
            for x in (a, b):
                if not 0 <= x < top or x in seen:
                    raise ValueError(f"merge {s} reuses or forward-references {x}")
                seen.add(x)

    def attach_stats(self, legs) -> "ContractionTree":
        self.stats = analyze_merges(self.merges, legs, self.sliced)
        return self

    def to_json(self) -> str:
        doc = {"n_leaves": self.n_leaves,
               "merges": [list(m) for m in self.merges],
               "sliced": list(self.sliced)}
        if self.stats is not None:
            doc["log2_flops"] = self.stats.log2_flops
            doc["log2_width"] = self.stats.log2_width
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ContractionTree":
        doc = json.loads(text)
        return cls(n_leaves=int(doc["n_leaves"]),
                   merges=[tuple(m) for m in doc["merges"]],
                   sliced=tuple(doc.get("sliced", [])))


def analyze_tree(tree: ContractionTree, tn) -> TreeStats:
    """Recompute a tree's stats directly from its network."""
    return analyze_merges(tree.merges, leg_sets(tn.indices), tree.sliced)
