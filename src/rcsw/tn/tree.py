"""Contraction trees and their cost accounting.

A tree over a closed network is a list of pairwise merges in static
single-assignment form: leaves are numbered 0..T-1 and merge step s
produces node T+s.  A leg set is a Python int with bit i set for index i.
Because every index appears in exactly two tensors, the legs of a merged
node are the XOR of its children's legs.  Every index has dimension 2, or
1 at a Schmidt rank of 1 or when sliced, so the log2 size of a leg set is
the number of its legs inside the ``live`` mask of dimension-2 indices;
``log2_size`` is the one pricing rule the order search and the slicer use.
Costs use 8*S*K real FLOPs for a complex contraction producing S entries
from a contracted dimension K.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple


@dataclass
class TreeStats:
    flops: float
    width: float               # largest node size, leaves included
    max_rank: float            # log2 of the largest node size
    log2_flops: float
    sliced_multiplier: float   # product of sliced index dimensions
    total_flops: float         # sliced_multiplier * flops

    @property
    def log2_total(self) -> float:
        return math.log2(self.total_flops) if self.total_flops > 0 else 0.0

    @property
    def log2_width(self) -> float:
        return math.log2(self.width) if self.width > 0 else 0.0


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


def live_mask(dims: dict[int, int], sliced=()) -> int:
    """Bitmask of the indices priced at dimension 2.

    Every index has dimension 2, or 1 at a Schmidt rank of 1; a sliced index
    is priced at 1 as well.  Any other dimension is rejected.
    """
    live = 0
    for i, d in dims.items():
        if d == 2:
            live |= 1 << i
        elif d != 1:
            raise ValueError(f"index {i} has dimension {d}; only 1 and 2 are priced")
    return live & ~index_mask(sliced)


def log2_size(legs: int, live: int) -> int:
    """log2 of the number of entries of a tensor with these legs."""
    return (legs & live).bit_count()


class Walk(NamedTuple):
    """Cost of one merge list at one ``live`` mask."""

    flops: float
    log2_width: int   # log2 of the largest node, leaves included
    widest: int       # legs of the first node of that size, leaves first


def walk_merges(merges, legs: list[int], live: int) -> Walk:
    """Price a merge list at the dimensions given by ``live``."""
    node = dict(enumerate(legs))
    widest = max(legs, key=lambda ls: log2_size(ls, live), default=0)
    best = log2_size(widest, live)
    flops = 0.0
    nxt = len(legs)
    for a, b in merges:
        la, lb = node.pop(a), node.pop(b)
        parent = la ^ lb
        k = log2_size(parent, live)
        flops += 8.0 * 2.0 ** (k + log2_size(la & lb, live))
        if k > best:
            best, widest = k, parent
        node[nxt] = parent
        nxt += 1
    if len(node) > 1 or any(node.values()):
        raise ValueError("merge list does not contract the network to a scalar")
    return Walk(flops, best, widest)


def analyze_merges(merges, legs: list[int], dims: dict[int, int],
                   sliced: tuple[int, ...] = ()) -> TreeStats:
    """Walk a merge list and price it.

    Sliced indices are priced at dimension 1 (one fixed value per task);
    the stats then describe a single task and the total carries the
    task-count multiplier.
    """
    full = live_mask(dims)
    cut = index_mask(sliced)
    walk = walk_merges(merges, legs, full & ~cut)
    mult = 2.0 ** log2_size(cut, full)
    return TreeStats(
        flops=walk.flops,
        width=2.0 ** walk.log2_width,
        max_rank=float(walk.log2_width),
        log2_flops=math.log2(walk.flops) if walk.flops > 0 else 0.0,
        sliced_multiplier=mult,
        total_flops=mult * walk.flops,
    )


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

    def analyze(self, legs, dims, sliced=None) -> TreeStats:
        use = self.sliced if sliced is None else tuple(sliced)
        return analyze_merges(self.merges, legs, dims, use)

    def attach_stats(self, legs, dims) -> "ContractionTree":
        self.stats = self.analyze(legs, dims)
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
    return tree.analyze(leg_sets(tn.indices), tn.dims)
