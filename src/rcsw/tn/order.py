"""Contraction-order search.

Several candidate generators feed a best-of selection: two deterministic
sweeps (gate-level time order, which can never do worse than a
statevector pass over the circuit, and wire-major order, which is the
right shape for chain-like circuits) and randomized greedy pairing that
merges the neighbours sharing the most live legs, run over the leaves and
over whole gates.  The greedy walks neighbours in ascending id order, so
each tie-break draw goes to the same pair on every run.  Budgets are
spent as independently seeded trials, so a larger budget only ever
improves the returned tree.
"""
from __future__ import annotations

import functools
import heapq
import operator
from collections import defaultdict

import numpy as np

from .network import TensorNetwork
from .tree import (ContractionTree, index_mask, leg_sets, log2_size, mask_indices,
                   walk_merges)


class _MergeList:
    """Merge list under construction over ``n_leaves`` leaves."""

    def __init__(self, n_leaves: int):
        self.n_leaves = n_leaves
        self.merges: list[tuple[int, int]] = []

    def join(self, a: int, b: int) -> int:
        self.merges.append((a, b))
        return self.n_leaves + len(self.merges) - 1

    def chain(self, nodes) -> int:
        """Merge nodes left to right and return the last node."""
        cur = nodes[0]
        for t in nodes[1:]:
            cur = self.join(cur, t)
        return cur


def _chain(order: list[int], n_leaves: int) -> list[tuple[int, int]]:
    out = _MergeList(n_leaves)
    out.chain(order)
    return out.merges


def _wire_major_order(tn: TensorNetwork) -> list[int]:
    def key(t):
        pos, (qa, qb), half = tn.provenance[t]
        wire = qa if half == "a" else qb if half == "b" else min(qa, qb)
        return (wire, pos, half)

    return sorted(range(tn.n_tensors), key=key)


def _greedy_merges(legs: list[int], live: int, rng,
                   noise: float) -> list[tuple[int, int]]:
    """Merge the neighbour pair sharing the most live legs, repeatedly.

    The score is -2 * log2_size(a & b), optionally plus Gaussian noise: it
    counts only the live legs a and b share and ignores how large a and b
    are.  It is not the linear-size score of Gray & Kourtis
    (arXiv:2002.01935), size(a ^ b) - size(a) - size(b) in entries; that
    score is an open roadmap item.
    """
    n_leaves = len(legs)
    node = dict(enumerate(legs))
    nbrs: dict[int, set[int]] = defaultdict(set)
    owner: dict[int, list[int]] = defaultdict(list)
    for t, ls in enumerate(legs):
        for i in mask_indices(ls):
            owner[i].append(t)
    for pair in owner.values():
        if len(pair) == 2:
            a, b = pair
            nbrs[a].add(b)
            nbrs[b].add(a)

    def score(a, b):
        s = -2 * log2_size(node[a] & node[b], live)
        return s + (noise * rng.standard_normal() if noise else 0.0)

    heap = []
    for a in node:
        for b in sorted(nbrs[a]):
            if a < b:
                heapq.heappush(heap, (score(a, b), rng.random(), a, b))

    merges = []
    nxt = n_leaves
    while len(node) > 1:
        pick = None
        while heap:
            _, _, a, b = heapq.heappop(heap)
            if a in node and b in node:
                pick = (a, b)
                break
        if pick is None:
            # disconnected parts: outer-product the survivors in id order
            rest = sorted(node)
            a, b = rest[0], rest[1]
            pick = (a, b)
        a, b = pick
        la, lb = node.pop(a), node.pop(b)
        w = nxt
        nxt += 1
        merges.append((a, b))
        node[w] = la ^ lb
        nbrs_w = (nbrs.pop(a, set()) | nbrs.pop(b, set())) - {a, b}
        nbrs[w] = set()
        for x in sorted(nbrs_w):
            if x in node:
                nbrs[x].discard(a)
                nbrs[x].discard(b)
                nbrs[x].add(w)
                nbrs[w].add(x)
                heapq.heappush(heap, (score(w, x), rng.random(), w, x))
    return merges


def _gate_groups(tn: TensorNetwork) -> dict[tuple, list[int]]:
    """Tensors of each gate, keyed (two-qubit layer position, pair) in time order."""
    groups: dict[tuple, list[int]] = defaultdict(list)
    for t, (pos, pair, _half) in enumerate(tn.provenance):
        groups[(pos, pair)].append(t)
    return dict(sorted(groups.items()))


def _expand_groups(qmerges, groups, n_leaves) -> list[tuple[int, int]]:
    """Lift a merge list over gate groups back to the full leaf set."""
    out = _MergeList(n_leaves)
    node = [out.chain(members) for members in groups]
    for a, b in qmerges:
        node.append(out.join(node[a], node[b]))
    return out.merges


def optimize_order(tn: TensorNetwork, budget: int = 8, seed=0,
                   sliced: tuple[int, ...] = ()) -> ContractionTree:
    """Search for a cheap contraction order.

    budget counts randomized trials; the deterministic sweep orders are
    always evaluated as well, so the result never costs more than a
    statevector-style pass.  The time sweep runs over whole gates, and on
    a split network every trial is also run over whole gates (halves
    pre-merged), so splitting gates cannot hurt beyond the pre-merge cost
    itself.  With sliced indices given, the search fixes each to one
    value and the returned stats describe one slice task.
    """
    t_count = tn.n_tensors
    legs = leg_sets(tn.indices)
    if t_count == 0:
        tree = ContractionTree(0, [], sliced=tuple(sliced))
        return tree.attach_stats(legs)
    live = ~index_mask(sliced)

    def priced(merges):
        return walk_merges(merges, legs, live).flops

    groups = list(_gate_groups(tn).values())
    split = len(groups) < t_count  # gates cut in two halves
    qlegs = [functools.reduce(operator.xor, (legs[t] for t in g)) for g in groups]
    candidates = [_expand_groups(_chain(range(len(groups)), len(groups)),
                                 groups, t_count),
                  _chain(_wire_major_order(tn), t_count)]
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    for t, child in enumerate(ss.spawn(max(budget, 0))):
        rng = np.random.default_rng(child)
        noise = 0.0 if t == 0 else float(rng.choice([0.2, 0.5, 1.0]))
        candidates.append(_greedy_merges(legs, live, rng, noise))
        if split:
            qrng = np.random.default_rng(child)
            qmerges = _greedy_merges(qlegs, live, qrng, noise)
            candidates.append(_expand_groups(qmerges, groups, t_count))

    best = min(candidates, key=priced)
    tree = ContractionTree(t_count, best, sliced=tuple(sliced))
    return tree.attach_stats(legs)


def light_cone_order(tn: TensorNetwork,
                     final_pairing: list[tuple[int, int]] | None = None) -> ContractionTree:
    """Constructive order with a proven cap on the largest intermediate.

    Output pairs from the last two-qubit layer are retired one at a time;
    for each, the not-yet-contracted part of its backward cone is merged in
    time order.  Each cone touches at most 2^depth wires, and a retired
    pair closes both its wires, so the open wire count never exceeds
    n(1 - 2^{1-depth}) + 2, inside the n(1 - 2^{-depth}) + 2 budget.
    Split-gate halves are pre-merged so transients stay within the bound.
    """
    if tn.n_tensors == 0:
        return ContractionTree(0, []).attach_stats([])
    depth = tn.meta.get("depth", 0)
    groups = _gate_groups(tn)

    # wire -> its gates in time order
    wire_gates: dict[int, list[tuple]] = defaultdict(list)
    for pos, pair in sorted(groups):
        for q in pair:
            wire_gates[q].append((pos, pair))

    def predecessors(key):
        pos, pair = key
        preds = []
        for q in pair:
            seq = wire_gates[q]
            j = seq.index(key)
            if j > 0:
                preds.append(seq[j - 1])
        return preds

    def cone(key):
        out = set()
        stack = [key]
        while stack:
            k = stack.pop()
            if k in out:
                continue
            out.add(k)
            stack.extend(predecessors(k))
        return out

    if final_pairing is not None:
        finals = [(depth - 1, tuple(sorted(p))) for p in final_pairing]
        for f in finals:
            if f not in groups:
                raise ValueError(f"pair {f[1]} is not in the final layer")
    else:
        finals = [k for k in sorted(groups) if k[0] == depth - 1]

    out = _MergeList(tn.n_tensors)
    gate_node: dict[tuple, int] = {}

    def node_for(key):
        if key not in gate_node:
            gate_node[key] = out.chain(groups[key])
        return gate_node[key]

    done: set[tuple] = set()
    touched: set[int] = set()
    acc = None
    remaining = set(finals)
    while remaining:
        if acc is None:
            pick = min(remaining)
        else:
            pick = max(remaining,
                       key=lambda k: (len({q for g in cone(k) for q in g[1]}
                                          & touched), (-k[0], k[1])))
        remaining.discard(pick)
        new = sorted(cone(pick) - done)
        for key in new:
            node = node_for(key)
            acc = node if acc is None else out.join(acc, node)
            done.add(key)
            touched.update(key[1])
    for key in sorted(set(groups) - done):
        node = node_for(key)
        acc = node if acc is None else out.join(acc, node)
        done.add(key)

    tree = ContractionTree(tn.n_tensors, out.merges)
    return tree.attach_stats(leg_sets(tn.indices))
