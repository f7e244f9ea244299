"""Contraction-order search.

Several candidate generators feed a best-of selection: two deterministic
sweeps (time order, which can never do worse than a statevector pass over
the circuit, and wire-major order, which is the right shape for chain-like
circuits), randomized greedy pairing that merges the neighbours sharing
the most live legs, and simulated-annealing refinement of the greedy trees
by subtree rotations.  The greedy walks neighbours in ascending id order,
so each tie-break draw goes to the same pair on every run.  Budgets are
spent as independently seeded trials, so a larger budget only ever
improves the returned tree.
"""
from __future__ import annotations

import functools
import heapq
import math
import operator
from collections import defaultdict

import numpy as np

from .network import TensorNetwork
from .tree import (ContractionTree, leg_sets, live_mask, log2_size, mask_indices,
                   walk_merges)

METHODS = ("greedy", "annealed")


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


def _time_order(tn: TensorNetwork) -> list[int]:
    return list(range(tn.n_tensors))


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


class _TreeState:
    """Mutable rooted tree with incremental leg and cost bookkeeping."""

    def __init__(self, n_leaves, merges, legs, live):
        self.n_leaves = n_leaves
        self.live = live
        self.children: dict[int, tuple[int, int]] = {}
        self.legs: dict[int, int] = {t: legs[t] for t in range(n_leaves)}
        self.cost: dict[int, float] = {}
        nxt = n_leaves
        for a, b in merges:
            self.children[nxt] = (a, b)
            self._refresh(nxt)
            nxt += 1
        self.root = nxt - 1
        self.total = sum(self.cost.values())

    def _refresh(self, p):
        a, b = self.children[p]
        la, lb = self.legs[a], self.legs[b]
        self.legs[p] = la ^ lb
        self.cost[p] = 8.0 * 2.0 ** (log2_size(la ^ lb, self.live)
                                     + log2_size(la & lb, self.live))
    def rotate(self, p, rng, temperature) -> bool:
        a, b = self.children[p]
        inner = [c for c in (a, b) if c in self.children]
        if not inner:
            return False
        x = inner[rng.integers(len(inner))]
        other = b if x == a else a
        c, d = self.children[x]
        keep, move = (c, d) if rng.random() < 0.5 else (d, c)
        # (keep . move) . other  ->  keep . (move . other)
        old = self.cost[p] + self.cost[x]
        old_legs = self.legs[x]
        self.children[x] = (move, other)
        self.children[p] = (keep, x)
        self._refresh(x)
        self._refresh(p)
        delta = self.cost[p] + self.cost[x] - old
        if delta <= 0 or rng.random() < math.exp(-delta / (temperature * old + 1e-300)):
            self.total += delta
            return True
        self.children[x] = (c, d)
        self.children[p] = (a, b)
        self.legs[x] = old_legs
        self._refresh(x)
        self._refresh(p)
        self.total += self.cost[p] + self.cost[x] - old
        return False

    def merge_list(self) -> list[tuple[int, int]]:
        merges = []
        out_id: dict[int, int] = {}
        stack = [(self.root, False)]
        while stack:
            nodeid, ready = stack.pop()
            if nodeid < self.n_leaves:
                continue
            if ready:
                a, b = self.children[nodeid]
                ia = a if a < self.n_leaves else out_id[a]
                ib = b if b < self.n_leaves else out_id[b]
                merges.append((ia, ib))
                out_id[nodeid] = self.n_leaves + len(merges) - 1
            else:
                stack.append((nodeid, True))
                for ch in self.children[nodeid]:
                    stack.append((ch, False))
        return merges


def _anneal_merges(n_leaves, merges, legs, live, rng,
                   sweeps: int = 24) -> list[tuple[int, int]]:
    state = _TreeState(n_leaves, merges, legs, live)
    internal = [p for p in state.children]
    best = state.merge_list()
    best_total = state.total
    temperature = 1.0
    for _ in range(sweeps):
        for _ in range(len(internal)):
            p = internal[rng.integers(len(internal))]
            state.rotate(p, rng, temperature)
        if state.total < best_total:
            best_total = state.total
            best = state.merge_list()
        temperature *= 0.98
    return best


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


def optimize_order(tn: TensorNetwork, budget: int = 8, method: str = "greedy",
                   seed=0, sliced: tuple[int, ...] = ()) -> ContractionTree:
    """Search for a cheap contraction order.

    budget counts randomized trials; the deterministic sweep orders are
    always evaluated as well, so the result never costs more than a
    statevector-style pass.  Split networks also search gate-level orders
    with halves pre-merged, so splitting gates cannot hurt beyond the
    pre-merge cost itself.  With sliced indices given, the search prices
    them at dimension 1 and the returned stats describe one slice task.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    t_count = tn.n_tensors
    legs = leg_sets(tn.indices)
    if t_count == 0:
        tree = ContractionTree(0, [], sliced=tuple(sliced))
        return tree.attach_stats(legs, tn.dims)
    live = live_mask(tn.dims, sliced)

    def priced(merges):
        return walk_merges(merges, legs, live).flops

    groups = list(_gate_groups(tn).values())
    split = len(groups) < t_count  # gates cut in two halves
    qlegs = [functools.reduce(operator.xor, (legs[t] for t in g)) for g in groups]
    candidates = [_chain(_time_order(tn), t_count),
                  _chain(_wire_major_order(tn), t_count)]
    if split:
        candidates.append(_expand_groups(_chain(range(len(groups)), len(groups)),
                                         groups, t_count))
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    for t, child in enumerate(ss.spawn(max(budget, 0))):
        rng = np.random.default_rng(child)
        noise = 0.0 if t == 0 else float(rng.choice([0.2, 0.5, 1.0]))
        merges = _greedy_merges(legs, live, rng, noise)
        if method == "annealed":
            merges = _anneal_merges(t_count, merges, legs, live, rng)
        candidates.append(merges)
        if split:
            qrng = np.random.default_rng(child)
            qmerges = _greedy_merges(qlegs, live, qrng, noise)
            candidates.append(_expand_groups(qmerges, groups, t_count))

    best = min(candidates, key=priced)
    tree = ContractionTree(t_count, best, sliced=tuple(sliced))
    return tree.attach_stats(legs, tn.dims)


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
        return ContractionTree(0, []).attach_stats([], tn.dims)
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
    return tree.attach_stats(leg_sets(tn.indices), tn.dims)
