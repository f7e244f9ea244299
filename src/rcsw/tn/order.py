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

The search is branch and bound over whole trials (the cut of
opt_einsum's ``branch`` optimizer, Smith & Gray, JOSS 3, 753 (2018)):
the sweeps are priced first, and each greedy trial is abandoned once its
running FLOPs reach the fewest of any candidate finished before it.
Merge terms are positive and each trial draws from its own generator, so
an abandoned trial could not have won and the others draw as they would
without the bound; the returned tree is the one a search that finishes
every trial returns.
"""
from __future__ import annotations

import functools
import heapq
import operator
from collections import defaultdict

import numpy as np

from .network import TensorNetwork
from .tree import ContractionTree, index_mask, leg_sets, mask_indices, price, walk_merges


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


def _wire_major_order(tn: TensorNetwork) -> list[int]:
    def key(t):
        pos, (qa, qb), half = tn.provenance[t]
        wire = qa if half == "a" else qb if half == "b" else min(qa, qb)
        return (wire, pos, half)

    return sorted(range(tn.n_tensors), key=key)


def _greedy_merges(legs: list[int], live: int, rng, noise: float,
                   bound: int | None) -> list[tuple[int, int]] | None:
    """Merge the neighbour pair sharing the most live legs, repeatedly.

    Each merge adds its FLOPs, ``8 << ((la | lb) & live).bit_count()`` as
    in ``walk_merges``, to a running total.  With a ``bound`` given, the
    trial is abandoned and None returned as soon as that total reaches it;
    every term is positive, so a finished tree would cost at least that
    much.

    The score is -2 times the number of live legs a and b share, optionally
    plus Gaussian noise: it ignores how large a and b are.  It is not the
    linear-size score of Gray & Kourtis (arXiv:2002.01935),
    size(a ^ b) - size(a) - size(b) in entries; that score is an open
    roadmap item.

    Each heap entry carries a uniform tie-break draw.  Pairs are scored in
    a fixed order: the initial pairs by ascending ids, then at each merge
    step the new node against its neighbours in ascending id order.  A
    noisy trial draws each pair's normal and then its uniform, one scalar
    at a time; a noise-free trial draws only uniforms, one
    ``rng.random(k)`` vector for the k pairs of the initial heap or of a
    merge step, which gives the same doubles as k scalar draws.
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

    def entries(pairs):
        """Heap entries (score, tie-break, a, b) in pair order."""
        if noise:
            return [(-2 * (node[a] & node[b] & live).bit_count()
                     + noise * rng.standard_normal(), rng.random(), a, b)
                    for a, b in pairs]
        ties = rng.random(len(pairs)).tolist()
        return [(-2 * (node[a] & node[b] & live).bit_count() + 0.0, u, a, b)
                for (a, b), u in zip(pairs, ties)]

    # distinct entries pop in one order however the heap was built
    heap = entries([(a, b) for a in node for b in sorted(nbrs[a]) if a < b])
    heapq.heapify(heap)

    merges = []
    nxt = n_leaves
    flops = 0
    while len(node) > 1:
        pick = None
        while heap:
            _, _, a, b = heapq.heappop(heap)
            if a in node and b in node:
                pick = (a, b)
                break
        if pick is None:
            # disconnected parts: outer-product the survivors in id order
            a, b = sorted(node)[:2]
        la, lb = node.pop(a), node.pop(b)
        flops += 8 << ((la | lb) & live).bit_count()
        if bound is not None and flops >= bound:
            return None
        w = nxt
        nxt += 1
        merges.append((a, b))
        node[w] = la ^ lb
        # neighbour sets are symmetric and hold only live nodes
        nbrs[w] = nw = nbrs.pop(a, set()) | nbrs.pop(b, set())
        nw -= {a, b}
        xs = sorted(nw)
        for x in xs:
            nx = nbrs[x]
            nx.discard(a)
            nx.discard(b)
            nx.add(w)
        if xs:
            for entry in entries([(w, x) for x in xs]):
                heapq.heappush(heap, entry)
    return merges


def _gate_groups(tn: TensorNetwork) -> dict[tuple, list[int]]:
    """Tensors of each gate, keyed (two-qubit layer position, pair) in time order."""
    groups: dict[tuple, list[int]] = defaultdict(list)
    for t, (pos, pair, _half) in enumerate(tn.provenance):
        groups[(pos, pair)].append(t)
    return dict(sorted(groups.items()))


def _chain_flops(groups, legs: list[int], live: int) -> int:
    """FLOPs of merging each group's tensors left to right, as ``_MergeList.chain``."""
    flops = 0
    for g in groups:
        acc = legs[g[0]]
        for t in g[1:]:
            flops += 8 << ((acc | legs[t]) & live).bit_count()
            acc ^= legs[t]
    return flops


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

    The first candidate with the fewest FLOPs is returned, so a later one
    wins only when strictly cheaper.  Each greedy trial is therefore
    bounded by the fewest FLOPs among the candidates finished before it
    (less the fixed cost of pre-merging the halves, for a trial over whole
    gates) and abandoned on reaching it; the tree, slice set and stats
    are those that finishing every trial would return.
    """
    t_count = tn.n_tensors
    legs = leg_sets(tn.indices)
    if t_count == 0:
        return price([], legs, sliced)
    cut = index_mask(sliced)
    live = ~cut

    groups = list(_gate_groups(tn).values())
    split = len(groups) < t_count  # gates cut in two halves
    qlegs = [functools.reduce(operator.xor, (legs[t] for t in g)) for g in groups]
    time_sweep = _MergeList(t_count)
    time_sweep.chain([time_sweep.chain(g) for g in groups])
    wire_major = _MergeList(t_count)
    wire_major.chain(_wire_major_order(tn))
    premerge = _chain_flops(groups, legs, live) if split else 0
    merges = time_sweep.merges
    stats = walk_merges(merges, legs, cut)

    def offer(found):
        nonlocal merges, stats
        if found is not None:
            walk = walk_merges(found, legs, cut)
            if walk.flops < stats.flops:
                merges, stats = found, walk

    offer(wire_major.merges)
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    for t, child in enumerate(ss.spawn(max(budget, 0))):
        rng = np.random.default_rng(child)
        noise = 0.0 if t == 0 else float(rng.choice([0.2, 0.5, 1.0]))
        offer(_greedy_merges(legs, live, rng, noise, stats.flops))
        if split:
            qrng = np.random.default_rng(child)
            qmerges = _greedy_merges(qlegs, live, qrng, noise, stats.flops - premerge)
            if qmerges is not None:
                offer(_expand_groups(qmerges, groups, t_count))
    return ContractionTree(merges, tuple(sliced), stats)


def light_cone_order(tn: TensorNetwork) -> ContractionTree:
    """Constructive order with a proven cap on the largest intermediate.

    The gates of the network's last two-qubit layer (position
    tn.depth - 1) are the output pairs.  They are retired one at a time:
    for each, the not-yet-contracted part of its backward cone is merged in
    time order.  Each cone touches at most 2^depth wires, and a retired
    pair closes both its wires, so the open wire count never exceeds
    n(1 - 2^{1-depth}) + 2, inside the n(1 - 2^{-depth}) + 2 budget.
    Split-gate halves are pre-merged so transients stay within the bound.
    """
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

    finals = [k for k in sorted(groups) if k[0] == tn.depth - 1]

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

    return price(out.merges, leg_sets(tn.indices))
