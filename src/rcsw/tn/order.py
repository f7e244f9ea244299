"""Contraction-order search.

Two builders make every candidate of a best-of selection.  ``_sweep``
merges each group's tensors left to right and then chains the group
nodes: the gate-level time sweep, which can never do worse than a
statevector pass over the circuit, the wire-major sweep (one tensor per
group), which is the right shape for chain-like circuits, and
``light_cone_order`` (gates in cone order).  ``_greedy_merges`` chains
each group and then pairs the group nodes sharing the most live legs; its
leaf trial is the case where every group holds one tensor, and on a split
network each trial runs again over whole gates.  The greedy walks
neighbours in ascending id order, so each tie-break draw goes to the same
pair on every run.  Budgets are spent as independently seeded trials, so
a larger budget only ever improves the returned tree.

The search is branch and bound over whole trials (the cut of
opt_einsum's ``branch`` optimizer, Smith & Gray, JOSS 3, 753 (2018)):
the sweeps are priced first, and each greedy trial is abandoned once its
running FLOPs reach the fewest so far, so a trial that finishes is the new
best and only the winner is walked again.  Merge terms are positive and
each trial draws from its own generator, so an abandoned trial could not
have won and the others draw as they would without the bound; the
returned tree is the one a search that finishes every trial returns.
"""
from __future__ import annotations

import heapq
from collections import defaultdict

import numpy as np

from .network import TensorNetwork
from .tree import (ContractionTree, index_mask, leg_sets, mask_indices, merge_flops, price,
                   walk_merges)


def _sweep(n_leaves: int, groups) -> list[tuple[int, int]]:
    """Merge each group's tensors left to right, then chain the group nodes."""
    merges: list[tuple[int, int]] = []

    def chain(nodes) -> int:
        cur = nodes[0]
        for t in nodes[1:]:
            merges.append((cur, t))
            cur = n_leaves + len(merges) - 1
        return cur

    chain([chain(g) for g in groups])
    return merges


def _wire_major_order(tn: TensorNetwork) -> list[int]:
    def key(t):
        pos, (qa, qb), half = tn.provenance[t]
        wire = qa if half == "a" else qb if half == "b" else min(qa, qb)
        return (wire, pos, half)

    return sorted(range(tn.n_tensors), key=key)


def _greedy_merges(legs: list[int], groups, live: int, rng, noise: float,
                   bound: int | None) -> tuple[list[tuple[int, int]], int] | None:
    """Chain each group's tensors, then merge the neighbour pair of group
    nodes sharing the most live legs, repeatedly.

    Returns the merges over the leaves and their FLOPs.  Each merge, the
    group chains' included, adds its ``merge_flops``, the term
    ``walk_merges`` sums, to a running total.  With a ``bound`` given, the
    trial is abandoned and None returned as soon as that total reaches it;
    every term is positive, so a finished tree would cost at least that
    much.  With every group a single tensor this is the greedy over the
    leaves.  With every group two tensors, group k's node has id T + k, so
    the ids keep the group order and every draw goes to the pair it would
    go to over the groups numbered 0, 1, ...

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
    merges: list[tuple[int, int]] = []
    flops = 0
    node: dict[int, int] = {}
    for g in groups:
        a, la = g[0], legs[g[0]]
        for b in g[1:]:
            flops += merge_flops(la, legs[b], live)
            if bound is not None and flops >= bound:
                return None
            merges.append((a, b))
            a, la = n_leaves + len(merges) - 1, la ^ legs[b]
        node[a] = la
    nbrs: dict[int, set[int]] = defaultdict(set)
    owner: dict[int, list[int]] = defaultdict(list)
    for t, ls in node.items():
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
        flops += merge_flops(la, lb, live)
        if bound is not None and flops >= bound:
            return None
        w = n_leaves + len(merges)
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
    return merges, flops


def _gate_groups(tn: TensorNetwork) -> dict[tuple, list[int]]:
    """Tensors of each gate, keyed (two-qubit layer position, pair) in time order."""
    groups: dict[tuple, list[int]] = defaultdict(list)
    for t, (pos, pair, _half) in enumerate(tn.provenance):
        groups[(pos, pair)].append(t)
    return dict(sorted(groups.items()))


def optimize_order(tn: TensorNetwork, budget: int = 8, seed=0,
                   sliced: tuple[int, ...] = ()) -> ContractionTree:
    """Search for a cheap contraction order.

    budget counts randomized trials; the deterministic sweep orders are
    always evaluated as well, so the result never costs more than a
    statevector-style pass.  The time sweep runs over whole gates.  Each
    trial runs the greedy over the leaves (every group one tensor) and, on
    a split network, again over whole gates (each gate's halves chained
    first), so splitting gates cannot hurt beyond the cost of joining the
    halves.  With sliced indices given, the search fixes each to one value
    and the returned stats describe one slice task.

    The first candidate with the fewest FLOPs is returned, so a later one
    wins only when strictly cheaper.  Each greedy trial is therefore
    bounded by the fewest FLOPs so far and abandoned on reaching them; a
    trial that finishes is the new best, and only the final winner is
    walked again for its stats.  The tree, slice set and stats are those
    that finishing every trial would return.
    """
    t_count = tn.n_tensors
    legs = leg_sets(tn.indices)
    if t_count == 0:
        return price([], legs, sliced)
    cut = index_mask(sliced)
    live = ~cut

    groups = list(_gate_groups(tn).values())
    trials = [[[t] for t in range(t_count)]]
    if len(groups) < t_count:  # gates cut in two halves
        trials.append(groups)
    sweeps = (_sweep(t_count, groups),
              _sweep(t_count, [[t] for t in _wire_major_order(tn)]))
    stats, merges = min(((walk_merges(m, legs, cut), m) for m in sweeps),
                        key=lambda pair: pair[0].flops)

    flops = stats.flops
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    for t, child in enumerate(ss.spawn(max(budget, 0))):
        rng = np.random.default_rng(child)
        noise = 0.0 if t == 0 else float(rng.choice([0.2, 0.5, 1.0]))
        for k, trial in enumerate(trials):
            # the gate trial draws from a fresh generator of the same child
            found = _greedy_merges(legs, trial, live, rng if k == 0
                                   else np.random.default_rng(child), noise, flops)
            if found is not None:
                merges, flops = found
    if flops < stats.flops:
        stats = walk_merges(merges, legs, cut)
    return ContractionTree(merges, tuple(sliced), stats)


def light_cone_order(tn: TensorNetwork) -> ContractionTree:
    """Constructive order with a proven cap on the largest intermediate.

    The gates of the network's last two-qubit layer (position
    tn.depth - 1) are the output pairs.  They are retired one at a time:
    for each, the not-yet-contracted part of its backward cone is merged in
    time order.  Each cone touches at most 2^depth wires, and a retired
    pair closes both its wires, so the open wire count never exceeds
    n(1 - 2^{1-depth}) + 2, inside the n(1 - 2^{-depth}) + 2 budget.
    ``_sweep`` merges the gates in that order, each gate's split halves
    joined first so transients stay within the bound.
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

    done: set[tuple] = set()
    touched: set[int] = set()
    keys: list[tuple] = []
    remaining = set(finals)
    while remaining:
        if not keys:
            pick = min(remaining)
        else:
            pick = max(remaining,
                       key=lambda k: (len({q for g in cone(k) for q in g[1]}
                                          & touched), (-k[0], k[1])))
        remaining.discard(pick)
        new = sorted(cone(pick) - done)
        keys += new
        done.update(new)
        touched.update(q for key in new for q in key[1])
    keys += sorted(set(groups) - done)
    return price(_sweep(tn.n_tensors, [groups[k] for k in keys]), leg_sets(tn.indices))
