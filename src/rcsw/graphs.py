"""Random regular graphs, edge colorings, grid patches, and partition helpers.

A degree-d regular graph with a proper d-edge-coloring fixes the two-qubit
layer structure of a random-geometry circuit: each color class is a set of
disjoint edges and becomes one layer of parallel two-qubit gates.  A grid
patch for planar circuits is the same ``ColoredGraph``, with four classes:
the lattice's edge directions split by parity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RejectSignal

Edge = tuple[int, int]
_COLOR_ATTEMPTS = 64  # matching peels tried before edge_color rejects a graph


def _canonical_edges(edges) -> tuple[Edge, ...]:
    out = sorted((min(u, v), max(u, v)) for u, v in edges)
    return tuple((int(u), int(v)) for u, v in out)


@dataclass(frozen=True)
class RegularGraph:
    """Simple d-regular graph on nodes 0..n-1 with canonically sorted edges."""

    n: int
    degree: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", _canonical_edges(self.edges))
        counts = [0] * self.n
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            counts[u] += 1
            counts[v] += 1
        if any(c != self.degree for c in counts):
            raise ValueError("node degrees do not all equal the stated degree")


@dataclass(frozen=True)
class ColoredGraph:
    """Graph on nodes 0..n-1 with a proper coloring of its edges.

    Each of the n_colors color classes is a set of disjoint edges.  A
    colored d-regular graph has n_colors = d; a grid patch has the four
    direction classes.
    """

    n: int
    edges: tuple[Edge, ...]
    colors: tuple[int, ...]  # aligned with edges
    n_colors: int

    def __post_init__(self):
        if len(self.colors) != len(self.edges):
            raise ValueError("colors must align one-to-one with edges")
        touched: set[tuple[int, int]] = set()
        for (u, v), c in zip(self.edges, self.colors):
            if not 0 <= c < self.n_colors:
                raise ValueError(f"color {c} out of range")
            for node in (u, v):
                if (c, node) in touched:
                    raise ValueError("coloring is not proper")
                touched.add((c, node))

    def layers(self) -> list[list[Edge]]:
        """Edges grouped by color, in edge order; each group is disjoint."""
        out: list[list[Edge]] = [[] for _ in range(self.n_colors)]
        for e, c in zip(self.edges, self.colors):
            out[c].append(e)
        return out


def sample_regular_graph(n: int, d: int, seed) -> RegularGraph:
    """Sample a uniform-ish simple d-regular graph via stub pairing.

    Stubs are shuffled and paired; pairs that would form loops or parallel
    edges are thrown back and re-paired against the remaining pool.  If the
    pool reaches a dead end the whole attempt restarts.  Deterministic for a
    fixed seed.
    """
    if d < 1 or d >= n:
        raise ValueError(f"degree {d} invalid for {n} nodes")
    if (n * d) % 2:
        raise ValueError(f"n*d = {n * d} is odd")
    rng = np.random.default_rng(seed)
    while True:
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return RegularGraph(n, d, tuple(edges))


def _pairing_attempt(n: int, d: int, rng: np.random.Generator):
    edges: set[Edge] = set()
    stubs = list(range(n)) * d
    while stubs:
        rng.shuffle(stubs)
        leftover = []
        for i in range(0, len(stubs) - 1, 2):
            u, v = stubs[i], stubs[i + 1]
            if u > v:
                u, v = v, u
            if u == v or (u, v) in edges:
                leftover.extend((u, v))
            else:
                edges.add((u, v))
        if len(leftover) == len(stubs):
            # no pair was placed this round; check whether any placement is possible
            if not _has_suitable_pair(leftover, edges):
                return None
        stubs = leftover
    return edges


def _has_suitable_pair(stubs, edges) -> bool:
    nodes = sorted(set(stubs))
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if (u, v) not in edges:
                return True
    return False


def _require_even(n: int, d: int):
    if n % 2:
        raise ValueError(
            f"n = {n} is odd: a {d}-regular graph on an odd number of nodes has "
            f"no perfect matching, so it has no proper {d}-edge-coloring")


def edge_color(g: RegularGraph, seed=0) -> ColoredGraph:
    """Properly color g's edges with exactly g.degree colors.

    Peels one perfect matching per color.  Random edge weights steer the
    matching search so retries explore different decompositions; if all
    _COLOR_ATTEMPTS attempts stall (the graph may have chromatic index
    d+1) RejectSignal is raised and the caller should resample the graph.
    An odd node count raises ValueError before any attempt.
    """
    _require_even(g.n, g.degree)
    rng = np.random.default_rng(seed)
    eu = [u for u, _ in g.edges]
    ev = [v for _, v in g.edges]
    for _ in range(_COLOR_ATTEMPTS):
        colors = _try_peel_matchings(g.n, g.degree, eu, ev, rng)
        if colors is not None:
            return ColoredGraph(g.n, g.edges, tuple(colors), g.degree)
    raise RejectSignal(
        f"no proper {g.degree}-edge-coloring found in {_COLOR_ATTEMPTS} attempts"
    )


def _try_peel_matchings(n: int, d: int, eu: list[int], ev: list[int],
                        rng: np.random.Generator):
    # One draw per remaining edge, in edge order.  Each draw is exactly
    # k * 2**-53 and the matcher gets the integer k, so it finds the true
    # optimum, which is unique almost surely.  After c perfect matchings the
    # rest is (d - c)-regular, so every node still has an edge.
    remaining = list(range(len(eu)))
    colors = [-1] * len(eu)
    for color in range(d):
        weights = (rng.random(len(remaining)) * 2.0 ** 53).astype(np.int64).tolist()
        matched = _max_weight_matching(
            n, [eu[e] for e in remaining], [ev[e] for e in remaining], weights)
        if 2 * len(matched) < n:
            return None  # stalled; remaining graph has no perfect matching
        for i in matched:
            colors[remaining[i]] = color
        taken = set(matched)
        remaining = [e for i, e in enumerate(remaining) if i not in taken]
    return colors


def _max_weight_matching(n: int, eu: list[int], ev: list[int],
                         w: list[int]) -> list[int]:
    """Maximum-weight matching among the maximum-cardinality matchings.

    Edmonds' primal-dual blossom method (Galil, ACM Comput. Surv. 18, 23
    (1986)) over nodes 0..n-1 and edges k = (eu[k], ev[k]) with integer
    weights w[k] >= 0.  Vertex duals are kept doubled and the slack of edge
    k is dual[u] + dual[v] - 2 w[k], so every dual update is an exact
    integer.  Returns the indices of the matched edges, sorted.

    An edge between two top-level blossoms counts as tight when its slack
    is <= 0, checked as it is scanned.  Each dual step is found by one pass
    over the edges of every S-vertex (delta2 to a free blossom, delta3 to
    another S-blossom) and over the T-blossoms (delta4), with no cached
    least-slack edges: O(n^2 m) in all rather than O(n^3), which is quick
    enough for graphs of a few dozen nodes.

    Edge k has endpoints 2k (eu[k]) and 2k+1 (ev[k]); ``p ^ 1`` is the other
    end.  Ids 0..n-1 are vertices (trivial blossoms) and n..2n-1 are
    non-trivial blossoms.
    """
    m = len(eu)
    if m == 0:
        return []
    endpoint = [0] * (2 * m)
    endpoint[0::2] = eu
    endpoint[1::2] = ev
    w2 = [2 * x for x in w]
    # nbrs[v]: (edge, neighbour, v's endpoint) for each edge at v
    nbrs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for k in range(m):
        nbrs[eu[k]].append((k, ev[k], 2 * k))
        nbrs[ev[k]].append((k, eu[k], 2 * k + 1))
    # mate[v]: remote endpoint of v's matched edge, or -1
    mate = [-1] * n
    # label[b]: 0 free, 1 S, 2 T (5 marks a breadcrumb in scan_blossom);
    # for a vertex inside a T-blossom, 2 iff reached from outside it
    label = [0] * (2 * n)
    # labelend[b]: remote endpoint of the edge b got its label through
    labelend = [-1] * (2 * n)
    inblossom = list(range(n))  # top-level blossom of each vertex
    blossomparent = [-1] * (2 * n)
    # blossomchilds[b]: sub-blossoms from the base round the cycle;
    # blossomendps[b][i]: endpoint in child i of the edge to child i+1
    blossomchilds: list = [None] * (2 * n)
    blossomendps: list = [None] * (2 * n)
    blossombase = list(range(n)) + [-1] * n
    unused = list(range(n, 2 * n))
    # dualvar[v] = 2 u(v) for vertices; dualvar[b] = z(b) for blossoms
    dualvar = [max(w)] * n + [0] * n
    queue: list[int] = []

    def leaves(b):
        if b < n:
            return [b]
        out, stack = [], [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(blossomchilds[t])
        return out

    def assign_label(v, t, p):
        # label the top-level blossom of v with t, reached through endpoint p
        while True:
            b = inblossom[v]
            label[v] = label[b] = t
            labelend[v] = labelend[b] = p
            if t == 1:
                queue.extend(leaves(b))
                return
            # a T-blossom's base mate becomes S
            pm = mate[blossombase[b]]
            v, t, p = endpoint[pm], 1, pm ^ 1

    def scan_blossom(v, u):
        # trace back from v and u alternately: the base of a new blossom,
        # or -1 for an augmenting path
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1  # reached a single vertex
            else:
                v = endpoint[labelend[inblossom[endpoint[labelend[b]]]]]
            if u != -1:
                v, u = u, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, k):
        v, u = endpoint[2 * k], endpoint[2 * k + 1]
        bb, bv, bu = inblossom[base], inblossom[v], inblossom[u]
        b = unused.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path, endps = [], []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            bv = inblossom[endpoint[labelend[bv]]]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bu != bb:
            blossomparent[bu] = b
            path.append(bu)
            endps.append(labelend[bu] ^ 1)
            bu = inblossom[endpoint[labelend[bu]]]
        blossomchilds[b] = path
        blossomendps[b] = endps
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for x in leaves(b):
            if label[inblossom[x]] == 2:
                queue.append(x)  # a T-vertex turns S inside the new blossom
            inblossom[x] = b

    def expand_blossom(b, endstage):
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for x in leaves(s):
                    inblossom[x] = s
        if not endstage and label[b] == 2:
            # relabel the sub-blossoms on the even path from the entry
            # child to the base; the odd side keeps only reached vertices
            childs, endps = blossomchilds[b], blossomendps[b]
            entry = inblossom[endpoint[labelend[b] ^ 1]]
            j = childs.index(entry)
            if j & 1:
                j -= len(childs)
                jstep, trick = 1, 0
            else:
                jstep, trick = -1, 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[endpoint[endps[j - trick] ^ trick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                j += jstep
                p = endps[j - trick] ^ trick
                j += jstep
            bv = childs[j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            j += jstep
            while childs[j] != entry:
                bv = childs[j]
                j += jstep
                if label[bv] == 1:
                    continue  # labelled S through a neighbour meanwhile
                reached = [x for x in leaves(bv) if label[x] != 0]
                if reached:
                    x = reached[0]
                    label[x] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(x, 2, labelend[x])
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        unused.append(b)

    def augment_blossom(b, v):
        # swap matched and unmatched edges on the path from v to b's base
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
        childs, endps = blossomchilds[b], blossomendps[b]
        # go round the even-length side to the base; going backwards, the
        # edge to child j is endps[j - 1] read from its other end
        i = j = childs.index(t)
        if i & 1:
            j -= len(childs)
            jstep, trick = 1, 0
        else:
            jstep, trick = -1, 1
        while j != 0:
            j += jstep
            t = childs[j]
            p = endps[j - trick] ^ trick
            if t >= n:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = childs[j]
            if t >= n:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = childs[i:] + childs[:i]
        blossomendps[b] = endps[i:] + endps[:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]

    def augment_matching(k):
        for s, p in ((endpoint[2 * k], 2 * k + 1), (endpoint[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # reached a single vertex
                bt = inblossom[endpoint[labelend[bs]]]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    for _ in range(n):
        # a stage: grow alternating trees from every single vertex until
        # one augmentation, adjusting duals whenever the trees are stuck
        label[:] = [0] * (2 * n)
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                dv = dualvar[v]
                for k, u, pr in nbrs[v]:
                    bu = inblossom[u]
                    if bv == bu or dv + dualvar[u] - w2[k] > 0:
                        continue  # inside one blossom, or not tight
                    if label[bu] == 0:
                        assign_label(u, 2, pr)
                    elif label[bu] == 1:
                        base = scan_blossom(v, u)
                        if base >= 0:
                            add_blossom(base, k)
                            bv = inblossom[v]
                        else:
                            augment_matching(k)
                            augmented = True
                            break
                    elif label[u] == 0:
                        label[u] = 2  # reached inside a T-blossom
                        labelend[u] = pr
            if augmented:
                break
            # no augmenting path over tight edges: the least dual change
            # that tightens an edge from an S-vertex to a free blossom
            # (delta2, full slack) or to another S-blossom (delta3, half
            # the slack, which is even), or that empties a T-blossom dual
            # (delta4); with none left, the matching is optimal
            tops = set(inblossom)
            lab = [label[b] for b in inblossom]
            delta, target = -1, -1
            for v in range(n):
                if lab[v] != 1:
                    continue
                bv = inblossom[v]
                dv = dualvar[v]
                for k, u, _ in nbrs[v]:
                    if lab[u] == 0:
                        d = dv + dualvar[u] - w2[k]
                    elif lab[u] == 1 and inblossom[u] != bv:
                        d = (dv + dualvar[u] - w2[k]) // 2
                    else:
                        continue
                    if delta == -1 or d < delta:
                        delta, target = d, v
            for b in tops:
                if b >= n and label[b] == 2 and (delta == -1 or dualvar[b] < delta):
                    delta, target = dualvar[b], b
            if delta == -1:
                break
            dualvar[:n] = [x - delta if lv == 1 else x + delta if lv == 2 else x
                           for x, lv in zip(dualvar, lab)]
            for b in tops:
                if b >= n:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta
            if target >= n:
                expand_blossom(target, False)  # delta4
            else:
                queue.append(target)  # rescans the S-vertex of the tight edge
        if not augmented:
            break
        for b in range(n, 2 * n):
            if (blossomparent[b] == -1 and blossombase[b] >= 0 and label[b] == 1
                    and dualvar[b] == 0):
                expand_blossom(b, True)
    return sorted(mate[v] >> 1 for v in range(n) if mate[v] != -1 and mate[v] & 1)


def sample_colored_graph(n: int, d: int, seed) -> ColoredGraph:
    """Sample graphs until one admits a proper d-coloring; returns the coloring.

    An odd n raises ValueError before any graph is drawn.
    """
    _require_even(n, d)
    base = np.random.SeedSequence(seed)
    for _ in range(256):
        # one child at a time: the same children as spawn(256), without
        # building the 255 that a first success never uses
        g_seed, c_seed = base.spawn(1)[0].spawn(2)
        g = sample_regular_graph(n, d, g_seed)
        try:
            return edge_color(g, seed=c_seed)
        except RejectSignal:
            continue
    raise RejectSignal(f"no colorable {d}-regular graph on {n} nodes after many tries")


def _grid_sites(n: int, offset: tuple[float, float], rotation: float
                ) -> list[tuple[int, int]]:
    """Lattice points of the n sites nearest the origin, nearest first."""
    ox, oy = float(offset[0]), float(offset[1])
    c, s = math.cos(rotation), math.sin(rotation)
    radius = int(math.ceil(math.sqrt(n / math.pi))) + 3
    candidates = []
    for ix in range(-radius, radius + 1):
        for iy in range(-radius, radius + 1):
            # plaquette-centered anchor: generic offsets make ties measure-zero
            px = ix - 0.5 + ox
            py = iy - 0.5 + oy
            tx = c * px - s * py
            ty = s * px + c * py
            candidates.append((tx * tx + ty * ty, ix, iy))
    candidates.sort()
    return [(ix, iy) for _, ix, iy in candidates[:n]]


def make_grid(n: int, offset: tuple[float, float], rotation: float) -> ColoredGraph:
    """Patch of the unit square lattice selected around the origin.

    The lattice is shifted so the origin sits at a plaquette center before
    the offset and rotation are applied, then the n transformed sites
    closest to the origin are kept.  Colors 0..3 are the four direction
    classes: horizontal edges split by the parity of the left endpoint's
    column, vertical edges by the parity of the lower endpoint's row.
    Edges stay in site order, which fixes the gate order within a layer.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    index = {p: i for i, p in enumerate(_grid_sites(n, offset, rotation))}
    edges = []
    colors = []
    for (ix, iy), i in index.items():
        right = index.get((ix + 1, iy))
        if right is not None:
            edges.append((min(i, right), max(i, right)))
            colors.append(0 if ix % 2 == 0 else 1)
        up = index.get((ix, iy + 1))
        if up is not None:
            edges.append((min(i, up), max(i, up)))
            colors.append(2 if iy % 2 == 0 else 3)
    return ColoredGraph(n, tuple(edges), tuple(colors), 4)


def sample_grid(n: int, seed) -> ColoredGraph:
    """Random offset in the unit cell and rotation in [0, pi/2)."""
    rng = np.random.default_rng(seed)
    offset = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
    rotation = float(rng.uniform(0.0, math.pi / 2.0))
    return make_grid(n, offset, rotation)


def partition_nodes(n: int, edges, b: int, seed=0) -> list[list[int]]:
    """Greedy balanced partition of nodes 0..n-1 minimizing crossing edge count.

    Edges may repeat; multiplicity acts as weight.  Starts from sequential
    chunks and hill-climbs with pairwise swaps, so the result never cuts more
    than the sequential chunking does.
    """
    if not 1 <= b <= n:
        raise ValueError(f"block count {b} invalid for {n} nodes")
    rng = np.random.default_rng(seed)
    base, rem = divmod(n, b)
    assign = np.empty(n, dtype=np.int64)
    pos = 0
    for j in range(b):
        size = base + (1 if j < rem else 0)
        assign[pos:pos + size] = j
        pos += size

    weight: dict[Edge, int] = {}
    for u, v in edges:
        key = (min(u, v), max(u, v))
        weight[key] = weight.get(key, 0) + 1
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in weight.items():
        adj[u].append((v, w))
        adj[v].append((u, w))

    def gain(u: int, target: int) -> int:
        # cut reduction if u alone moved to block `target`
        g_same = sum(w for v, w in adj[u] if assign[v] == assign[u])
        g_tgt = sum(w for v, w in adj[u] if assign[v] == target)
        return g_tgt - g_same

    improved = True
    sweeps = 0
    while improved and sweeps < 60:
        improved = False
        sweeps += 1
        order = rng.permutation(n)
        for u in order:
            bu = assign[u]
            for v in rng.permutation(n):
                bv = assign[v]
                if bv == bu:
                    continue
                delta = gain(u, bv) + gain(v, bu)
                uv_w = weight.get((min(u, v), max(u, v)), 0)
                # swapping u and v keeps them adjacent across the new cut
                delta -= 2 * uv_w
                if delta > 0:
                    assign[u], assign[v] = bv, bu
                    improved = True
                    break
    return [sorted(np.flatnonzero(assign == j).tolist()) for j in range(b)]
