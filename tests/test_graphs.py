"""Tests for graph sampling, coloring, grids, bounds, and partitioning."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcsw import circuits, graphs
from rcsw.errors import DegreeError, ParityError, RejectSignal
from rcsw.tn import lower_bound_rank

from helpers import edge_color_networkx_reference, graph_from_json


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def best_matching_brute_force(n, edges, w):
    """(cardinality, weight) of the best matching, enumerating every matching."""
    adj = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    used = [False] * n
    best = (0, 0)

    def recurse(v, card, weight):
        nonlocal best
        while v < n and used[v]:
            v += 1
        if v == n:
            best = max(best, (card, weight))
            return
        used[v] = True
        recurse(v + 1, card, weight)  # v stays single
        for u, k in adj[v]:
            if not used[u]:
                used[u] = True
                recurse(v + 1, card + 1, weight + w[k])
                used[u] = False
        used[v] = False

    recurse(0, 0, 0)
    return best


def has_proper_3_coloring(edges):
    """Exhaustive backtracking search over proper 3-edge-colorings."""
    n = 1 + max(max(e) for e in edges)
    used = [[False] * 3 for _ in range(n)]

    def recurse(i):
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in range(3):
            if not used[u][c] and not used[v][c]:
                used[u][c] = used[v][c] = True
                if recurse(i + 1):
                    return True
                used[u][c] = used[v][c] = False
        return False

    return recurse(0)


class TestSampleRegularGraph:
    def test_basic_regularity(self):
        g = graphs.sample_regular_graph(8, 3, seed=11)
        assert g.n == 8 and g.degree == 3
        assert len(g.edges) == 12
        degs = [0] * 8
        for u, v in g.edges:
            degs[u] += 1
            degs[v] += 1
        assert degs == [3] * 8

    def test_parity_rejected(self):
        with pytest.raises(ParityError):
            graphs.sample_regular_graph(5, 3, seed=0)

    def test_degree_rejected(self):
        with pytest.raises(DegreeError):
            graphs.sample_regular_graph(4, 4, seed=0)
        with pytest.raises(DegreeError):
            graphs.sample_regular_graph(4, 0, seed=0)

    def test_deterministic(self):
        a = graphs.sample_regular_graph(16, 4, seed=5)
        b = graphs.sample_regular_graph(16, 4, seed=5)
        assert a.edges == b.edges
        c = graphs.sample_regular_graph(16, 4, seed=6)
        assert a.edges != c.edges

    def test_dense_degrees_terminate(self):
        # stub pairing must cope with degrees where naive full restart would not
        g = graphs.sample_regular_graph(32, 16, seed=3)
        assert len(g.edges) == 32 * 16 // 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 24), st.integers(1, 6), st.integers(0, 2**20))
    def test_always_simple_and_regular(self, n, d, seed):
        if d >= n or (n * d) % 2:
            return
        g = graphs.sample_regular_graph(n, d, seed)
        assert len(set(g.edges)) == n * d // 2
        degs = [0] * n
        for u, v in g.edges:
            assert u != v
            degs[u] += 1
            degs[v] += 1
        assert all(x == d for x in degs)


class TestEdgeColor:
    def test_k4(self):
        k4 = graphs.RegularGraph(4, 3, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        cg = graphs.edge_color(k4, seed=0)
        assert sorted(set(cg.colors)) == [0, 1, 2]
        for layer in cg.layers():
            nodes = [x for e in layer for x in e]
            assert len(nodes) == len(set(nodes))

    def test_petersen_rejects(self):
        edges = petersen_edges()
        assert not has_proper_3_coloring(edges)  # oracle: chromatic index is 4
        g = graphs.RegularGraph(10, 3, tuple(edges))
        with pytest.raises(RejectSignal):
            graphs.edge_color(g, seed=0)

    def test_color_classes_cover_and_match(self):
        g = graphs.sample_regular_graph(20, 5, seed=2)
        cg = graphs.edge_color(g, seed=2)
        layers = cg.layers()
        assert sum(len(layer) for layer in layers) == len(g.edges)
        for layer in layers:
            # perfect matching for even n
            assert len(layer) == g.n // 2
            nodes = [x for e in layer for x in e]
            assert sorted(nodes) == list(range(g.n))

    def test_deterministic(self):
        g = graphs.sample_regular_graph(14, 3, seed=9)
        a = graphs.edge_color(g, seed=4)
        b = graphs.edge_color(g, seed=4)
        assert a.colors == b.colors

    def test_odd_n_raises_parity_up_front(self):
        # a d-regular graph on an odd node count has no perfect matching
        cycle = graphs.RegularGraph(9, 2, tuple((i, (i + 1) % 9) for i in range(9)))
        with pytest.raises(ParityError):
            graphs.edge_color(cycle, seed=0)
        with pytest.raises(ParityError):
            graphs.sample_colored_graph(11, 4, seed=0)

    @pytest.mark.parametrize("n,d,seeds", [
        pytest.param(n, d, seeds, id=f"{n}-{d}")
        for n, d, seeds in [(12, 10, 50), (16, 8, 50), (24, 6, 50), (36, 12, 50),
                            (56, 12, 5), (56, 16, 5)]])
    def test_matches_networkx_oracle(self, n, d, seeds):
        for seed in range(seeds):
            g = graphs.sample_regular_graph(n, d, seed)
            want = edge_color_networkx_reference(g, seed=seed)
            if want is None:
                with pytest.raises(RejectSignal):
                    graphs.edge_color(g, seed=seed)
            else:
                assert graphs.edge_color(g, seed=seed).colors == want, seed

    def test_sample_colored_graph_takes_first_colorable_child(self):
        # for seeds 50 and 134 the first child graph is rejected and the
        # second is colored
        for seed in (0, 50, 134):
            for child in np.random.SeedSequence(seed).spawn(256):
                g_seed, c_seed = child.spawn(2)
                try:
                    want = graphs.edge_color(graphs.sample_regular_graph(12, 3, g_seed),
                                             seed=c_seed)
                    break
                except RejectSignal:
                    continue
            assert graphs.sample_colored_graph(12, 3, seed) == want


class TestMaxWeightMatching:
    def check(self, n, edges, w):
        got = graphs._max_weight_matching(
            n, [u for u, _ in edges], [v for _, v in edges], list(w))
        nodes = [x for k in got for x in edges[k]]
        assert len(nodes) == len(set(nodes)) == 2 * len(got)
        assert (len(got), sum(w[k] for k in got)) == best_matching_brute_force(n, edges, w)
        return len(got)

    def test_graphs_without_perfect_matching(self):
        rng = np.random.default_rng(0)
        triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        odd_cycle = [(i, (i + 1) % 7) for i in range(7)]
        two_pentagons = [e for e in petersen_edges() if e[1] - e[0] != 5]  # no spokes
        for n, edges, card in ((6, triangles, 2), (7, odd_cycle, 3),
                               (10, two_pentagons, 4)):
            for _ in range(20):
                w = rng.integers(0, 2**53, size=len(edges)).tolist()
                assert self.check(n, edges, w) == card

    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(120):
            n = int(rng.integers(1, 11))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < (0.2, 0.5, 0.9)[trial % 3]]
            high = 2**53 if trial % 2 else 4  # small weights force ties and zeros
            self.check(n, edges, rng.integers(0, high, size=len(edges)).tolist())

    def test_petersen(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.integers(0, 2**53, size=15).tolist()
            assert self.check(10, petersen_edges(), w) == 5


class TestGrid:
    def test_plaquette(self):
        gs = graphs.make_grid(4, offset=(0.0, 0.0), rotation=0.0)
        assert gs.n == 4
        assert len(gs.edges) == 4
        present = sorted(set(gs.colors))
        assert present == [0, 2]  # two horizontal-even, two vertical-even edges

    def test_single_vertex(self):
        gs = graphs.make_grid(1, offset=(0.0, 0.0), rotation=0.0)
        assert gs.n == 1
        assert gs.edges == ()

    def test_direction_classes_are_matchings(self):
        gs = graphs.sample_grid(56, seed=8)
        assert gs.n == 56
        for layer in gs.layers():
            nodes = [x for e in layer for x in e]
            assert len(nodes) == len(set(nodes))

    def test_deterministic(self):
        a = graphs.sample_grid(30, seed=4)
        b = graphs.sample_grid(30, seed=4)
        assert a == b

    def test_edges_are_lattice_neighbors(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            offset, rotation = tuple(rng.uniform(0.0, 1.0, size=2)), rng.uniform(0.0, 1.5)
            gs = graphs.make_grid(25, offset, rotation)
            pts = graphs._grid_sites(25, offset, rotation)
            assert len(set(pts)) == 25
            for u, v in gs.edges:
                dx = abs(pts[u][0] - pts[v][0])
                dy = abs(pts[u][1] - pts[v][1])
                assert dx + dy == 1


class TestExpansionBound:
    def test_values(self):
        # independent evaluation of eta = 2 sqrt(ln2/d); rank floor n(1-eta)/9
        eta3 = 2.0 * math.sqrt(math.log(2.0) / 3.0)
        assert eta3 == pytest.approx(0.96135, abs=1e-4)
        assert lower_bound_rank(10, 3) == pytest.approx(10 * (1 - eta3) / 9.0, rel=1e-12)
        eta12 = 2.0 * math.sqrt(math.log(2.0) / 12.0)
        assert eta12 == pytest.approx(0.48068, abs=1e-4)
        assert lower_bound_rank(56, 12) == pytest.approx(56 * (1 - eta12) / 9.0, rel=1e-12)
        assert lower_bound_rank(56, 12) == pytest.approx(3.231, abs=2e-3)


class TestPartition:
    def _cut(self, edges, blocks):
        where = {}
        for j, blk in enumerate(blocks):
            for v in blk:
                where[v] = j
        return sum(1 for u, v in edges if where[u] != where[v])

    def test_balanced_sizes(self):
        g = graphs.sample_regular_graph(14, 3, seed=0)
        blocks = graphs.partition_nodes(g.n, g.edges, 4, seed=0)
        sizes = sorted(len(b) for b in blocks)
        assert sizes == [3, 3, 4, 4]
        assert sorted(v for blk in blocks for v in blk) == list(range(14))

    def test_never_worse_than_sequential(self):
        for seed in range(5):
            g = graphs.sample_regular_graph(24, 4, seed=seed)
            blocks = graphs.partition_nodes(g.n, g.edges, 4, seed=seed)
            seq = [list(range(j * 6, (j + 1) * 6)) for j in range(4)]
            assert self._cut(g.edges, blocks) <= self._cut(g.edges, seq)

    def test_finds_planted_cut(self):
        # two cliques joined by one edge; the planted split is optimal
        edges = []
        for base in (0, 4):
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append((base + i, base + j))
        edges.append((3, 4))
        blocks = graphs.partition_nodes(8, edges, 2, seed=1)
        assert sorted(map(sorted, blocks)) == [[0, 1, 2, 3], [4, 5, 6, 7]]


class TestGraphJson:
    def test_round_trip_colored(self):
        cg = graphs.sample_colored_graph(10, 3, seed=1)
        doc = circuits.build_rg_circuit(cg, seed=2).graph
        cg2 = graph_from_json(doc)
        assert cg2 == cg

    @pytest.mark.parametrize("ensemble,n,d", [("rg", 10, 3), ("2d", 6, 3), ("2d", 12, 5)])
    def test_round_trip_through_json_text(self, ensemble, n, d):
        # a 2D document's d is the depth, so it records the color count too
        c = circuits.build_instance(ensemble, n, d, 4)
        doc = json.loads(json.dumps(c.graph))
        assert doc["n_colors"] == (d if ensemble == "rg" else 4)
        cg = (graphs.sample_colored_graph(n, d, 4) if ensemble == "rg"
              else graphs.sample_grid(n, 4))
        assert graph_from_json(doc) == cg
