import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    analyze_merges_reference,
    greedy_merges_reference,
    optimize_order_reference,
    rg_circuit,
    schmidt_split_svd_reference,
    slice_choice_reference,
)
from rcsw.circuits import (
    ZZ_ANGLE,
    Circuit,
    Layer,
    OneQubitGate,
    build_brickwork_circuit,
    build_instance,
    build_mirror,
)
from rcsw.errors import CapacityError, InfeasibleBudget
from rcsw.statevector import run
from rcsw.tn import (
    circuit_to_tn,
    execute_tree,
    light_cone_order,
    optimize_order,
    slice_tree,
)
from rcsw.tn import execute, network, order, slicing
from rcsw.tn.tree import (TreeStats, _walk, index_mask, leg_sets, mask_indices, price,
                          walk_merges)


def amplitude_oracle(c, bits):
    return complex(run(c).amplitudes[int(bits, 2)])


# ------------------------------------------------------------- network

def test_network_tensor_count_split2():
    c = rg_circuit(6, 3, seed=0)
    tn = circuit_to_tn(c, split_rank=2)
    assert tn.n_tensors == 6 * 3
    assert all(set(arr.shape) == {2} for arr in tn.arrays)
    tn.validate()


def test_network_tensor_count_split4():
    c = rg_circuit(6, 3, seed=0)
    tn = circuit_to_tn(c, split_rank=4)
    assert tn.n_tensors == 9
    tn.validate()


def test_network_gateless_circuit_is_scalar():
    gates = tuple(OneQubitGate(q, 0.3 * q, 0.7, 1.1) for q in range(3))
    c = Circuit(n=3, layers=(Layer("1q", gates),))
    tn = circuit_to_tn(c, bitstring_out="010")
    assert tn.n_tensors == 0
    assert abs(tn.scalar - amplitude_oracle(c, "010")) < 1e-12


def test_network_input_validation():
    c = rg_circuit(4, 3, seed=0)
    with pytest.raises(ValueError):
        circuit_to_tn(c, split_rank=3)
    with pytest.raises(ValueError):
        circuit_to_tn(c, bitstring_out="01")


def test_network_records_meta():
    c = rg_circuit(4, 3, seed=0)
    for split_rank in (2, 4):
        assert circuit_to_tn(c, split_rank=split_rank).depth == 3


# ---------------------------------------------------------------- tree

def test_analyze_two_tensor_contraction():
    legs = leg_sets([(0,), (0,)])
    stats = price([(0, 1)], legs).stats
    assert stats.flops == 16.0  # 8 * S(1) * K(2)
    assert stats.width == 2.0


def test_analyze_chain_of_three():
    legs = leg_sets([(0,), (0, 1), (1,)])
    stats = price([(0, 1), (3, 2)], legs).stats
    # (A.B): S=2, K=2 -> 32; then with C: S=1, K=2 -> 16
    assert stats.flops == 48.0
    assert stats.width == 4.0  # the two-leg leaf is the largest tensor


def test_analyze_rejects_open_root():
    legs = leg_sets([(0,), (0, 1)])
    with pytest.raises(ValueError):
        price([(0, 1)], legs)


def test_analyze_flops_are_exact_integers():
    # 8 * 2^61 + 8 * 2^1: a float sum rounds this to exactly 2^64
    legs = leg_sets([range(61), range(60), (60,)])
    stats = price([(0, 1), (3, 2)], legs).stats
    assert stats.flops == (1 << 64) + 16
    assert stats.log2_width == 61


def test_analyze_rejects_sliced_index_on_no_tensor():
    legs = leg_sets([(0,), (0,)])
    with pytest.raises(ValueError, match=r"sliced indices \[5\] are on no tensor"):
        price([(0, 1)], legs, sliced=(0, 5))
    c = rg_circuit(4, 3, seed=0)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=1, seed=0)
    with pytest.raises(ValueError, match="on no tensor"):
        price(tree.merges, leg_sets(tn.indices), sliced=(10 ** 3,))


def test_validate_rejects_dimension_three():
    tn = network.TensorNetwork(n=1, depth=0, arrays=[np.ones(3), np.ones(3)],
                               indices=[(0,), (0,)])
    with pytest.raises(ValueError, match="dimension 3"):
        tn.validate()


def _random_merges(n_leaves, rng):
    alive = list(range(n_leaves))
    merges = []
    while len(alive) > 1:
        i, j = rng.choice(len(alive), size=2, replace=False)
        a, b = alive[i], alive[j]
        merges.append((a, b))
        alive = [x for x in alive if x not in (a, b)] + [n_leaves + len(merges) - 1]
    return merges


def test_bitset_pricing_matches_frozenset_reference():
    rng = np.random.default_rng(30)
    base = rg_circuit(8, 4, seed=30)
    nets = [circuit_to_tn(base, split_rank=2),
            circuit_to_tn(base, split_rank=4),
            circuit_to_tn(build_brickwork_circuit(6, 5, seed=32), split_rank=2)]
    for tn in nets:
        ids = sorted(set().union(*tn.indices))
        for trial in range(6):
            merges = (_random_merges(tn.n_tensors, rng) if trial % 2
                      else optimize_order(tn, budget=1, seed=trial).merges)
            k = int(rng.integers(0, 6))
            sliced = tuple(int(i) for i in rng.choice(ids, size=k, replace=False))
            legs = leg_sets(tn.indices)
            got = price(merges, legs, sliced).stats
            ref = analyze_merges_reference(
                merges, [frozenset(x) for x in tn.indices], sliced)
            assert got == ref
            # the pricing loop with no slice candidates is the walk
            assert _walk(merges, legs, index_mask(sliced), 0) == (ref, [])


def test_tree_validation():
    legs = leg_sets([(0,), (0, 1), (1,)])
    with pytest.raises(ValueError, match="T-1 merges"):
        price([(0, 1)], legs)
    with pytest.raises(ValueError, match="reuses or forward-references 0"):
        price([(0, 1), (0, 2)], legs)  # leaf 0 reused
    with pytest.raises(ValueError, match="reuses or forward-references 4"):
        price([(0, 4), (1, 2)], legs)  # forward reference


def test_walk_rejects_unclosed_merge_list():
    legs = leg_sets([(0,), (0,), (1,), (1,)])
    assert walk_merges([(0, 1), (2, 3), (4, 5)], legs, 0).flops == 16 + 16 + 8
    with pytest.raises(ValueError, match="does not contract the network"):
        walk_merges([(0, 1), (2, 3)], legs, 0)  # two nodes left
    with pytest.raises(ValueError, match="does not contract the network"):
        walk_merges([(0, 1)], leg_sets([(0,), (0, 1)]), 0)  # leg 1 stays open


def test_stats_recompute_matches_cached():
    c = rg_circuit(8, 4, seed=0)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=3, seed=1)
    legs = leg_sets(tn.indices)
    assert price(tree.merges, legs, tree.sliced).stats == tree.stats
    assert tree.stats.flops >= 2.0 ** tree.stats.log2_width
    # five slices: the tree is re-optimised after the fourth
    out = slice_tree(tn, tree, width_budget=2.0 ** 3, budget=2, seed=1)
    assert len(out.sliced) == 5
    assert price(out.merges, legs, out.sliced).stats == out.stats


def test_closed_form_split_matches_svd(monkeypatch):
    a, b = network._schmidt_split()
    ra, rb = schmidt_split_svd_reference(ZZ_ANGLE)
    assert a.shape == ra.shape == (2, 2, 2) and b.shape == rb.shape
    gate = np.einsum("aik,kbj->abij", a, b).reshape(4, 4)
    want = np.einsum("aik,kbj->abij", ra, rb).reshape(4, 4)
    assert np.max(np.abs(gate - want)) < 1e-12
    c = rg_circuit(6, 3, seed=2)
    bits = "011010"
    tn = circuit_to_tn(c, bitstring_out=bits)
    tree = optimize_order(tn, budget=2, seed=0)
    monkeypatch.setattr(network, "_schmidt_split",
                        lambda: schmidt_split_svd_reference(ZZ_ANGLE))
    ref = circuit_to_tn(c, bitstring_out=bits)
    assert tn.indices == ref.indices
    assert [a.shape for a in tn.arrays] == [a.shape for a in ref.arrays]
    amp, ref_amp = execute_tree(tn, tree), execute_tree(ref, tree)
    assert abs(amp - ref_amp) < 1e-12
    assert abs(amp - amplitude_oracle(c, bits)) < 1e-12


# ------------------------------------------------------------- execute

@pytest.mark.parametrize("split", [2, 4])
def test_execute_matches_statevector(split):
    rng = np.random.default_rng(10)
    shapes = [(4, 3), (6, 3), (6, 4), (8, 3), (8, 4), (8, 5)]
    for trial, (n, d) in enumerate(shapes):
        c = rg_circuit(n, d, seed=100 + trial)
        bits = "".join(rng.choice(["0", "1"]) for _ in range(n))
        tn = circuit_to_tn(c, bitstring_out=bits, split_rank=split)
        tree = optimize_order(tn, budget=2, seed=trial)
        amp = execute_tree(tn, tree)
        assert abs(amp - amplitude_oracle(c, bits)) < 1e-10


def test_execute_mirror_circuit():
    c = rg_circuit(6, 4, seed=7)
    m = build_mirror(c, seed=8)
    tn = circuit_to_tn(m, bitstring_out=m.initial_bits)
    tree = optimize_order(tn, budget=2, seed=0)
    amp = execute_tree(tn, tree)
    assert abs(abs(amp) - 1.0) < 1e-10


def test_execute_identity_circuit():
    gates = tuple(OneQubitGate(q, 0.0, 0.0, 0.0) for q in range(4))
    c = Circuit(n=4, layers=(Layer("1q", gates),))
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=1, seed=0)
    assert execute_tree(tn, tree) == pytest.approx(1.0)


def test_execute_sliced_equals_unsliced():
    c = rg_circuit(8, 4, seed=9)
    tn = circuit_to_tn(c, bitstring_out="10100101")
    tree = optimize_order(tn, budget=2, seed=0)
    plain = execute_tree(tn, tree)
    pick = sorted(set().union(*tn.indices))[:3]
    sliced = price(tree.merges, leg_sets(tn.indices), sliced=tuple(pick))
    assert abs(execute_tree(tn, sliced) - plain) < 1e-10


def test_execute_capacity_error(monkeypatch):
    c = rg_circuit(8, 4, seed=12)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=1, seed=0)
    monkeypatch.setattr(execute, "DEFAULT_CAP", 2)
    with pytest.raises(CapacityError):
        execute_tree(tn, tree)


# --------------------------------------------------------------- order

def test_two_tensor_network_unique_tree():
    c = rg_circuit(2, 1, seed=0)
    tn = circuit_to_tn(c)
    assert tn.n_tensors == 2
    tree = optimize_order(tn, budget=1, seed=0)
    assert tree.merges == [(0, 1)]
    assert tree.stats.flops == 16.0
    assert tree.stats.width == 2.0


def test_time_sweep_caps_cost():
    # the always-evaluated time sweep keeps the bound 64 * 2^n per gate
    c = rg_circuit(10, 6, seed=14)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=0, seed=0)
    assert tree.stats.total_flops <= c.n_2q * 64.0 * 2.0 ** c.n * (1 + 1e-9)


def test_wire_major_order_on_chain():
    # rank-2 split of a chain circuit contracts sideways with small rank
    c = build_brickwork_circuit(12, 8, seed=15)
    tn = circuit_to_tn(c, split_rank=2)
    tree = optimize_order(tn, budget=2, seed=0)
    assert tree.stats.log2_width <= 8.0 / 2.0 + 4.0


def test_rank2_split_never_costlier_than_rank4():
    # gate-level orders are in the rank-2 search space (halves pre-merged),
    # so splitting can only add the tiny pre-merge cost
    for seed in (16, 17):
        c = rg_circuit(8, 4, seed=seed)
        t2 = optimize_order(circuit_to_tn(c, split_rank=2), budget=4, seed=0)
        t4 = optimize_order(circuit_to_tn(c, split_rank=4), budget=4, seed=0)
        slack = 512.0 * c.n_2q
        assert t2.stats.total_flops <= t4.stats.total_flops * 1.01 + slack


def test_budget_monotone():
    c = rg_circuit(10, 4, seed=18)
    tn = circuit_to_tn(c)
    costs = [optimize_order(tn, budget=b, seed=5).stats.total_flops
             for b in (1, 3, 6)]
    assert costs[0] >= costs[1] >= costs[2]


def test_methods_agree_on_amplitude():
    c = rg_circuit(8, 3, seed=19)
    bits = "11001010"
    tn = circuit_to_tn(c, bitstring_out=bits)
    expect = amplitude_oracle(c, bits)
    tree = optimize_order(tn, budget=2, seed=2)
    assert abs(execute_tree(tn, tree) - expect) < 1e-10


def test_order_deterministic():
    c = rg_circuit(10, 4, seed=20)
    tn = circuit_to_tn(c)
    a = optimize_order(tn, budget=3, seed=9)
    b = optimize_order(tn, budget=3, seed=9)
    assert a.merges == b.merges


def test_light_cone_bound_holds():
    rng = np.random.default_rng(21)
    for trial in range(8):
        n = int(rng.choice([8, 10, 12, 14]))
        d = int(rng.choice([3, 4, 5, 6]))
        if (n * d) % 2:
            d += 1
        c = rg_circuit(n, d, seed=200 + trial)
        tn = circuit_to_tn(c)
        tree = light_cone_order(tn)
        bound = n * (1.0 - 2.0 ** -d) + 2.0
        assert tree.stats.log2_width <= bound + 1e-9


def test_light_cone_stats_pinned():
    # the first three instances of acceptance test 5, widest node included
    want = {(18, 7, 9000): TreeStats(277096096, 18, 115043766, 0),
            (24, 7, 9001): TreeStats(20929462048, 24, 58902408630, 0),
            (10, 4, 9002): TreeStats(74656, 8, 28038, 0)}
    for (n, d, seed), stats in want.items():
        tree = light_cone_order(circuit_to_tn(build_instance("rg", n, d, seed)))
        assert tree.stats == stats


def test_light_cone_tree_is_exact():
    c = rg_circuit(8, 4, seed=22)
    bits = "01011010"
    tn = circuit_to_tn(c, bitstring_out=bits)
    tree = light_cone_order(tn)
    assert abs(execute_tree(tn, tree) - amplitude_oracle(c, bits)) < 1e-10


# ------------------------------------------------------------- slicing

def test_slice_noop_when_within_budget():
    c = rg_circuit(8, 4, seed=24)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=2, seed=0)
    out = slice_tree(tn, tree, width_budget=2.0 ** 30)
    assert out.sliced == ()
    assert out.stats.total_flops == tree.stats.total_flops


def test_slice_reduces_width_and_costs_more():
    c = rg_circuit(10, 6, seed=25)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=2, seed=0)
    budget = 2.0 ** 6
    assert tree.stats.width > budget
    out = slice_tree(tn, tree, width_budget=budget, budget=2, seed=1)
    assert out.stats.width <= budget
    assert len(out.sliced) >= 1
    # same-tree guarantee: slicing its own merge list cannot win
    base = price(out.merges, leg_sets(tn.indices)).stats
    assert out.stats.total_flops >= base.total_flops * (1 - 1e-9)


def test_sliced_execution_matches():
    c = rg_circuit(8, 4, seed=26)
    bits = "00110110"
    tn = circuit_to_tn(c, bitstring_out=bits)
    tree = optimize_order(tn, budget=2, seed=0)
    out = slice_tree(tn, tree, width_budget=2.0 ** 4, budget=2, seed=2)
    assert len(out.sliced) >= 1
    assert abs(execute_tree(tn, out) - amplitude_oracle(c, bits)) < 1e-10


def test_slice_infeasible_budgets(monkeypatch):
    c = rg_circuit(8, 4, seed=27)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=1, seed=0)
    with pytest.raises(InfeasibleBudget):
        slice_tree(tn, tree, width_budget=1.0)
    with pytest.raises(InfeasibleBudget):
        monkeypatch.setattr(slicing, "MAX_SLICES", 2)
        slice_tree(tn, tree, width_budget=4.0)


def _slicing_networks():
    """rg, 2D and brickwork networks, each with gates split in rank 2 and 4."""
    circs = [rg_circuit(10, 5, seed=40), build_instance("2d", 12, 6, 41),
             build_brickwork_circuit(8, 6, seed=42)]
    return [circuit_to_tn(c, split_rank=r) for c in circs for r in (2, 4)]


def test_one_walk_prices_every_slice_candidate():
    # each candidate's (log2_width, flops) equals its own walk's, under random
    # merge lists and random cuts, for the widest node's legs and for random
    # index sets; the choice equals the per-candidate walk's
    rng = np.random.default_rng(43)
    ties = 0
    for tn in _slicing_networks():
        legs = leg_sets(tn.indices)
        ids = sorted(set().union(*tn.indices))
        for trial in range(8):
            merges = (_random_merges(tn.n_tensors, rng) if trial % 2
                      else optimize_order(tn, budget=1, seed=trial).merges)
            k = int(rng.integers(0, 6))
            cut = index_mask(int(i) for i in rng.choice(ids, size=k, replace=False))
            stats = walk_merges(merges, legs, cut)
            drawn = index_mask(int(i) for i in rng.choice(ids, size=8, replace=False))
            for candidates in (stats.widest & ~cut, drawn & ~cut):
                if not candidates:
                    continue
                # pricing the candidates leaves the tree's own stats as they are
                got, prices = _walk(merges, legs, cut, candidates)
                assert got == stats
                walks = [(walk_merges(merges, legs, cut | 1 << i), i)
                         for i in mask_indices(candidates)]
                assert prices == [(s.log2_width, s.flops, i) for s, i in walks]
                best = min(prices)
                assert best == slice_choice_reference(merges, legs, cut, candidates)
                ties += sum(p[:2] == best[:2] for p in prices) > 1
    assert ties >= 5  # steps where several candidates tie on width and FLOPs


def test_slice_step_takes_the_reference_choice_in_two_walks(monkeypatch):
    counts = {"priced": 0, "walked": 0}
    one_walk, walk = slicing._walk, slicing.walk_merges

    def priced(merges, legs, cut, candidates):
        counts["priced"] += 1
        stats, prices = one_walk(merges, legs, cut, candidates)
        assert min(prices) == slice_choice_reference(merges, legs, cut, candidates)
        return stats, prices

    def walked(merges, legs, cut):
        counts["walked"] += 1
        return walk(merges, legs, cut)

    monkeypatch.setattr(slicing, "_walk", priced)
    monkeypatch.setattr(slicing, "walk_merges", walked)
    steps = 0
    for tn in _slicing_networks():
        tree = optimize_order(tn, budget=1, seed=0)
        w = max(1, tree.stats.log2_width - 4)
        out = slice_tree(tn, tree, width_budget=2.0 ** w, budget=1, seed=3)
        assert out.stats.log2_width <= w
        assert price(out.merges, leg_sets(tn.indices), out.sliced).stats == out.stats
        steps += len(out.sliced)
    # one walk prices every candidate of a step, one prices the winner
    assert counts["priced"] == counts["walked"] == steps > 0


def test_greedy_draws_match_scalar_reference():
    # trials draw their tie-breaks as one vector per merge step; that gives
    # the merges and leaves the generator where one scalar draw per push does
    nets = _slicing_networks()
    for seed in range(120):
        tn = nets[seed % len(nets)]
        legs = leg_sets(tn.indices)
        ids = sorted(set().union(*tn.indices))
        cut = index_mask(ids[seed % len(ids)::17])
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        leaves = [[t] for t in range(len(legs))]
        got, _ = order._greedy_merges(legs, leaves, ~cut, rng, None)
        assert got == greedy_merges_reference(legs, ~cut, ref)
        assert rng.random() == ref.random()


def test_greedy_bound_edge():
    # a bound equal to the finished trial's FLOPs abandons it; one more lets
    # it finish with the same merges
    nets = _slicing_networks()
    for seed in range(24):
        tn = nets[seed % len(nets)]
        legs = leg_sets(tn.indices)
        ids = sorted(set().union(*tn.indices))
        cut = index_mask(ids[seed % len(ids)::11])
        leaves = [[t] for t in range(len(legs))]
        merges, _ = order._greedy_merges(legs, leaves, ~cut, np.random.default_rng(seed),
                                         None)
        flops = walk_merges(merges, legs, cut).flops
        for bound, want in ((flops, None), (flops + 1, (merges, flops))):
            rng = np.random.default_rng(seed)
            assert order._greedy_merges(legs, leaves, ~cut, rng, bound) == want


def _tie_networks():
    """2x2 grids at split rank 2 whose gate-group trial ties the time sweep at
    80 FLOPs, with the seed ``rcsw cost`` gives their order search."""
    return [(circuit_to_tn(build_instance("2d", 4, d, s), split_rank=2), s)
            for d, s in ((2, 1), (3, 1), (3, 4))]


def test_bounded_search_returns_the_full_search_tree(monkeypatch):
    # abandoning trials at the best FLOPs so far returns the tree, slice set
    # and stats of the search that finishes every trial
    calls = {"trials": 0, "abandoned": 0}
    greedy = order._greedy_merges

    def counted(legs, groups, live, rng, bound):
        found = greedy(legs, groups, live, rng, bound)
        calls["trials"] += 1
        calls["abandoned"] += found is None
        return found

    monkeypatch.setattr(order, "_greedy_merges", counted)
    rng = np.random.default_rng(44)
    cases = [(tn, seed) for seed, tn in enumerate(_slicing_networks())] + _tie_networks()
    for tn, seed in cases:
        ids = sorted(set().union(*tn.indices))
        cuts = [(), tuple(int(i) for i in rng.choice(ids, size=3, replace=False))]
        for budget in range(5):
            for sliced in cuts:
                got = optimize_order(tn, budget=budget, seed=seed, sliced=sliced)
                assert got == optimize_order_reference(tn, budget, seed, sliced)
    for tn, seed in _tie_networks():
        assert optimize_order(tn, budget=1, seed=seed).stats.flops == 80
    assert 0 < calls["abandoned"] < calls["trials"]


def test_slice_tree_over_bounded_search_matches_full_search(monkeypatch):
    runs = []
    for search in (optimize_order, optimize_order_reference):
        monkeypatch.setattr(slicing, "optimize_order", search)
        out = []
        for tn in _slicing_networks():
            tree = search(tn, 1, 0)
            w = max(1, tree.stats.log2_width - 4)
            out.append(slice_tree(tn, tree, width_budget=2.0 ** w, budget=2, seed=5))
        runs.append(out)
    assert runs[0] == runs[1]
    assert all(len(t.sliced) >= slicing.REOPT_EVERY for t in runs[0])


@given(st.integers(min_value=0, max_value=10))
@settings(max_examples=10, deadline=None)
def test_random_seed_trees_all_exact(seed):
    c = rg_circuit(6, 4, seed=500)
    tn = circuit_to_tn(c, bitstring_out="101010")
    tree = optimize_order(tn, budget=2, seed=seed)
    assert abs(execute_tree(tn, tree) - amplitude_oracle(c, "101010")) < 1e-10
