import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import analyze_merges_reference, rg_circuit, schmidt_split_svd_reference
from rcsw.circuits import (
    Circuit,
    Layer,
    OneQubitGate,
    TwoQubitGate,
    build_brickwork_circuit,
    build_mirror,
    build_transport_rb,
)
from rcsw.errors import CapacityError, InfeasibleBudget
from rcsw.statevector import run
from rcsw.tn import (
    ContractionTree,
    analyze_tree,
    circuit_to_tn,
    execute_tree,
    light_cone_order,
    optimize_order,
    slice_tree,
)
from rcsw.tn import network, slicing
from rcsw.tn.tree import analyze_merges, leg_sets


def amplitude_oracle(c, bits):
    return run(c).amplitude(bits)


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


def test_network_zero_angle_gates_have_unit_bonds():
    c = rg_circuit(6, 3, seed=1)
    t = build_transport_rb(c, seed=2)
    tn = circuit_to_tn(t, bitstring_out=t.initial_bits, split_rank=2)
    # every entangler of a transport circuit has angle 0, so Schmidt rank 1
    assert all(g.theta == 0.0 for lay in t.two_qubit_layers() for g in lay.gates)
    halves: dict[tuple, list[set]] = {}
    for ids, (pos, pair, _) in zip(tn.indices, tn.provenance):
        halves.setdefault((pos, pair), []).append(set(ids))
    pairs = [h for h in halves.values() if len(h) == 2]
    assert pairs and all(not (a & b) for a, b in pairs)  # no bond
    assert all(set(arr.shape) == {2} for arr in tn.arrays)
    tn.validate()


def test_network_input_validation():
    c = rg_circuit(4, 3, seed=0)
    with pytest.raises(ValueError):
        circuit_to_tn(c, split_rank=3)
    with pytest.raises(ValueError):
        circuit_to_tn(c, bitstring_out="01")


def test_network_records_meta():
    c = rg_circuit(4, 3, seed=0)
    tn = circuit_to_tn(c, split_rank=2)
    assert tn.meta["depth"] == 3
    assert tn.meta["split_rank"] == 2
    assert tn.meta["ensemble"] == "rg"


# ---------------------------------------------------------------- tree

def test_analyze_two_tensor_contraction():
    legs = leg_sets([(0,), (0,)])
    stats = analyze_merges([(0, 1)], legs)
    assert stats.flops == 16.0  # 8 * S(1) * K(2)
    assert stats.width == 2.0


def test_analyze_chain_of_three():
    legs = leg_sets([(0,), (0, 1), (1,)])
    stats = analyze_merges([(0, 1), (3, 2)], legs)
    # (A.B): S=2, K=2 -> 32; then with C: S=1, K=2 -> 16
    assert stats.flops == 48.0
    assert stats.width == 4.0  # the two-leg leaf is the largest tensor


def test_analyze_rejects_open_root():
    legs = leg_sets([(0,), (0, 1)])
    with pytest.raises(ValueError):
        analyze_merges([(0, 1)], legs)


def test_analyze_flops_are_exact_integers():
    # 8 * 2^61 + 8 * 2^1: a float sum rounds this to exactly 2^64
    legs = leg_sets([range(61), range(60), (60,)])
    stats = analyze_merges([(0, 1), (3, 2)], legs)
    assert stats.flops == (1 << 64) + 16
    assert stats.log2_width == 61


def test_analyze_rejects_sliced_index_on_no_tensor():
    legs = leg_sets([(0,), (0,)])
    with pytest.raises(ValueError, match=r"sliced indices \[5\] are on no tensor"):
        analyze_merges([(0, 1)], legs, sliced=(0, 5))
    c = rg_circuit(4, 3, seed=0)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=1, seed=0)
    stray = ContractionTree(tn.n_tensors, list(tree.merges), sliced=(10 ** 3,))
    with pytest.raises(ValueError, match="on no tensor"):
        execute_tree(tn, stray)


def test_validate_rejects_dimension_three():
    tn = network.TensorNetwork(n=1, arrays=[np.ones(3), np.ones(3)],
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
            circuit_to_tn(build_transport_rb(base, seed=31), split_rank=2),
            circuit_to_tn(build_brickwork_circuit(6, 5, seed=32), split_rank=2)]
    for tn in nets:
        ids = sorted(set().union(*tn.indices))
        for trial in range(6):
            merges = (_random_merges(tn.n_tensors, rng) if trial % 2
                      else optimize_order(tn, budget=1, seed=trial).merges)
            k = int(rng.integers(0, 6))
            sliced = tuple(int(i) for i in rng.choice(ids, size=k, replace=False))
            got = analyze_merges(merges, leg_sets(tn.indices), sliced)
            ref = analyze_merges_reference(
                merges, [frozenset(x) for x in tn.indices], sliced)
            assert got == ref


def test_tree_validation():
    with pytest.raises(ValueError):
        ContractionTree(3, [(0, 1)])
    with pytest.raises(ValueError):
        ContractionTree(3, [(0, 1), (0, 2)])  # leaf 0 reused
    with pytest.raises(ValueError):
        ContractionTree(3, [(0, 4), (1, 2)])  # forward reference


def test_tree_json_round_trip():
    c = rg_circuit(6, 3, seed=3)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=2, seed=0)
    back = ContractionTree.from_json(tree.to_json())
    assert back.merges == tree.merges
    assert back.sliced == tree.sliced
    assert analyze_tree(back, tn).flops == tree.stats.flops


def test_stats_recompute_matches_cached():
    c = rg_circuit(8, 4, seed=4)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=3, seed=1)
    again = analyze_tree(tree, tn)
    assert again.flops == tree.stats.flops
    assert again.width == tree.stats.width
    assert tree.stats.flops >= 2.0 ** tree.stats.max_rank


@pytest.mark.parametrize("theta", [0.0, 1e-13, math.pi / 2, math.pi, 0.7])
def test_closed_form_split_matches_svd(theta, monkeypatch):
    a, b = network._schmidt_split(theta)
    ra, rb = schmidt_split_svd_reference(theta)
    assert a.shape == ra.shape and b.shape == rb.shape
    gate = np.einsum("aik,kbj->abij", a, b).reshape(4, 4)
    want = np.einsum("aik,kbj->abij", ra, rb).reshape(4, 4)
    assert np.max(np.abs(gate - want)) < 1e-12
    base = rg_circuit(6, 3, seed=2)
    c = Circuit(n=6, layers=tuple(
        lay if lay.kind == "1q" else
        Layer("2q", tuple(TwoQubitGate(g.q0, g.q1, theta) for g in lay.gates))
        for lay in base.layers))
    bits = "011010"
    tn = circuit_to_tn(c, bitstring_out=bits)
    tree = optimize_order(tn, budget=2, seed=0)
    monkeypatch.setattr(network, "_schmidt_split", schmidt_split_svd_reference)
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
    sliced = ContractionTree(tn.n_tensors, list(tree.merges),
                             sliced=tuple(pick))
    sliced.attach_stats(leg_sets(tn.indices))
    assert abs(execute_tree(tn, sliced) - plain) < 1e-10


def test_execute_capacity_error():
    c = rg_circuit(8, 4, seed=12)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=1, seed=0)
    with pytest.raises(CapacityError):
        execute_tree(tn, tree, cap=2)


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
    assert tree.stats.max_rank <= 8.0 / 2.0 + 4.0


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
        assert tree.stats.max_rank <= bound + 1e-9


def test_light_cone_tree_is_exact():
    c = rg_circuit(8, 4, seed=22)
    bits = "01011010"
    tn = circuit_to_tn(c, bitstring_out=bits)
    tree = light_cone_order(tn)
    assert abs(execute_tree(tn, tree) - amplitude_oracle(c, bits)) < 1e-10


def test_light_cone_explicit_pairing():
    c = rg_circuit(6, 3, seed=23)
    tn = circuit_to_tn(c)
    last = c.two_qubit_layers()[-1]
    pairing = [(g.q0, g.q1) for g in last.gates]
    tree = light_cone_order(tn, final_pairing=pairing)
    assert abs(execute_tree(tn, tree) - amplitude_oracle(c, "0" * 6)) < 1e-10
    with pytest.raises(ValueError):
        light_cone_order(tn, final_pairing=[(0, 1), (2, 3), (4, 5)][:1] + [(0, 2)])


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
    base = analyze_merges(out.merges, leg_sets(tn.indices))
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


@given(st.integers(min_value=0, max_value=10))
@settings(max_examples=10, deadline=None)
def test_random_seed_trees_all_exact(seed):
    c = rg_circuit(6, 4, seed=500)
    tn = circuit_to_tn(c, bitstring_out="101010")
    tree = optimize_order(tn, budget=2, seed=seed)
    assert abs(execute_tree(tn, tree) - amplitude_oracle(c, "101010")) < 1e-10
