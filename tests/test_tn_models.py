import math

import pytest

from helpers import rg_circuit
from rcsw.tn import (
    SimpleCostModel,
    circuit_to_tn,
    lower_bound_rank,
    max_effective_qubits,
    optimize_order,
    simple_cost,
    slice_tree,
    summarize,
)

RG = SimpleCostModel("rg")
TWO_D = SimpleCostModel("2d")


def test_lower_bound_reference_value():
    # 56 * (1 - 2 sqrt(ln2 / 12)) / 9
    eta = 2.0 * math.sqrt(math.log(2.0) / 12.0)
    assert lower_bound_rank(56, 12) == pytest.approx(56 * (1 - eta) / 9, rel=1e-12)
    assert lower_bound_rank(56, 12) == pytest.approx(3.23, abs=0.01)


def test_lower_bound_vacuous_at_low_degree():
    assert lower_bound_rank(40, 2) <= 0.0


def test_lower_bound_large_degree_limit():
    assert lower_bound_rank(90, 10 ** 8) == pytest.approx(10.0, rel=1e-3)


def test_lower_bound_increases_with_degree():
    # eta = 2 sqrt(ln2 / d) falls with d, so the floor rises
    bounds = [lower_bound_rank(10, d) for d in range(3, 30)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_lower_bound_rejects_degree_below_one():
    with pytest.raises(ValueError, match="degree must be positive"):
        lower_bound_rank(10, 0)


def test_simple_cost_rg_values():
    assert simple_cost(RG, 40, 10)[0] == 1.0
    assert simple_cost(RG, 40, 2)[0] == 0.0
    assert simple_cost(RG, 40, 1)[0] == 0.0  # clipped, never negative
    assert simple_cost(RG, 40, 6)[0] == pytest.approx(0.5)


def test_simple_cost_2d_scale_collapse():
    # 2d density depends on d / sqrt(n) only
    c1, _ = simple_cost(TWO_D, 36, 6)
    c2, _ = simple_cost(TWO_D, 144, 12)
    assert c1 == pytest.approx(c2, rel=1e-12)
    assert c1 == pytest.approx(1.1 * 0.35 * 1.0, rel=1e-12)


def test_simple_cost_flops_formula():
    density, flops = simple_cost(RG, 30, 8)
    assert flops == pytest.approx((30 * 8 / 2) * 2 ** (density * 30), rel=1e-12)


def test_simple_cost_flops_beyond_float_range():
    assert simple_cost(RG, 2000, 10) == (1.0, math.inf)


def test_simple_cost_model_validation():
    with pytest.raises(ValueError):
        SimpleCostModel("hexagonal")


def test_max_effective_qubits_reference_budget():
    res = max_effective_qubits(3.2e-3, 1.0, 100.0, RG)
    # saturation needs d = 10; feasible whenever 10 <= ln(100)/(eps n),
    # that is n <= 143.9, so the largest n on the step-4 grid wins
    assert res.d_star == 10
    assert res.n_star == 140
    assert res.n_eff == pytest.approx(140.0)


def test_max_effective_qubits_small_eps_passes_float_range():
    # n reaches ln(100)/eps = 46,051, so the model's FLOPs pass 2^1024;
    # saturation at d = 10 is verifiable up to n = 4,605
    res = max_effective_qubits(1e-4, 1.0, 100.0, RG)
    assert (res.n_star, res.d_star, res.n_eff) == (4604, 10, 4604.0)


def test_max_effective_qubits_rg_dominates_2d():
    rg = max_effective_qubits(3.2e-3, 1.0, 100.0, RG)
    flat = max_effective_qubits(3.2e-3, 1.0, 100.0, TWO_D)
    assert rg.n_eff > flat.n_eff


def test_max_effective_qubits_propagates_domain_error():
    with pytest.raises(ValueError, match="must be positive"):
        max_effective_qubits(0.0, 1.0, 100.0, RG)
    with pytest.raises(ValueError, match="below the per-shot time"):
        max_effective_qubits(1e-3, 2.0, 1.0, RG)


def test_max_effective_qubits_infeasible_grid():
    # time budget so tight no depth-1 circuit is verifiable anywhere
    with pytest.raises(ValueError, match="no feasible"):
        max_effective_qubits(1.0, 1.0, 1.5, RG)


def test_summarize_density_and_csv():
    c = rg_circuit(8, 4, seed=30)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=2, seed=0)
    sliced = slice_tree(tn, tree, width_budget=2.0 ** 5, budget=2, seed=1)
    row = summarize(c, tree, sliced_tree=sliced, seed=30)
    assert row.n == 8 and row.d == 4
    assert row.d_eff == pytest.approx(4.0)
    assert row.c_density == pytest.approx(
        math.log2(tree.stats.total_flops / c.n_2q) / 8.0)
    assert row.c_density > 0
    assert row.n_slices == len(sliced.sliced)
    text = row.csv_row()
    assert text.startswith("rg,8,4,")
    assert len(text.split(",")) == 10


def test_summarize_without_sliced_tree():
    c = rg_circuit(6, 3, seed=31)
    tn = circuit_to_tn(c)
    tree = optimize_order(tn, budget=1, seed=0)
    row = summarize(c, tree)
    assert row.log2_flops_sliced is None
    assert row.n_slices == 0
    fields = row.csv_row().split(",")
    assert fields[6] == ""
