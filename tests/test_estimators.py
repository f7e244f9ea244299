import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rg_circuit
from rcsw.circuits import build_mirror
from rcsw.errors import DomainError, EmptySamples, FitError
from rcsw.estimators import (
    REFERENCE_PARAMS,
    GateCountParams,
    effective_2q_infidelity,
    fit_logistic,
    gate_counting,
    mb_hits,
    verifiable_depth,
    xeb,
)
from rcsw.statevector import run, sample


# ---------------------------------------------------------------- xeb

def test_xeb_uniform_probs_gives_zero():
    n = 4
    probs = np.full(2 ** n, 2.0 ** -n)
    samples = np.array([0, 3, 7, 12, 15, 9])
    assert abs(xeb(samples, probs).value) < 1e-12


def test_xeb_single_qubit_arithmetic():
    # two samples of outcome 0 with P(0) = 0.75: mean(2 * 0.75) - 1 = 0.5
    res = xeb(np.array([0, 0]), np.array([0.75, 0.25]))
    assert abs(res.value - 0.5) < 1e-12
    assert res.n_samples == 2
    np.testing.assert_allclose(res.rescaled, [1.5, 1.5])


def test_xeb_empty_raises():
    with pytest.raises(EmptySamples):
        xeb(np.array([], dtype=np.int64), np.full(4, 0.25))


def test_xeb_index_out_of_range_raises():
    # bitstrings are no longer outcomes either
    for samples in ([4], [-1], [0, 2, 9], ["00", "01"]):
        with pytest.raises(ValueError, match=r"integer outcome indices in \[0, 4\)"):
            xeb(np.array(samples), np.full(4, 0.25))


def test_xeb_probs_length_not_power_of_two_raises():
    for size in (0, 3, 6, 12):
        with pytest.raises(ValueError, match=r"length 2\^n"):
            xeb(np.array([0]), np.full(size, 0.1))


def test_xeb_reorder_invariance():
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(16))
    samples = rng.integers(16, size=40)
    a = xeb(samples, p).value
    b = xeb(samples[::-1], p).value
    assert a == b


def test_xeb_linear_in_empirical_distribution():
    # pooling two sample sets averages the estimates with count weights
    rng = np.random.default_rng(6)
    p = rng.dirichlet(np.ones(8))
    s1 = rng.integers(8, size=30)
    s2 = rng.integers(8, size=10)
    pooled = xeb(np.concatenate([s1, s2]), p).value
    parts = (30 * xeb(s1, p).value + 10 * xeb(s2, p).value) / 40
    assert abs(pooled - parts) < 1e-12


def test_xeb_on_exact_sampler_matches_second_moment():
    # sampling from the ideal distribution gives, in expectation, the
    # second-moment statistic 2^n sum P^2 - 1
    c = rg_circuit(10, 8, seed=42)
    state = run(c)
    probs = state.probabilities()
    stat = float(2 ** c.n * (probs ** 2).sum() - 1.0)
    rng = np.random.default_rng(7)
    shots = sample(state, 20000, rng)
    est = xeb(shots, probs).value
    assert abs(est - stat) < 0.05


# -------------------------------------------------- return probability

def test_return_probability_counts_matches():
    assert mb_hits(np.array([1, 1, 3, 1]), "01").mean() == 0.75
    assert mb_hits(np.array([0] * 5), "00").mean() == 1.0
    assert mb_hits(np.array([2] * 5), "00").mean() == 0.0
    np.testing.assert_array_equal(mb_hits(np.array([5, 4, 5]), "101"), [1.0, 0.0, 1.0])


def test_return_probability_empty_raises():
    with pytest.raises(EmptySamples):
        mb_hits(np.array([], dtype=np.int64), "01")


def test_return_probability_index_out_of_range_raises():
    for samples in ([4], [-1], [1, 7]):
        with pytest.raises(ValueError, match=r"indices in \[0, 4\)"):
            mb_hits(np.array(samples), "01")


def test_return_probability_noiseless_mirror():
    c = rg_circuit(6, 4, seed=11)
    m = build_mirror(c, seed=3)
    state = run(m)
    shots = sample(state, 300, np.random.default_rng(8))
    assert mb_hits(shots, m.initial_bits).mean() == 1.0


# ----------------------------------------------------- gate counting

def test_effective_infidelity_reference_values():
    # 1.25 * 15.7e-4 + 3 * 4.0e-4 = 3.1625e-3
    eps = effective_2q_infidelity(REFERENCE_PARAMS, 56)
    assert abs(eps - 3.1625e-3) < 1e-12
    assert abs(eps - 3.2e-3) < 1e-4


def test_effective_infidelity_no_memory_term():
    p = GateCountParams(eps_2q=2e-3, p_spam=0.0, eps_mem=0.0)
    assert effective_2q_infidelity(p, 30) == pytest.approx(2.5e-3, abs=1e-15)


def test_effective_infidelity_affine_coefficients():
    base = GateCountParams(eps_2q=1e-3, p_spam=0.0, eps_mem=1e-4)
    bumped2 = GateCountParams(eps_2q=2e-3, p_spam=0.0, eps_mem=1e-4)
    bumpedm = GateCountParams(eps_2q=1e-3, p_spam=0.0, eps_mem=2e-4)
    f0 = effective_2q_infidelity(base, 20)
    d2 = effective_2q_infidelity(bumped2, 20) - f0
    dm = effective_2q_infidelity(bumpedm, 20) - f0
    assert abs(d2 - 1.25e-3) < 1e-15
    assert abs(dm - 3e-4) < 1e-15


def test_gate_counting_reference_point():
    # (1 - 3.1625e-3)^{336} (1 - 14.7e-4)^{56} = 0.3177
    val = gate_counting(REFERENCE_PARAMS, 56, 12, apply_shift=False)
    assert abs(val - 0.3177) < 2e-4
    assert abs(val - 0.318) < 5e-3


def test_gate_counting_zero_depth_is_spam_only():
    val = gate_counting(REFERENCE_PARAMS, 56, 0, apply_shift=False)
    assert val == pytest.approx((1 - 14.7e-4) ** 56, rel=1e-12)


def test_gate_counting_shift_raises_value():
    # fewer counted gates, so the shifted prediction is larger
    raw = gate_counting(REFERENCE_PARAMS, 40, 10, apply_shift=False)
    shifted = gate_counting(REFERENCE_PARAMS, 40, 10, apply_shift=True)
    assert shifted > raw
    ratio = (1 - effective_2q_infidelity(REFERENCE_PARAMS, 40)) ** (40 * 1.12 / 2)
    assert raw / shifted == pytest.approx(ratio, rel=1e-9)


def test_gate_counting_monotone():
    vals_d = [gate_counting(REFERENCE_PARAMS, 30, d) for d in range(0, 20, 2)]
    assert all(a > b for a, b in zip(vals_d, vals_d[1:]))
    vals_n = [gate_counting(REFERENCE_PARAMS, n, 10) for n in range(10, 60, 10)]
    assert all(a > b for a, b in zip(vals_n, vals_n[1:]))


def test_gate_counting_shift_below_depth_raises():
    with pytest.raises(DomainError):
        gate_counting(REFERENCE_PARAMS, 10, 0.5, apply_shift=True)


def test_params_validation():
    with pytest.raises(ValueError):
        GateCountParams(eps_2q=1.5, p_spam=0.0)
    with pytest.raises(ValueError):
        GateCountParams(eps_2q=0.0, p_spam=0.0, delta=-1.0)


@given(st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=0.0, max_value=30.0))
@settings(max_examples=40, deadline=None)
def test_gate_counting_in_unit_interval(d1, d2):
    lo, hi = sorted([d1, d2])
    a = gate_counting(REFERENCE_PARAMS, 24, hi)
    b = gate_counting(REFERENCE_PARAMS, 24, lo)
    assert 0.0 <= a <= b <= 1.0


# ------------------------------------------------------- logistic fit

# logistic memory-error growth with register size, saturating at large n
_LOGISTIC = (4.1e-4, 20.0, 0.18)


def _logistic(n, a, n0, k):
    return a / (1.0 + np.exp(-k * (n - n0)))


def test_fit_logistic_noiseless_recovery():
    a, n0, k = _LOGISTIC
    sizes = np.arange(4, 60, 4)
    vals = _logistic(sizes, a, n0, k)
    fa, fn0, fk = fit_logistic(sizes, vals)
    assert fa == pytest.approx(a, rel=1e-6)
    assert fn0 == pytest.approx(n0, rel=1e-6)
    assert fk == pytest.approx(k, rel=1e-6)


def test_fit_logistic_noisy_recovery():
    a, n0, k = _LOGISTIC
    rng = np.random.default_rng(9)
    sizes = np.arange(4, 60, 4)
    vals = _logistic(sizes, a, n0, k) * (1 + 0.1 * rng.standard_normal(sizes.size))
    fa, fn0, fk = fit_logistic(sizes, vals)
    assert fa == pytest.approx(a, rel=0.2)
    assert fn0 == pytest.approx(n0, rel=0.2)
    assert fk == pytest.approx(k, rel=0.2)


def test_fit_logistic_constant_data_raises():
    sizes = np.arange(4, 40, 4)
    with pytest.raises(FitError):
        fit_logistic(sizes, np.full(sizes.size, 3e-4))


def test_fit_logistic_too_few_points():
    with pytest.raises(FitError):
        fit_logistic([10, 20], [1e-4, 2e-4])


# -------------------------------------------------- verifiable depth

def test_verifiable_depth_reference_value():
    # ln(100) / (3.2e-3 * 56) = 25.70
    d = verifiable_depth(3.2e-3, 1.0, 100.0, 56)
    assert d == pytest.approx(25.698, abs=0.01)


def test_verifiable_depth_equal_times_is_zero():
    assert verifiable_depth(1e-3, 2.0, 2.0, 10) == 0.0


def test_verifiable_depth_doubling_budget():
    base = verifiable_depth(2e-3, 1.0, 50.0, 20)
    doubled = verifiable_depth(2e-3, 1.0, 100.0, 20)
    assert doubled - base == pytest.approx(math.log(2) / (2e-3 * 20), rel=1e-9)


@pytest.mark.parametrize("eps,tau_q,t_q", [
    (math.inf, 1.0, 100.0), (math.nan, 1.0, 100.0), (1e-3, math.nan, 100.0),
    (1e-3, 1.0, math.nan), (1e-3, 1.0, math.inf)])
def test_verifiable_depth_rejects_non_finite(eps, tau_q, t_q):
    with pytest.raises(DomainError, match="must be finite"):
        verifiable_depth(eps, tau_q, t_q, 10)


def test_verifiable_depth_domain_errors():
    with pytest.raises(DomainError):
        verifiable_depth(1e-3, 2.0, 1.0, 10)
    with pytest.raises(DomainError):
        verifiable_depth(0.0, 1.0, 10.0, 10)
    with pytest.raises(DomainError):
        verifiable_depth(1e-3, -1.0, 10.0, 10)
