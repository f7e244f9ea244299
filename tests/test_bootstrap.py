import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps

from rcsw.bootstrap import (
    _SIGMA_HI,
    _SIGMA_LO,
    COVERAGE_CSV_HEADER,
    BootCI,
    CoverageResult,
    ExperimentModel,
    ShotTable,
    bootstrap_ci,
    coverage,
    p_aggregate,
    p_double,
    _percentiles,
)
from rcsw.errors import EmptyTable


def test_p_aggregate_values():
    assert p_aggregate(0, 1000) == pytest.approx((1.0 - 1e-3) ** 1000, rel=1e-12)
    assert p_aggregate(0, 1000) == pytest.approx(0.3677, abs=1e-4)
    assert p_aggregate(1, 1) == 1.0
    assert p_aggregate(0, 1) == 0.0


@pytest.mark.parametrize("n_s", [1, 7, 50])
def test_p_aggregate_normalized(n_s):
    total = sum(p_aggregate(k, n_s) for k in range(n_s + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_p_aggregate_validation():
    with pytest.raises(ValueError):
        p_aggregate(-1, 10)
    with pytest.raises(ValueError):
        p_aggregate(11, 10)
    with pytest.raises(ValueError):
        p_aggregate(0, 0)


def test_p_double_reduces_to_aggregate_at_one_job():
    for k in range(21):
        assert p_double(k, 1, 20) == pytest.approx(p_aggregate(k, 20), rel=1e-12)


def test_p_double_reduces_to_aggregate_at_one_shot():
    for k in range(11):
        assert p_double(k, 10, 1) == pytest.approx(p_aggregate(k, 10), rel=1e-12)


@pytest.mark.parametrize("n_jobs,n_per", [(5, 6), (10, 20), (50, 20)])
def test_p_double_normalized(n_jobs, n_per):
    total = sum(p_double(k, n_jobs, n_per) for k in range(n_jobs * n_per + 1))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_p_double_matches_partition_sum():
    # literal nested sum: the outer stage draws the parent circuit j times,
    # each copy independently resamples shots, and the copy counts
    # partition k; compositions are ordered because copies are distinct
    n_jobs, n_per = 5, 6
    q = 1.0 / n_per
    for k in range(5):
        expect = 0.0
        for j in range(n_jobs + 1):
            outer = sps.binom.pmf(j, n_jobs, 1.0 / n_jobs)
            if j == 0:
                expect += outer * (1.0 if k == 0 else 0.0)
                continue
            inner = 0.0
            for parts in itertools.product(range(k + 1), repeat=j):
                if sum(parts) != k:
                    continue
                inner += math.prod(sps.binom.pmf(p, n_per, q) for p in parts)
            expect += outer * inner
        assert p_double(k, n_jobs, n_per) == pytest.approx(expect, rel=1e-10)


def test_p_double_matches_monte_carlo():
    n_jobs, n_per, trials = 10, 20, 4000
    rng = np.random.default_rng(77)
    ids = rng.integers(0, n_jobs, size=(trials, n_jobs))
    jcount = (ids == 0).sum(axis=1)
    counts = rng.binomial(jcount * n_per, 1.0 / n_per)
    for k in range(5):
        p = p_double(k, n_jobs, n_per)
        freq = float(np.mean(counts == k))
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(freq - p) < 3.0 * sigma


def _percentile_cases():
    rng = np.random.default_rng(0)
    yield np.array([0.3])
    yield np.array([-0.0])
    yield np.array([2.0, -1.0])
    yield np.array([1.0, 1.0])
    yield np.array([0.5, 0.5, 0.25, 0.5, 0.25, 0.75])  # ties
    yield rng.integers(-2, 3, size=1000).astype(float)  # r = 1000, heavy ties
    for n in (3, 7, 100, 101, 300, 1000, 1001):
        yield rng.normal(size=n) * 10.0 ** rng.integers(-5, 5)


@pytest.mark.parametrize("x", list(_percentile_cases()), ids=str)
def test_percentiles_match_numpy_bitwise(x):
    for q in ([_SIGMA_LO, _SIGMA_HI], [0.0, 50.0, 100.0]):
        got = _percentiles(x.copy(), q)
        expect = np.percentile(x, q)
        assert np.array(got).tobytes() == expect.tobytes()
        assert all(type(g) is type(e) for g, e in zip(got, expect))


def test_shot_table_validation():
    with pytest.raises(EmptyTable):
        ShotTable(())
    with pytest.raises(EmptyTable):
        ShotTable(([1.0, 2.0], []))
    with pytest.raises(ValueError):
        ShotTable(([1.0, float("nan")],))
    t = ShotTable.from_matrix([[1.0, 2.0], [3.0, 4.0]])
    assert t.circuits.shape == (2, 2)
    assert t.pooled().tolist() == [1.0, 2.0, 3.0, 4.0]


def test_constant_data_zero_width():
    table = ShotTable.from_matrix(np.full((3, 10), 2.5))
    for method in ("aggregate", "double"):
        ci = bootstrap_ci(table, method=method, r=200, seed=1)
        assert ci.estimate == 2.5
        assert ci.lo == ci.hi == 2.5


def test_reflection_identity():
    rng = np.random.default_rng(2)
    table = ShotTable.from_matrix(rng.normal(size=(10, 30)))
    ci = bootstrap_ci(table, method="aggregate", r=500, seed=3)
    assert ci.lo == 2.0 * ci.estimate - ci.q_hi
    assert ci.hi == 2.0 * ci.estimate - ci.q_lo
    mid = 0.5 * (ci.lo + ci.hi)
    assert mid == pytest.approx(2.0 * ci.estimate - 0.5 * (ci.q_lo + ci.q_hi),
                                abs=1e-12)
    assert ci.lo <= ci.hi


def test_bootstrap_validation():
    table = ShotTable.from_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        bootstrap_ci(table, r=50)
    with pytest.raises(ValueError):
        bootstrap_ci(table, method="jackknife", r=200)


def test_width_scales_with_root_samples():
    rng = np.random.default_rng(4)
    widths = []
    sizes = [200, 800, 3200]
    for m in sizes:
        table = ShotTable((rng.normal(size=m),))
        ci = bootstrap_ci(table, method="aggregate", r=2000, seed=5)
        widths.append(ci.width)
    slope = np.polyfit(np.log(sizes), np.log(widths), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_double_wider_under_circuit_spread():
    # per-circuit means differ strongly, so circuit resampling adds variance
    rng = np.random.default_rng(6)
    rows = [rng.normal(loc=rng.normal(0.0, 1.0), scale=0.1, size=20)
            for _ in range(30)]
    table = ShotTable(tuple(rows))
    wa = bootstrap_ci(table, method="aggregate", r=800, seed=7).width
    wd = bootstrap_ci(table, method="double", r=800, seed=7).width
    assert wd > 1.5 * wa


def test_single_circuit_methods_agree():
    rng = np.random.default_rng(8)
    table = ShotTable((rng.normal(size=400),))
    wa = bootstrap_ci(table, method="aggregate", r=3000, seed=9).width
    wd = bootstrap_ci(table, method="double", r=3000, seed=10).width
    assert wd == pytest.approx(wa, rel=0.25)


def test_ragged_table_rejected():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError, match="same number of shots"):
        ShotTable((rng.normal(size=10), rng.normal(size=25)))


def test_experiment_model_validation():
    with pytest.raises(ValueError):
        ExperimentModel(mu=-0.1, base_eps=1e-3, n_gates=10)
    with pytest.raises(ValueError):
        ExperimentModel(mu=0.1, base_eps=2.0, n_gates=10)
    with pytest.raises(ValueError):
        ExperimentModel(mu=0.1, base_eps=1e-3, n_gates=10, observable="spam")
    m = ExperimentModel(mu=0.0, base_eps=1e-3, n_gates=10)
    assert m.fidelity(2.0) == 0.0
    assert m.fidelity(-1.0) == 1.0


def test_shot_means_track_fidelity():
    rng = np.random.default_rng(15)
    xeb = ExperimentModel(mu=0.0, base_eps=2e-3, n_gates=100, observable="xeb")
    vals = xeb.draw_shots(rng, 0.7, 200_000)
    assert float(vals.mean()) == pytest.approx(0.7, abs=0.02)
    mb = ExperimentModel(mu=0.0, base_eps=2e-3, n_gates=100, observable="mb")
    hits = mb.draw_shots(rng, 0.7, 200_000)
    assert set(np.unique(hits)) <= {0.0, 1.0}
    assert float(hits.mean()) == pytest.approx(0.7, abs=0.01)


def test_grand_mean_quadrature():
    flat = ExperimentModel(mu=0.0, base_eps=2e-3, n_gates=100)
    assert flat.grand_mean() == pytest.approx((1.0 - 2e-3) ** 100, rel=1e-12)
    spread = ExperimentModel(mu=0.3, base_eps=2e-3, n_gates=100)
    rng = np.random.default_rng(16)
    eps = rng.normal(2e-3, 0.3 * 2e-3, size=400_000)
    mc = float(np.mean((1.0 - np.clip(eps, 0.0, 1.0)) ** 100))
    assert spread.grand_mean() == pytest.approx(mc, rel=2e-3)


def test_coverage_mb_flat_model():
    model = ExperimentModel(mu=0.0, base_eps=2e-3, n_gates=100, observable="mb")
    res = coverage(model, n_experiments=200, circuits=20, shots=10,
                   r=150, seed=17)
    assert res.aggregate >= 0.58
    assert res.double >= 0.58
    rows = res.csv_rows()
    assert len(rows) == 2
    assert all(len(r.split(",")) == len(COVERAGE_CSV_HEADER.split(","))
               for r in rows)
    assert rows[0].startswith("mb,0.0,aggregate,")


def test_coverage_validation():
    model = ExperimentModel(mu=0.0, base_eps=1e-3, n_gates=10)
    with pytest.raises(ValueError):
        coverage(model, n_experiments=0)
