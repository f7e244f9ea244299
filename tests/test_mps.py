import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    evolve_full_merge_reference,
    rg_circuit,
    split_amplitude_full_merge_reference,
)
from rcsw import mps, statevector
from rcsw.circuits import Circuit, Layer, OneQubitGate, TwoQubitGate, build_instance
from rcsw.errors import CapacityError, DomainError, FitError
from rcsw.mps import (
    MPS_CSV_HEADER,
    blocking_label,
    bond_bound,
    epsilon_vs_chi,
    evolve,
    mps_overlap,
    split_amplitude,
    topk_postprocess,
)


def max_state_error(state, sv):
    return float(np.max(np.abs(state.to_statevector().amplitudes - sv.amplitudes)))


@pytest.mark.parametrize("blocking", [1, 2, 3, 4, 8, [[7, 6, 5, 4], [3, 2, 1, 0]]])
def test_exact_chi_matches_statevector(blocking):
    c = rg_circuit(8, 4, seed=5)
    sv = statevector.run(c)
    state, report = evolve(c, 16, blocking)
    state.validate()
    assert max_state_error(state, sv) < 1e-10
    assert report.f_mps == 1.0
    assert report.eps_mps == 0.0


def test_exact_chi_no_truncation_events():
    c = rg_circuit(10, 5, seed=6)
    state, _ = evolve(c, 2 ** 5, 2)
    assert state.counters.svds > 0
    assert state.counters.disc_max == 0.0
    assert state.counters.disc_sum == 0.0


def test_product_layer_chi_one():
    gates = tuple(OneQubitGate(q, 0.3 * q, 0.7, 1.1) for q in range(4))
    c = Circuit(n=4, layers=(Layer("1q", gates),))
    sv = statevector.run(c)
    state, report = evolve(c, 1, 2)
    assert max_state_error(state, sv) < 1e-12
    assert report.eps_mps == 0.0


def test_blocks_restored_after_routing():
    # blocks far apart in the chain force swap-to-adjacency and back
    c = rg_circuit(8, 4, seed=7)
    state, _ = evolve(c, 8, 4, seed=3)
    from rcsw.mps import _resolve_blocking
    assert state.blocks == _resolve_blocking(c, 4, 3)
    assert state.counters.swaps > 0


def test_gate_log_covers_all_gates():
    c = rg_circuit(8, 3, seed=8)
    state, _ = evolve(c, 16, 2)
    assert state.counters.gates_2q == c.n_2q
    assert state.counters.gates_1q == sum(
        len(lay.gates) for lay in c.layers if lay.kind == "1q")


def test_truncation_shrinks_f_acc_and_keeps_norm():
    c = rg_circuit(10, 6, seed=9)
    state, report = evolve(c, 2, 2)
    assert 0.0 < report.f_mps < 1.0
    assert 0.0 < report.eps_mps < 1.0
    assert state.max_bond <= 2
    assert abs(np.linalg.norm(state.to_statevector().amplitudes) - 1.0) < 1e-10


def test_f_acc_tracks_true_overlap():
    # the per-step discarded weights compound into a usable fidelity estimate
    for seed in (21, 22, 23):
        c = rg_circuit(10, 6, seed=seed)
        sv = statevector.run(c)
        state, report = evolve(c, 4, 2)
        f_true = abs(np.vdot(state.to_statevector().amplitudes, sv.amplitudes)) ** 2
        assert report.f_mps == pytest.approx(f_true, rel=0.35)


def test_eps_non_increasing_in_chi():
    c = rg_circuit(10, 6, seed=10)
    eps = [evolve(c, chi, 2)[1].eps_mps for chi in (2, 4, 8, 32)]
    for lo, hi in zip(eps, eps[1:]):
        assert hi <= lo + 1e-12
    assert eps[-1] == 0.0


def test_f_acc_bounded_by_chi_times_purity():
    # deep circuits: the purity saturates while the accumulated fidelity
    # keeps decaying, so the bound has a wide margin
    for chi in (2, 4):
        for seed in (31, 32):
            c = rg_circuit(10, 8, seed=seed)
            sv = statevector.run(c)
            state, report = evolve(c, chi, 2, seed=seed)
            for j in range(len(state.blocks) - 1):
                cut = [q for blk in state.blocks[:j + 1] for q in blk]
                purity = statevector.bipartite_purity(sv, cut)
                assert report.f_mps <= chi * purity + 1e-12


def test_flops_positive_and_report_csv():
    c = rg_circuit(8, 4, seed=12)
    _, report = evolve(c, 4, 4, seed=12)
    assert report.flops_est > 0
    row = report.csv_row()
    assert len(row.split(",")) == len(MPS_CSV_HEADER.split(","))
    assert row.startswith("8,4,4,4x[2],")


def test_flops_count_every_qr(monkeypatch):
    # moving the orthogonality center takes QRs too; flops_est counts them
    c = rg_circuit(10, 6, seed=12)
    calls = {"numpy": 0, "counted": 0, "shifts": 0}
    numpy_qr, counted_qr, shift_left = np.linalg.qr, mps._qr, mps._shift_left

    def spy(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(np.linalg, "qr", spy("numpy", numpy_qr))
    monkeypatch.setattr(mps, "_qr", spy("counted", counted_qr))
    monkeypatch.setattr(mps, "_shift_left", spy("shifts", shift_left))
    evolve(c, 4, 4, seed=12)
    assert calls["shifts"] > 0
    assert calls["counted"] == calls["numpy"]


def test_evolve_validation():
    c = rg_circuit(6, 3, seed=13)
    with pytest.raises(ValueError):
        evolve(c, 0, 2)
    with pytest.raises(ValueError):
        evolve(c, 4, [[0, 1], [2, 3]])  # misses qubits 4, 5
    with pytest.raises(ValueError):
        evolve(c, 4, [[0, 1, 2, 3, 4], [5]])  # unbalanced


def test_capacity_error_on_merge():
    c = rg_circuit(10, 3, seed=14)
    with pytest.raises(CapacityError):
        evolve(c, 64, 2, cap=8)


def test_capacity_error_on_densify():
    c = rg_circuit(10, 3, seed=15)
    state, _ = evolve(c, 4, 2)
    with pytest.raises(CapacityError):
        state.to_statevector(cap=8)


@pytest.mark.parametrize("n,d", [(8, 4), (8, 5), (10, 4)])
def test_split_amplitude_exact(n, d):
    c = rg_circuit(n, d, seed=40 + d)
    sv = statevector.run(c)
    rng = np.random.default_rng(d)
    x = "".join(str(b) for b in rng.integers(0, 2, size=n))
    amp, fid = split_amplitude(c, x, 2 ** (n // 2), 2)
    assert amp == pytest.approx(abs(sv.amplitude(x)), abs=1e-10)
    assert fid == 1.0


def test_split_amplitude_empty_circuit_is_indicator():
    c = Circuit(n=5, layers=())
    assert split_amplitude(c, "00000", 2, 2) == (1.0, 1.0)
    amp, fid = split_amplitude(c, "00100", 2, 2)
    assert amp == 0.0 and fid == 1.0


def test_split_amplitude_truncated():
    c = rg_circuit(10, 6, seed=41)
    amp, fid = split_amplitude(c, "0" * 10, 3, 2)
    assert 0.0 < fid < 1.0
    assert amp >= 0.0


def test_split_amplitude_rejects_bad_bitstring():
    c = rg_circuit(6, 3, seed=42)
    with pytest.raises(ValueError):
        split_amplitude(c, "0101", 4, 2)


def test_mps_overlap_requires_same_layout():
    c = rg_circuit(6, 3, seed=43)
    a, _ = evolve(c, 8, 2)
    b, _ = evolve(c, 8, 3)
    with pytest.raises(ValueError):
        mps_overlap(a, b)
    assert mps_overlap(a, a) == pytest.approx(1.0, abs=1e-10)


def test_bond_bound_values():
    assert bond_bound(1.0, 2.0 ** -7) == pytest.approx(128.0)
    assert bond_bound(0.25, 1.0) == 0.25
    with pytest.raises(DomainError):
        bond_bound(0.5, 0.0)
    with pytest.raises(DomainError):
        bond_bound(0.5, 1.5)
    with pytest.raises(DomainError):
        bond_bound(1.2, 0.5)


def test_topk_baseline_and_enrichment():
    c = rg_circuit(8, 6, seed=50)
    probs = statevector.run(c).probabilities()
    rng = np.random.default_rng(51)
    cand = rng.integers(0, 2 ** 8, size=400)
    exact = probs[cand]
    base = topk_postprocess(exact, exact, 8, alpha=1.0, shots=4000, seed=52)
    assert base == pytest.approx(1.0, abs=0.35)
    rich = topk_postprocess(exact, exact, 8, alpha=0.25, shots=4000, seed=52)
    assert rich > base


def test_topk_validation():
    with pytest.raises(ValueError):
        topk_postprocess([0.1], [0.1], 4, alpha=0.0, shots=10)
    with pytest.raises(ValueError):
        topk_postprocess([0.1, 0.2], [0.1], 4, alpha=0.5, shots=10)
    with pytest.raises(ValueError):
        topk_postprocess([], [], 4, alpha=1.0, shots=10)


def test_epsilon_vs_chi_rows_and_extrapolation():
    circuits = [rg_circuit(10, 6, seed=60 + s) for s in range(4)]
    scan = epsilon_vs_chi(circuits, [2, 4, 8], 2)
    assert len(scan.rows) == 3
    meds = [r.eps_median for r in scan.rows]
    assert meds == sorted(meds, reverse=True)
    target = meds[-1] / 2.0
    assert scan.extrapolate_chi(target) > 8.0


def test_epsilon_vs_chi_flat_rates_unfittable():
    circuits = [rg_circuit(8, 3, seed=61)]
    scan = epsilon_vs_chi(circuits, [16, 32], 2)  # exact in both cases
    with pytest.raises(FitError):
        scan.extrapolate_chi(1e-3)
    with pytest.raises(ValueError):
        epsilon_vs_chi(circuits, [4], 2)


def test_epsilon_vs_chi_multiple_blockings():
    circuits = [rg_circuit(8, 4, seed=62)]
    scan = epsilon_vs_chi(circuits, [2, 4], [2, 4])
    labels = {r.blocking for r in scan.rows}
    assert labels == {"2x[4]", "4x[2]"}
    assert len(scan.rows) == 4


def test_blocking_label_forms():
    assert blocking_label([[0, 1], [2, 3]]) == "2x[2]"
    assert blocking_label([[0, 1], [2]]) == "2x[2/1]"


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_exact_chi_random_circuits(half_n, d, seed):
    n = 2 * half_n  # even, so n*d is always even and any d < n is valid
    c = rg_circuit(n, min(d, n - 1), seed=seed)
    sv = statevector.run(c)
    state, report = evolve(c, 2 ** half_n, 2, seed=seed)
    assert max_state_error(state, sv) < 1e-10
    assert report.eps_mps == 0.0


def test_integral_seeds_recorded():
    c = rg_circuit(6, 3, seed=13)
    for seed in (3, np.int64(3), np.uint8(3)):
        _, report = evolve(c, 4, 2, seed=seed)
        assert report.seed == 3 and type(report.seed) is int
        assert report.csv_row().endswith(",3")
    assert evolve(c, 4, 2, seed=np.random.SeedSequence(3))[1].seed is None


def _eps(f: float, n2q: int) -> float:
    return 0.0 if n2q == 0 or f == 1.0 else 1.0 - f ** (1.0 / n2q)


def _assert_matches_full_merge(c, chi, blocking, seed, monkeypatch):
    """The reduced update against the full-merge reference: same fidelity
    accounting, same state, and no SVD larger than 2 chi x 2 chi except the
    block swaps."""
    shapes = []
    svd = mps._svd

    def recording_svd(mat):
        shapes.append(mat.shape)
        return svd(mat)

    monkeypatch.setattr(mps, "_svd", recording_svd)
    state, report = evolve(c, chi, blocking, seed=seed)
    monkeypatch.undo()
    ref = evolve_full_merge_reference(c, chi, blocking, seed=seed)
    assert report.f_mps == pytest.approx(ref.f_acc, rel=1e-12, abs=0.0)
    assert report.eps_mps == pytest.approx(_eps(ref.f_acc, c.n_2q), rel=1e-12, abs=0.0)
    err = np.abs(state.to_statevector().amplitudes - ref.to_statevector().amplitudes)
    assert float(np.max(err)) < 1e-10
    cnt = state.counters
    assert (cnt.svds, cnt.swaps, cnt.gates_2q) == \
        (ref.counters.svds, ref.counters.swaps, ref.counters.gates_2q)
    assert cnt.disc_sum == pytest.approx(ref.counters.disc_sum, rel=1e-12, abs=1e-15)
    large = [sh for sh in shapes if max(sh) > 2 * chi]
    assert len(shapes) == cnt.svds and len(large) <= cnt.swaps
    return state, report, ref


@pytest.mark.parametrize("blocking", [2, 3, 4, [[7, 6, 5, 4], [3, 2, 1, 0]]])
@pytest.mark.parametrize("chi", [2, 4, 16])
def test_reduced_update_matches_full_merge(blocking, chi, monkeypatch):
    c = rg_circuit(8, 5, seed=70)
    state, report, _ = _assert_matches_full_merge(c, chi, blocking, 70, monkeypatch)
    assert (report.f_mps == 1.0) == (chi == 16)
    if not isinstance(blocking, int):
        # cross-block gates whose first qubit sits in the right-hand block
        assert any(state.locate(g.q0)[0] > state.locate(g.q1)[0]
                   for lay in c.two_qubit_layers() for g in lay.gates)


@pytest.mark.parametrize("chi", [3, 32])
def test_reduced_update_zero_and_pi_angles(chi, monkeypatch):
    c = rg_circuit(10, 6, seed=71)
    layers = []
    for lay in c.layers:
        if lay.kind == "2q":
            lay = Layer("2q", tuple(TwoQubitGate(g.q0, g.q1, (0.0, math.pi, g.theta)[k % 3])
                                    for k, g in enumerate(lay.gates)))
        layers.append(lay)
    c = dataclasses.replace(c, layers=tuple(layers))
    _assert_matches_full_merge(c, chi, 2, 71, monkeypatch)
    _assert_matches_full_merge(c, chi, 3, 71, monkeypatch)


@pytest.mark.parametrize("seed", range(8))
def test_reduced_update_matches_full_merge_on_benchmark_instances(seed, monkeypatch):
    # every cross-block gate is a reduced update at 2 blocks; at 4 blocks the
    # reference's time goes to the swaps both paths share, so one chi suffices
    c = build_instance("rg", 16, 8, seed)
    for chi, blocks in ((8, 2), (16, 2), (32, 2), (8, 4)):
        _, report, ref = _assert_matches_full_merge(c, chi, blocks, seed, monkeypatch)
        assert report.flops_est < ref.flops


@pytest.mark.parametrize("chi", [3, 32])
def test_split_amplitude_matches_full_merge(chi):
    c = rg_circuit(10, 5, seed=72)
    x = "0110100111"
    for blocking in (2, 3):
        amp, fid = split_amplitude(c, x, chi, blocking, seed=72)
        ref_amp, ref_fid = split_amplitude_full_merge_reference(c, x, chi, blocking, seed=72)
        assert amp == pytest.approx(ref_amp, abs=1e-10)
        assert fid == pytest.approx(ref_fid, rel=1e-12, abs=0.0)
        assert (fid < 1.0) == (chi == 3)


def test_capacity_error_matches_full_merge():
    c = rg_circuit(10, 3, seed=14)
    raised = []
    for cap in range(6, 12):
        outcomes = []
        for run in (evolve, evolve_full_merge_reference):
            try:
                run(c, 64, 3, seed=14, cap=cap)
                outcomes.append(False)
            except CapacityError:
                outcomes.append(True)
        assert outcomes[0] == outcomes[1], cap
        raised.append(outcomes[0])
    assert raised[0] and not raised[-1]
