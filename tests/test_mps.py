import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evolve_full_merge_reference, rg_circuit
from rcsw import cli, mps, statevector
from rcsw.circuits import (ZZ_ANGLE, Circuit, Layer, OneQubitGate, TwoQubitGate,
                           build_instance)
from rcsw.errors import CapacityError, FitError
from rcsw.estimators import REFERENCE_PARAMS
from rcsw.mps import MPS_CSV_HEADER, blocking_label, evolve


def max_state_error(state, sv):
    return float(np.max(np.abs(state.to_statevector().amplitudes - sv.amplitudes)))


@pytest.mark.parametrize("blocking", [1, 2, 3, 4, 8])
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


def test_nearly_exact_run_keeps_a_positive_eps():
    # the discarded weight leaves f_acc = 1 - 2^-53, whose cube root rounds
    # to 1.0; eps_mps must stay positive since f_mps is not 1
    one = Layer("1q", tuple(OneQubitGate(q, 0.0, 1e-4, 0.0) for q in range(4)))
    c = Circuit(n=4, layers=(one, Layer("2q", (TwoQubitGate(0, 1), TwoQubitGate(2, 3))),
                             one, Layer("2q", (TwoQubitGate(1, 2),)), one))
    _, report = evolve(c, 1, 4)
    assert report.f_mps == 1.0 - 2.0 ** -53
    assert report.eps_mps == pytest.approx(2.0 ** -53 / 3, rel=1e-12)


def test_in_block_phase_equals_exp_bitwise():
    # the phase read from ZZ_PHASES has the bits of exp(-i(ZZ_ANGLE/2) z_a z_b)
    # for every ordered pair of a block's qubits, hence every bit pair
    block = [2, 0, 1]
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(1, 8, 2)) + 1j * rng.normal(size=(1, 8, 2))
    z = 1.0 - 2.0 * ((np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1)
    for qa, qb in itertools.permutations(block, 2):
        state = mps.MpsState(n=3, blocks=[block], tensors=[arr], chi=2)
        mps._apply_zz(state, qa, qb)
        za, zb = z[:, block.index(qa)], z[:, block.index(qb)]
        want = np.exp(-0.5j * ZZ_ANGLE * za * zb)[:, None] * arr
        assert state.tensors[0].tobytes() == want.tobytes()


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
        evolve(c, 4, 0)  # no blocks
    with pytest.raises(ValueError):
        evolve(c, 4, 7)  # more blocks than qubits


def test_capacity_error_on_merge(monkeypatch):
    c = rg_circuit(10, 3, seed=14)
    monkeypatch.setattr(mps, "DEFAULT_CAP", 8)
    with pytest.raises(CapacityError):
        evolve(c, 64, 2)


def test_capacity_error_on_single_block(monkeypatch):
    # one block never merges, so the cap is checked on the block itself,
    # before the chain is allocated
    c = rg_circuit(6, 3, seed=14)
    monkeypatch.setattr(mps, "DEFAULT_CAP", 4)

    def unreachable(*args):
        raise AssertionError("the chain was allocated")

    monkeypatch.setattr(mps, "_fresh_state", unreachable)
    with pytest.raises(CapacityError, match="block at position 0 needs 64 elements"):
        evolve(c, 8, 1)


def test_capacity_error_on_densify(monkeypatch):
    c = rg_circuit(10, 3, seed=15)
    state, _ = evolve(c, 4, 2)
    monkeypatch.setattr(mps, "DEFAULT_CAP", 8)
    with pytest.raises(CapacityError):
        state.to_statevector()


def _scan(tmp_path, capsys, *flags):
    """rcsw mps at n=8: the mps_scan.csv rows, split, and empty stderr."""
    assert cli.main(["mps", "--n", "8", *flags, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "mps_scan.csv").read_text().splitlines()
    assert lines[0] == "N,d,blocking,chi,eps_median,eps_std,n_runs,chi_h2"
    return [line.split(",") for line in lines[1:]]


def test_mps_scan_rows_and_extrapolation(tmp_path, capsys):
    rows = _scan(tmp_path, capsys, "--d", "4", "--instances", "3",
                 "--chi", "8", "2", "4", "--seed", "60")
    assert [(r[2], int(r[3]), int(r[6])) for r in rows] == \
        [("2x[4]", 2, 3), ("2x[4]", 4, 3), ("2x[4]", 8, 3)]
    meds = [float(r[4]) for r in rows]
    assert meds == sorted(meds, reverse=True)
    scan = mps.ChiScan(tuple(mps.ChiScanRow(int(r[3]), r[2], float(r[4]), float(r[5]))
                             for r in rows))
    chi_h2 = scan.extrapolate_chi(REFERENCE_PARAMS.eps_2q)
    assert chi_h2 > 8.0
    assert {r[7] for r in rows} == {repr(chi_h2)}


def test_mps_scan_flat_rates_leave_chi_empty(tmp_path, capsys):
    rows = _scan(tmp_path, capsys, "--d", "3", "--chi", "16", "32", "--seed", "61")
    assert [(r[4], r[7]) for r in rows] == [("0.0", ""), ("0.0", "")]  # exact at both


def test_mps_scan_single_chi_leaves_chi_empty(tmp_path, capsys):
    rows = _scan(tmp_path, capsys, "--d", "4", "--chi", "4")
    assert len(rows) == 1 and rows[0][7] == ""


def test_mps_scan_groups_each_blocking(tmp_path, capsys):
    rows = _scan(tmp_path, capsys, "--d", "4", "--chi", "2", "4", "--blocks", "2", "4",
                 "--seed", "62")
    assert [(r[2], r[3]) for r in rows] == \
        [("2x[4]", "2"), ("2x[4]", "4"), ("4x[2]", "2"), ("4x[2]", "4")]
    assert rows[0][7] == rows[1][7] != rows[2][7] == rows[3][7] != ""


def test_mps_scan_needs_an_instance(tmp_path, capsys):
    with pytest.raises(FitError, match="two distinct bond dimensions"):
        mps.ChiScan(()).extrapolate_chi(REFERENCE_PARAMS.eps_2q)
    out = tmp_path / "never"
    assert cli.main(["mps", "--n", "8", "--instances", "0", "--out", str(out)]) == 2
    assert "instances" in capsys.readouterr().err
    assert not out.exists()


def test_extrapolate_chi_rejects_target_outside_unit_interval():
    scan = mps.ChiScan((mps.ChiScanRow(4, "2x[4]", 1e-2, 0.0),
                        mps.ChiScanRow(8, "2x[4]", 5e-3, 0.0)))
    assert scan.extrapolate_chi(1e-3) > 8.0
    for target in (float("nan"), float("inf"), -1.0, 0.0, 1.0):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            scan.extrapolate_chi(target)


def test_extrapolate_chi_beyond_float_range_is_a_fit_error():
    scan = mps.ChiScan((mps.ChiScanRow(4, "2x[4]", 0.5, 0.0),
                        mps.ChiScanRow(8, "2x[4]", 0.5 - 1e-15, 0.0)))
    with pytest.raises(FitError, match="overflows"):
        scan.extrapolate_chi(1e-3)


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


@pytest.mark.parametrize("blocking", [2, 3, 4])
@pytest.mark.parametrize("chi", [2, 4, 16])
def test_reduced_update_matches_full_merge(blocking, chi, monkeypatch):
    c = rg_circuit(8, 5, seed=70)
    state, report, _ = _assert_matches_full_merge(c, chi, blocking, 70, monkeypatch)
    assert (report.f_mps == 1.0) == (chi == 16)
    if blocking in (2, 3):
        # the partition puts some gates' first qubit in the right-hand block
        assert any(state.locate(g.q0)[0] > state.locate(g.q1)[0]
                   for lay in c.two_qubit_layers() for g in lay.gates)


@pytest.mark.parametrize("seed", range(8))
def test_reduced_update_matches_full_merge_on_benchmark_instances(seed, monkeypatch):
    # every cross-block gate is a reduced update at 2 blocks; at 4 blocks the
    # reference's time goes to the swaps both paths share, so one chi suffices
    c = build_instance("rg", 16, 8, seed)
    for chi, blocks in ((8, 2), (16, 2), (32, 2), (8, 4)):
        _, report, ref = _assert_matches_full_merge(c, chi, blocks, seed, monkeypatch)
        assert report.flops_est < ref.flops


def test_capacity_error_matches_full_merge(monkeypatch):
    c = rg_circuit(10, 3, seed=14)
    raised = []
    for cap in range(6, 12):
        monkeypatch.setattr(mps, "DEFAULT_CAP", cap)
        outcomes = []
        for run in (evolve, evolve_full_merge_reference):
            try:
                run(c, 64, 3, seed=14)
                outcomes.append(False)
            except CapacityError:
                outcomes.append(True)
        assert outcomes[0] == outcomes[1], cap
        raised.append(outcomes[0])
    assert raised[0] and not raised[-1]
