"""Tests for dense simulation, sampling, purity, and trajectories."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcsw import graphs, statevector
from rcsw.circuits import (
    Circuit, Layer, OneQubitGate, TwoQubitGate, build_2d_circuit,
    build_brickwork_circuit, build_instance, build_mirror,
)
from rcsw.errors import CapacityError
from rcsw.statevector import (
    _TAIL, NoiseModel, StateVector, _compile, _draw_errors, _PhaseLayer,
    _run_layers, _two_qubit_gates, _zz_view, bipartite_purity, run,
    run_trajectories, sample,
)
from helpers import (
    apply_circuit_reference, apply_zz_layer_reference, dense_unitary,
    draw_errors_reference, initial_state_reference, rg_circuit,
    run_trajectories_reference,
)


def _reference_circuits():
    rg = rg_circuit(8, 4, 3)
    yield "rg", rg
    yield "2d", build_instance("2d", 9, 5, 4)
    yield "brickwork", build_brickwork_circuit(7, 5, 5)
    yield "mirror", build_mirror(rg, seed=6)
    # classes 1 and 3 are empty on this 2x2 patch: 2q layers without gates
    yield "plaquette", build_2d_circuit(graphs.make_grid(4, (0.0, 0.0), 0.0), 4, 2)
    # partial and empty 1q layers, two gates on one qubit, a reversed ZZ pair
    yield "custom", Circuit(n=5, layers=(
        Layer("1q", (OneQubitGate(0, 0.3, 0.5, 0.7), OneQubitGate(2, 0.1, 0.2, 0.3),
                     OneQubitGate(0, 1.1, 0.4, -0.2))),
        Layer("2q", (TwoQubitGate(2, 0), TwoQubitGate(4, 3))),
        Layer("1q", ()),
        Layer("2q", (TwoQubitGate(1, 4),)),
        Layer("1q", (OneQubitGate(4, 0.9, 1.2, 0.1),))))


class TestRun:
    def test_matches_dense_unitary(self):
        for seed in range(4):
            c = rg_circuit(6, 3, seed)
            state = run(c).amplitudes
            expect = dense_unitary(c)[:, 0]
            assert np.max(np.abs(state - expect)) < 1e-12

    def test_initial_bits(self):
        c = rg_circuit(4, 3, 0)
        from dataclasses import replace
        c_bits = replace(c, initial_bits="0110")
        state = run(c_bits).amplitudes
        expect = dense_unitary(c)[:, int("0110", 2)]
        assert np.max(np.abs(state - expect)) < 1e-12

    def test_norm_preserved(self):
        c = rg_circuit(8, 4, 3)
        assert np.sum(run(c).probabilities()) == pytest.approx(1.0, abs=1e-12)

    def test_cap(self, monkeypatch):
        c = rg_circuit(8, 3, 1)
        monkeypatch.setattr(statevector, "DEFAULT_CAP", 6)
        with pytest.raises(CapacityError):
            run(c)

    def test_mirror_returns_bits(self):
        half = rg_circuit(8, 3, 5)
        m = build_mirror(half, seed=9)
        sv = run(m)
        assert sv.probabilities()[int(m.initial_bits, 2)] == pytest.approx(1.0, abs=1e-10)


class TestPerGateReference:
    """The fused layer loop against the per-gate simulation in helpers."""

    @pytest.mark.parametrize("name,c", list(_reference_circuits()))
    def test_run_matches_per_gate(self, name, c):
        from dataclasses import replace
        bits = "".join("01"[q % 2] for q in range(c.n))
        rng = np.random.default_rng(c.n)
        psi = rng.normal(size=2 ** c.n) + 1j * rng.normal(size=2 ** c.n)
        c_bits = replace(c, initial_bits=bits)
        runs = [
            (run(c).amplitudes, initial_state_reference(c)),
            (run(c_bits).amplitudes, initial_state_reference(c_bits)),
            # the layer loop from a random, unnormalized state
            (_run_layers(psi.copy(), _compile(c)), psi),
        ]
        for got, ref_start in runs:
            expect = apply_circuit_reference(ref_start.copy(), c)
            assert np.max(np.abs(got - expect)) < 1e-12

    @pytest.mark.parametrize("nm,shots", [
        (NoiseModel(), 0),
        (NoiseModel(), 3),
        (NoiseModel(eps_2q=1.0), 2),
        (NoiseModel(eps_mem=3e-3), 2),
        (NoiseModel(eps_2q=0.3), 2),
        (NoiseModel(eps_2q=0.01, eps_mem=1e-3, scale_with_n=True, ref_n=56), 2),
        (NoiseModel(eps_2q=0.05, eps_mem=3e-3), 0),
        (NoiseModel(eps_2q=0.05, eps_mem=3e-3), 4),
    ])
    def test_trajectories_match_per_gate(self, nm, shots):
        for name, c in _reference_circuits():
            got = run_trajectories(c, nm, n_traj=12, seed=5, shots_per_traj=shots)
            ref = run_trajectories_reference(c, nm, n_traj=12, seed=5,
                                             shots_per_traj=shots)
            assert got.samples.dtype == np.int64, name
            np.testing.assert_array_equal(got.samples, ref.samples, err_msg=name)
            assert np.max(np.abs(got.overlaps - ref.overlaps)) < 1e-12, name
            assert got.fidelity == pytest.approx(ref.fidelity, abs=1e-12)


class TestFastPathOracles:
    """The vector error draws and the ZZ kernel against the loops they replace."""

    @pytest.mark.parametrize("eps", [1.5e-3, 0.05, 0.3, 1.0])
    def test_draws_match_scalar_loop(self, eps):
        rg = rg_circuit(12, 10, 0)
        circs = {"rg": rg, "2d": build_instance("2d", 12, 10, 1),
                 "mirror": build_mirror(rg, seed=3)}
        nm = NoiseModel(eps_2q=eps)
        n_hits = 0
        for name, c in circs.items():
            gates = _two_qubit_gates(c)
            for seed in range(200):
                ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                expect = draw_errors_reference(c, nm, ref_rng)
                assert _draw_errors(gates, eps, rng) == expect, (name, seed)
                assert rng.bit_generator.state == ref_rng.bit_generator.state, (name, seed)
                n_hits += sum(map(len, expect.values()))
        assert n_hits > 0

    @pytest.mark.parametrize("n", [2, 5, 6, 7, 12, 14])
    def test_zz_kernel_bitwise(self, n):
        # every ordered pair: below _TAIL qubits, and gates with both, one
        # or neither qubit in the tail
        rng = np.random.default_rng(n)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                lay = Layer("2q", (TwoQubitGate(a, b),))
                psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
                expect = apply_zz_layer_reference(psi.copy(), n, lay)
                got = _PhaseLayer(lay, n).apply(psi.copy())
                assert got.tobytes() == expect.tobytes(), (n, a, b)

    @pytest.mark.parametrize("n", [12, 20, 26])
    def test_phase_tables_small_and_read_only(self, n):
        tables = {}  # by identity: gates that share a cached table count it once
        for a in range(n):
            for b in range(a + 1, n):
                t = _zz_view(n, a, b)[1]
                tables[id(t)] = t
        assert all(t.size <= 2 * 2 ** _TAIL for t in tables.values())
        assert not any(t.flags.writeable for t in tables.values())
        assert sum(t.nbytes for t in tables.values()) < 2 ** 20


class TestSample:
    def test_deterministic(self):
        sv = run(rg_circuit(6, 3, 7))
        np.testing.assert_array_equal(sample(sv, 32, seed=1), sample(sv, 32, seed=1))

    def test_matches_distribution(self):
        sv = run(rg_circuit(6, 4, 8))
        shots = 200000
        freq = np.bincount(sample(sv, shots, seed=2), minlength=64) / shots
        p = sv.probabilities()
        # three-sigma binomial envelope per bitstring
        sigma = np.sqrt(p * (1 - p) / shots)
        assert np.all(np.abs(freq - p) < 4 * sigma + 1e-4)

    def test_bitstring_format(self):
        sv = StateVector(3, np.array([0, 0, 0, 0, 0, 1, 0, 0], dtype=complex))
        draws = sample(sv, 5, seed=0)
        assert draws.dtype == np.int64
        np.testing.assert_array_equal(draws, [int("101", 2)] * 5)


class TestPurity:
    def test_product_state(self):
        c = rg_circuit(6, 3, 1)
        amps = np.zeros(2 ** 6, dtype=complex)
        amps[0] = 1.0
        sv = StateVector(6, amps)
        assert bipartite_purity(sv, [0, 1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_bell_pair(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / math.sqrt(2)
        assert bipartite_purity(StateVector(2, amps), [0]) == pytest.approx(0.5, abs=1e-12)

    def test_haar_value(self):
        # deep random circuits approach the Haar purity (2^a + 2^b)/(2^n + 1)
        n = 10
        vals = [bipartite_purity(run(rg_circuit(n, 8, s + 40)), list(range(5)))
                for s in range(6)]
        expect = (2 ** 5 + 2 ** 5) / (2 ** n + 1)
        assert np.median(vals) == pytest.approx(expect, rel=0.2)

    def test_complement_symmetry(self):
        sv = run(rg_circuit(8, 4, 3))
        a = bipartite_purity(sv, [0, 1, 6])
        b = bipartite_purity(sv, [2, 3, 4, 5, 7])
        assert a == pytest.approx(b, abs=1e-12)


class TestTrajectories:
    def test_noiseless_unit_fidelity(self):
        c = rg_circuit(6, 3, 2)
        res = run_trajectories(c, NoiseModel(), n_traj=4, seed=0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_decay(self):
        c = rg_circuit(8, 6, 4)
        eps = 0.02
        res = run_trajectories(c, NoiseModel(eps_2q=eps), n_traj=300, seed=1)
        target = (1 - eps) ** c.n_2q
        # scrambled Pauli errors rarely cancel, so survival tracks the
        # no-error probability
        assert res.fidelity == pytest.approx(target, abs=0.04)

    def test_scale_with_n(self):
        nm = NoiseModel(eps_2q=0.1, scale_with_n=True, ref_n=56)
        assert nm.scale(14) == pytest.approx(4.0)
        assert NoiseModel(eps_2q=0.1).scale(14) == 1.0

    def test_dephasing_angle_matches_infidelity(self):
        # average infidelity of Rz(phi) is (2/3) sin^2(phi/2)
        nm = NoiseModel(eps_mem=3e-3)
        phi = nm.dephasing_angle(56)
        assert (2.0 / 3.0) * math.sin(phi / 2) ** 2 == pytest.approx(3e-3, rel=1e-9)

    def test_memory_noise_reduces_fidelity(self):
        c = rg_circuit(8, 6, 6)
        res = run_trajectories(c, NoiseModel(eps_mem=2e-3), n_traj=3, seed=3)
        assert 0.7 < res.fidelity < 1.0

    def test_samples_pooled(self):
        c = rg_circuit(6, 3, 7)
        res = run_trajectories(c, NoiseModel(eps_2q=0.01), n_traj=8, seed=4,
                               shots_per_traj=3)
        assert res.samples.shape == (24,) and res.samples.dtype == np.int64
        assert 0 <= res.samples.min() and res.samples.max() < 2 ** 6

    def test_ideal_is_the_noiseless_run(self):
        from dataclasses import replace
        c = rg_circuit(6, 3, 8)
        bits = "".join("01"[q % 2] for q in range(c.n))
        nm = NoiseModel(eps_2q=0.05, eps_mem=3e-3)
        for circ in (c, build_mirror(c, seed=3), replace(c, initial_bits=bits)):
            res = run_trajectories(circ, nm, n_traj=6, seed=1, shots_per_traj=2)
            assert np.array_equal(res.ideal.amplitudes, run(circ).amplitudes)

    def test_rejects_no_trajectories(self):
        with pytest.raises(ValueError, match="n_traj"):
            run_trajectories(rg_circuit(6, 3, 2), NoiseModel(), n_traj=0, seed=0)

    def test_rejects_negative_shots(self):
        with pytest.raises(ValueError, match="shots_per_traj"):
            run_trajectories(rg_circuit(6, 3, 2), NoiseModel(), n_traj=2, seed=0,
                             shots_per_traj=-1)

    def test_bad_channel_weights(self):
        with pytest.raises(ValueError):
            NoiseModel(eps_2q=1.5)
        with pytest.raises(ValueError):
            NoiseModel(eps_mem=-0.1)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16))
def test_apply_circuit_linearity(seed):
    c = rg_circuit(6, 3, seed % 100)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=64) + 1j * rng.normal(size=64)
    b = rng.normal(size=64) + 1j * rng.normal(size=64)
    layers = _compile(c)
    out_sum = _run_layers(a + b, layers)
    out_a = _run_layers(a.copy(), layers)
    out_b = _run_layers(b.copy(), layers)
    assert np.max(np.abs(out_sum - out_a - out_b)) < 1e-10
