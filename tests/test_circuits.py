"""Tests for gate algebra, circuit builders, and serialization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcsw import circuits, graphs, mps, statevector
from rcsw.circuits import (
    ZZ_ANGLE, Circuit, Layer, OneQubitGate, TwoQubitGate,
    build_2d_circuit, build_brickwork_circuit, build_instance, build_mirror,
    build_rg_circuit, export_qasm, haar_su2, layer_matrices, serialize, su2_decompose,
)
from rcsw.tn import circuit_to_tn, execute_tree, optimize_order
from helpers import (
    apply_circuit_reference, circuit_from_qasm, dense_unitary, deserialize, gate_matrix,
    initial_state_reference, pauli_pair_conjugate_reference, phase_aligned, rz, su2, u1q,
    uzz_matrix,
)


class TestSu2:
    def test_decompose_reconstructs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            u = (q[0] * np.eye(2) - 1j * (q[1] * circuits.PAULIS["X"]
                 + q[2] * circuits.PAULIS["Y"] + q[3] * circuits.PAULIS["Z"]))
            psi, theta, phi = su2_decompose(u)
            v = su2(psi, theta, phi)
            assert np.allclose(phase_aligned(u, v), u, atol=1e-12)

    def test_decompose_edge_cases(self):
        for u in (np.eye(2, dtype=complex), rz(1.3), u1q(math.pi, 0.7), 1j * np.eye(2)):
            psi, theta, phi = su2_decompose(u)
            v = su2(psi, theta, phi)
            assert np.allclose(phase_aligned(u, v), u, atol=1e-12)

    def test_haar_first_moment(self):
        # Haar average of |tr U|^2 over SU(2) equals 1
        rng = np.random.default_rng(7)
        vals = []
        for _ in range(4000):
            psi, theta, phi = haar_su2(rng)
            vals.append(abs(np.trace(su2(psi, theta, phi))) ** 2)
        assert abs(np.mean(vals) - 1.0) < 0.06

    def test_uzz_schmidt_rank_two(self):
        assert ZZ_ANGLE == math.pi / 2.0
        g = uzz_matrix(ZZ_ANGLE)
        # operator Schmidt rank across the two qubits
        m = g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        s = np.linalg.svd(m, compute_uv=False)
        assert np.sum(s > 1e-12) == 2

    def test_uzz_inverse_via_zz(self):
        lhs = uzz_matrix(-ZZ_ANGLE)
        zz = np.kron(circuits.PAULIS["Z"], circuits.PAULIS["Z"])
        rhs = zz @ uzz_matrix(ZZ_ANGLE)
        ratio = lhs[0, 0] / rhs[0, 0]
        assert abs(abs(ratio) - 1.0) < 1e-12
        assert np.allclose(lhs, ratio * rhs, atol=1e-12)

    def test_zz_phases_and_terms_rebuild_uzz(self):
        g = uzz_matrix(ZZ_ANGLE)
        assert np.max(np.abs(circuits.ZZ_PHASES.reshape(-1) - np.diag(g))) < 1e-15
        rebuilt = sum(w * np.kron(circuits.PAULIS[p], circuits.PAULIS[p])
                      for w, p in circuits.ZZ_TERMS)
        assert np.max(np.abs(rebuilt - g)) < 1e-15


class TestBuilders:
    def test_rg_structure(self):
        cg = graphs.sample_colored_graph(12, 4, seed=3)
        c = build_rg_circuit(cg, seed=5)
        assert c.n == 12
        assert c.depth == 4
        kinds = [lay.kind for lay in c.layers]
        assert kinds == ["1q", "2q"] * 4 + ["1q"]
        for lay in c.two_qubit_layers():
            assert len(lay.gates) == 6
        assert c.d_eff == pytest.approx(4.0)

    def test_rg_deterministic(self):
        cg = graphs.sample_colored_graph(8, 3, seed=1)
        assert build_rg_circuit(cg, 9) == build_rg_circuit(cg, 9)
        assert build_rg_circuit(cg, 9) != build_rg_circuit(cg, 10)

    def test_2d_plaquette_gate_count(self):
        gs = graphs.make_grid(4, offset=(0.0, 0.0), rotation=0.0)
        c = build_2d_circuit(gs, d=4, seed=0)
        assert c.depth == 4
        assert c.n_2q == 4  # two classes present, two gates each

    def test_2d_effective_depth_below_nominal(self):
        gs = graphs.sample_grid(56, seed=2)
        c = build_2d_circuit(gs, d=12, seed=0)
        assert c.d_eff < 12.0
        assert c.d_eff > 6.0

    def test_mirror_structure_and_identity(self):
        cg = graphs.sample_colored_graph(6, 3, seed=2)
        half = build_rg_circuit(cg, seed=4)
        m = build_mirror(half, seed=8)
        assert m.depth == 6
        assert len(m.layers) == 13
        assert m.initial_bits is not None and len(m.initial_bits) == 6
        u = dense_unitary(m)
        u = u / u[0, 0]
        assert np.allclose(u, np.eye(2 ** 6), atol=1e-9)

    def test_mirror_seeds_same_unitary(self):
        cg = graphs.sample_colored_graph(4, 3, seed=0)
        half = build_rg_circuit(cg, seed=1)
        ua = dense_unitary(build_mirror(half, seed=10))
        ub = dense_unitary(build_mirror(half, seed=11))
        assert not np.allclose(ua, ub)  # different compilations
        assert np.allclose(phase_aligned(ua, ub), ua, atol=1e-9)

    def test_mirror_angles_differ_between_seeds(self):
        cg = graphs.sample_colored_graph(4, 3, seed=0)
        half = build_rg_circuit(cg, seed=1)
        ga = build_mirror(half, seed=10).layers[-1].gates
        gb = build_mirror(half, seed=11).layers[-1].gates
        assert any(a != b for a, b in zip(ga, gb))


def _two_gates_on_qubit_0() -> Circuit:
    c = build_instance("rg", 4, 2, 1)
    first = Layer("1q", c.layers[0].gates + (OneQubitGate(0, 0.4, 1.1, -0.3),))
    return Circuit(n=c.n, layers=(first,) + c.layers[1:], ensemble="rg", seed=1)


def test_two_gates_on_one_qubit_same_state_in_every_simulator():
    # no builder makes such a layer; each simulator applies the qubit's
    # product once, and all agree with the gate-by-gate reference
    c = _two_gates_on_qubit_0()
    want = apply_circuit_reference(initial_state_reference(c), c)
    chain, _ = mps.evolve(c, 2 ** c.n, 2)
    assert chain.counters.gates_1q == sum(len({g.q for g in lay.gates})
                                          for lay in c.layers[0::2])
    amps = []
    for x in range(2 ** c.n):
        net = circuit_to_tn(c, bitstring_out=format(x, f"0{c.n}b"))
        amps.append(execute_tree(net, optimize_order(net, budget=1, seed=0)))
    for got in (statevector.run(c).amplitudes, chain.to_statevector().amplitudes,
                np.array(amps)):
        assert np.max(np.abs(got - want)) < 1e-10


class TestMirrorAlgebra:
    """The closed-form frame correction against the 16-candidate scan."""

    def test_correction_matches_scan(self):
        g = uzz_matrix(-ZZ_ANGLE)  # the ideal reverse gate
        for p0 in "IXYZ":
            for p1 in "IXYZ":
                c0, c1 = circuits._frame_correction(p0, p1)
                o0, o1 = pauli_pair_conjugate_reference(-ZZ_ANGLE, p0, p1)
                conj = g @ np.kron(circuits.PAULIS[p0], circuits.PAULIS[p1]) @ g.conj().T
                assert np.allclose(np.kron(c0, c1), np.kron(o0, o1), atol=1e-12, rtol=0)
                assert np.allclose(np.kron(c0, c1), conj, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("name", ["rg", "2d", "brickwork"])
    def test_mirror_matches_scan_built(self, name, monkeypatch):
        c = {"rg": lambda: build_instance("rg", 6, 3, 4),
             "2d": lambda: build_instance("2d", 6, 4, 5),
             "brickwork": lambda: build_brickwork_circuit(6, 4, 6),
             }[name]()
        got = build_mirror(c, seed=11)
        monkeypatch.setattr(circuits, "_frame_correction",
                            lambda p0, p1: pauli_pair_conjugate_reference(-ZZ_ANGLE, p0, p1))
        want = build_mirror(c, seed=11)
        assert got.initial_bits == want.initial_bits
        ug, uw = dense_unitary(got), dense_unitary(want)
        assert np.max(np.abs(phase_aligned(uw, ug) - uw)) < 1e-12
        assert np.max(np.abs(phase_aligned(uw, np.eye(2 ** c.n)) - uw)) < 1e-12

    def test_two_gates_on_one_qubit(self):
        c = _two_gates_on_qubit_0()
        h = c.depth
        m = build_mirror(c, seed=3)

        def forward(circ):
            return dense_unitary(Circuit(n=c.n, layers=circ.layers[:2 * h] + (Layer("1q", ()),)))

        uc, um = forward(c), forward(m)
        assert np.max(np.abs(phase_aligned(uc, um) - uc)) < 1e-12

    def test_layer_matrices_compose_in_gate_order(self):
        a, b = OneQubitGate(1, 0.3, 0.5, 0.7), OneQubitGate(1, 1.1, 0.4, -0.2)
        mats = layer_matrices(Layer("1q", (a, b)), 3)
        assert np.array_equal(mats[1], gate_matrix(b) @ gate_matrix(a))
        assert np.array_equal(mats[0], np.eye(2)) and np.array_equal(mats[2], np.eye(2))

    def test_layer_matrices_equal_su2_matrix_bitwise(self):
        # one stacked build per layer, the same bits as the per-gate oracle
        rng = np.random.default_rng(12)
        angles = [(0.0, 0.0, 0.0), (math.pi, math.pi, -math.pi), (-0.0, 2.0, -0.0)]
        angles += [tuple(map(float, rng.uniform(-4 * math.pi, 4 * math.pi, 3)))
                   for _ in range(61)]
        drawn = [Layer("1q", tuple(OneQubitGate(k % 12, *a)
                                   for k, a in enumerate(angles[j:j + 8])))
                 for j in range(0, len(angles), 8)]
        rg = build_instance("rg", 12, 10, 3)
        planar = build_instance("2d", 12, 6, 4)
        layers = drawn + [lay for c in (rg, planar, build_mirror(rg, seed=5))
                          for lay in c.layers[0::2]]
        checked = 0
        for lay in layers:
            mats = layer_matrices(lay, 12)
            for g in lay.gates:
                want = su2(g.psi, g.theta, g.phi)
                assert mats[g.q].tobytes() == want.tobytes()
                checked += 1
        assert checked == len(angles) + 12 * 11 + 12 * 21 + sum(
            len(lay.gates) for lay in planar.layers[0::2])


class TestSerialization:
    def test_json_round_trip(self):
        cg = graphs.sample_colored_graph(8, 3, seed=1)
        c = build_rg_circuit(cg, seed=2)
        c2 = deserialize(serialize(c))
        assert c2 == c

    def test_mirror_round_trip_keeps_bits(self):
        cg = graphs.sample_colored_graph(6, 3, seed=1)
        m = build_mirror(build_rg_circuit(cg, seed=2), seed=3)
        m2 = deserialize(serialize(m))
        assert m2.initial_bits == m.initial_bits
        assert m2.layers == m.layers

    def test_qasm_header_u1q_matches_u3(self):
        # u3(theta, phi - pi/2, pi/2 - phi) must equal u1q up to global phase
        def u3(theta, phi, lam):
            return np.array([
                [math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
                [np.exp(1j * phi) * math.sin(theta / 2),
                 np.exp(1j * (phi + lam)) * math.cos(theta / 2)],
            ])
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta, phi = rng.uniform(-math.pi, math.pi, size=2)
            a = u1q(theta, phi)
            b = u3(theta, phi - math.pi / 2, math.pi / 2 - phi)
            k = np.argmax(np.abs(a))
            assert np.allclose(a, b * (a.flat[k] / b.flat[k]), atol=1e-12)

    def test_qasm_header_zzp_matches_cx_rz_cx(self):
        cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                      dtype=complex)
        theta = 0.77
        rz1 = np.kron(np.eye(2), rz(theta))
        assert np.allclose(cx @ rz1 @ cx, uzz_matrix(theta), atol=1e-12)

    def test_qasm_round_trip_amplitudes(self):
        from rcsw import statevector
        cg = graphs.sample_colored_graph(6, 3, seed=4)
        for c in (build_rg_circuit(cg, seed=5),
                  build_mirror(build_rg_circuit(cg, seed=5), seed=6)):
            c2 = circuit_from_qasm(export_qasm(c))
            a = statevector.run(c).amplitudes
            b = statevector.run(c2).amplitudes
            assert np.max(np.abs(a - b)) < 1e-10


class TestCircuitValidation:
    def test_rejects_bad_alternation(self):
        with pytest.raises(ValueError):
            Circuit(2, (Layer("2q", (TwoQubitGate(0, 1),)),))

    def test_rejects_overlapping_2q(self):
        with pytest.raises(ValueError):
            Layer("2q", (TwoQubitGate(0, 1), TwoQubitGate(1, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(2, (Layer("1q", (OneQubitGate(5, 0, 0, 0),)),))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16))
    def test_rg_layer_counts(self, seed):
        cg = graphs.sample_colored_graph(8, 3, seed=seed)
        c = build_rg_circuit(cg, seed=seed + 1)
        assert len(c.layers) == 2 * c.depth + 1
        assert c.n_2q == 8 * 3 // 2
