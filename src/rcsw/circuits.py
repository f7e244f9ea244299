"""Circuit construction and serialization; the one place gates become numbers.

Circuits alternate single-qubit layers S_k with two-qubit layers E_k,

    C = S_d E_d ... S_1 E_1 S_0,

so a depth-d circuit has d two-qubit layers and d+1 single-qubit layers.
Every two-qubit gate is the one entangler UZZ(ZZ_ANGLE) = exp(-i(pi/4) Z x Z),
so a TwoQubitGate records only its qubits; single-qubit gates are stored
as Rz(psi) * U1q(theta, phi) with
U1q(theta, phi) = exp(-i(theta/2)(X cos phi + Y sin phi)).  All three
simulators read their numbers from here: layer_matrices gives a 1q layer's
matrix per qubit, ZZ_PHASES is UZZ's diagonal, ZZ_TERMS its
operator-Schmidt form.
"""
from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import graphs

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}
ZZ_ANGLE = math.pi / 2.0  # the entangler is UZZ(ZZ_ANGLE) = exp(-i(ZZ_ANGLE/2) Z x Z)
# UZZ's diagonal exp(-i(ZZ_ANGLE/2) z0 z1), indexed (bit0, bit1); read-only
ZZ_PHASES = np.exp(-0.5j * ZZ_ANGLE * np.array([[1.0, -1.0], [-1.0, 1.0]]))
ZZ_PHASES.flags.writeable = False
# UZZ = sum of w P x P over (w, P): cos(ZZ_ANGLE/2) I x I - i sin(ZZ_ANGLE/2) Z x Z
ZZ_TERMS = ((math.cos(0.5 * ZZ_ANGLE), "I"), (-1j * math.sin(0.5 * ZZ_ANGLE), "Z"))


def _rz_entries(psi: float) -> list[list]:
    return [[cmath.exp(-0.5j * psi), 0], [0, cmath.exp(0.5j * psi)]]


def _u1q_entries(theta: float, phi: float) -> list[list]:
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return [
        [c, -1j * cmath.exp(-1j * phi) * s],
        [-1j * cmath.exp(1j * phi) * s, c],
    ]


def su2_decompose(u: np.ndarray) -> tuple[float, float, float]:
    """Angles (psi, theta, phi) with Rz(psi) U1q(theta, phi) = u up to phase."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    v = u / cmath.sqrt(det)
    a, b = v[0, 0], v[1, 0]
    theta = 2.0 * math.atan2(abs(b), abs(a))
    if abs(b) < 1e-14:
        psi = -2.0 * cmath.phase(a)
        phi = 0.0
    elif abs(a) < 1e-14:
        psi = 0.0
        phi = cmath.phase(b) + math.pi / 2.0
    else:
        psi = -2.0 * cmath.phase(a)
        phi = cmath.phase(b) + math.pi / 2.0 + cmath.phase(a)
    return psi, theta, phi


def haar_su2(seed) -> tuple[float, float, float]:
    """Haar-random SU(2) angles via a normalized Gaussian quaternion."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    u = q[0] * _I2 - 1j * (q[1] * _X + q[2] * _Y + q[3] * _Z)
    return su2_decompose(u)


@dataclass(frozen=True)
class OneQubitGate:
    q: int
    psi: float
    theta: float
    phi: float


@dataclass(frozen=True)
class TwoQubitGate:
    """UZZ(ZZ_ANGLE) on qubits q0 and q1."""

    q0: int
    q1: int


@dataclass(frozen=True)
class Layer:
    kind: str  # "1q" or "2q"
    gates: tuple

    def __post_init__(self):
        if self.kind not in ("1q", "2q"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "2q":
            touched = [q for g in self.gates for q in (g.q0, g.q1)]
            if len(touched) != len(set(touched)):
                raise ValueError("two-qubit layer gates must be disjoint")


@dataclass(frozen=True)
class Circuit:
    n: int
    layers: tuple[Layer, ...]
    ensemble: str = "custom"
    seed: int | None = None
    graph: dict | None = None
    initial_bits: str | None = None

    def __post_init__(self):
        if self.layers:
            kinds = [lay.kind for lay in self.layers]
            expect = ["1q" if i % 2 == 0 else "2q" for i in range(len(kinds))]
            if kinds != expect or kinds[-1] != "1q":
                raise ValueError("layers must alternate 1q/2q and end on 1q")
        for lay in self.layers:
            for g in lay.gates:
                qubits = (g.q,) if lay.kind == "1q" else (g.q0, g.q1)
                if any(not 0 <= q < self.n for q in qubits):
                    raise ValueError("gate acts outside qubit range")
        if self.initial_bits is not None:
            if len(self.initial_bits) != self.n or set(self.initial_bits) - {"0", "1"}:
                raise ValueError("initial_bits must be an n-character bitstring")

    @property
    def depth(self) -> int:
        return sum(1 for lay in self.layers if lay.kind == "2q")

    @property
    def n_2q(self) -> int:
        return sum(len(lay.gates) for lay in self.layers if lay.kind == "2q")

    @property
    def d_eff(self) -> float:
        """Gate count normalized by a full layer of n/2 parallel gates."""
        return self.n_2q / (self.n / 2.0)

    def two_qubit_layers(self) -> list[Layer]:
        return [lay for lay in self.layers if lay.kind == "2q"]


def layer_matrices(lay: Layer, n: int) -> list[np.ndarray]:
    """Each qubit's product of a 1q layer's gates, in gate order; I on idle qubits.

    The one 1q gate builder: every simulator applies these matrices, one
    per gated qubit, so a qubit with two gates in a layer gets their
    product once.  Each gate is Rz(psi) U1q(theta, phi), the factors of all
    gates meeting in one stacked matmul, which multiplies each pair as a
    2x2 matmul does.
    """
    if not lay.gates:
        return [_I2] * n
    rz = np.array([_rz_entries(g.psi) for g in lay.gates])
    u1q = np.array([_u1q_entries(g.theta, g.phi) for g in lay.gates])
    mats: list[np.ndarray | None] = [None] * n
    for g, m in zip(lay.gates, np.matmul(rz, u1q)):
        mats[g.q] = m if mats[g.q] is None else m @ mats[g.q]
    return [_I2 if m is None else m for m in mats]


def _one_q_layer_from_matrices(mats: list[np.ndarray]) -> Layer:
    gates = []
    for q, m in enumerate(mats):
        psi, theta, phi = su2_decompose(m)
        gates.append(OneQubitGate(q, psi, theta, phi))
    return Layer("1q", tuple(gates))


def _haar_layer(n: int, rng: np.random.Generator) -> Layer:
    return Layer("1q", tuple(
        OneQubitGate(q, *haar_su2(rng)) for q in range(n)
    ))


def _haar_zz_layers(n: int, edge_layers, rng: np.random.Generator) -> tuple[Layer, ...]:
    """A Haar layer, then per edge list a layer of UZZ gates and a Haar layer."""
    layers = [_haar_layer(n, rng)]
    for edges in edge_layers:
        layers.append(Layer("2q", tuple(TwoQubitGate(u, v) for u, v in edges)))
        layers.append(_haar_layer(n, rng))
    return tuple(layers)


def _colored_circuit(cg: graphs.ColoredGraph, d: int, seed, ensemble: str) -> Circuit:
    """Circuit of d two-qubit layers cycling cg's color classes.

    Every two-qubit gate is UZZ(pi/2); the d+1 single-qubit layers are
    independent Haar-random SU(2) gates on every qubit.  The circuit's
    graph document records the colored graph (its color count included)
    and d.
    """
    if d < 1:
        raise ValueError("depth must be positive")
    rng = np.random.default_rng(seed)
    classes = cg.layers()
    return Circuit(
        n=cg.n,
        layers=_haar_zz_layers(cg.n, [classes[j % cg.n_colors] for j in range(d)], rng),
        ensemble=ensemble,
        seed=_seed_int(seed),
        graph={
            "n": cg.n,
            "d": d,
            "edges": [[u, v] for u, v in cg.edges],
            "colors": list(cg.colors),
            "n_colors": cg.n_colors,
        },
    )


def build_rg_circuit(cg: graphs.ColoredGraph, seed) -> Circuit:
    """Random-geometry circuit: one two-qubit layer per color class."""
    return _colored_circuit(cg, cg.n_colors, seed, "rg")


def build_brickwork_circuit(n: int, d: int, seed) -> Circuit:
    """Nearest-neighbor chain circuit alternating even and odd bond layers."""
    if n < 2:
        raise ValueError("brickwork needs at least two qubits")
    if d < 1:
        raise ValueError("depth must be positive")
    rng = np.random.default_rng(seed)
    even = [(q, q + 1) for q in range(0, n - 1, 2)]
    odd = [(q, q + 1) for q in range(1, n - 1, 2)]
    edge_layers = [even if j % 2 == 0 else odd for j in range(d)]
    return Circuit(n=n, layers=_haar_zz_layers(n, edge_layers, rng), ensemble="1d",
                   seed=_seed_int(seed))


def build_2d_circuit(cg: graphs.ColoredGraph, d: int, seed) -> Circuit:
    """Planar circuit on a grid patch, cycling the four direction classes.

    Boundary qubits sit out the layers whose direction class gives them no
    partner, so the effective depth d_eff is below d for finite patches.
    """
    return _colored_circuit(cg, d, seed, "2d")


def build_instance(ensemble: str, n: int, d: int, seed: int) -> Circuit:
    """One circuit of the "rg" or "2d" ensemble; graph and gates share the seed."""
    if ensemble == "rg":
        return build_rg_circuit(graphs.sample_colored_graph(n, d, seed), seed)
    return build_2d_circuit(graphs.sample_grid(n, seed), d, seed)


def _seed_int(seed) -> int | None:
    """The seed as a Python int when it is integral (NumPy integers too)."""
    return int(seed) if isinstance(seed, numbers.Integral) else None


_PAULI_NAMES = ("I", "X", "Y", "Z")


def _frame_correction(p0: str, p1: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit factors of UZZ(-ZZ_ANGLE) (P0 x P1) UZZ(-ZZ_ANGLE)^dag.

    A pair with an even number of X/Y factors commutes with Z x Z and is left
    unchanged.  Otherwise the conjugate is UZZ(-pi) (P0 x P1) = i (Z P0) x (Z P1).
    The phase rides on the first factor, so the product is exact.
    """
    a, b = PAULIS[p0], PAULIS[p1]
    if (p0 in "XY") == (p1 in "XY"):
        return a, b
    return 1j * (_Z @ a), _Z @ b


def build_mirror(c: Circuit, seed) -> Circuit:
    """Mirror circuit: run c, then its inverse, from a random basis state.

    The reverse half is Pauli randomized compiled: uniform random Pauli pairs
    P0 x P1 are folded in before each ideal reverse gate UZZ(-ZZ_ANGLE) and
    their frame corrections after it, leaving the ideal unitary unchanged.
    The correction is UZZ(-ZZ_ANGLE) (P0 x P1) UZZ(-ZZ_ANGLE)^dag in closed
    form: P0 x P1 itself when the pair has an even number of X/Y factors,
    else (Z P0) x (Z P1) up to phase.  Each reverse gate is realized as the
    native UZZ(ZZ_ANGLE) with Z x Z folded into the next single-qubit layer,
    since UZZ(-pi/2) = UZZ(pi/2) (Z x Z) up to phase, so the hardware-facing
    gate set never changes.  The ideal circuit maps the initial bitstring to
    itself.
    """
    h = c.depth
    if h < 1:
        raise ValueError("mirror needs a circuit with at least one 2q layer")
    fwd_2q = c.two_qubit_layers()
    rng = np.random.default_rng(seed)
    fwd_1q = [layer_matrices(lay, c.n) for lay in c.layers[0::2]]

    # single-qubit matrices for the 2h+1 layers of the mirrored circuit
    mats = fwd_1q[:h] + [[_I2] * c.n]  # merged S_h^dag S_h
    mats += [[m.conj().T for m in fwd_1q[k]] for k in range(h - 1, -1, -1)]

    two_q = [lay.gates for lay in fwd_2q]
    for j in range(h, 2 * h):
        gates = fwd_2q[2 * h - j - 1].gates
        for g in gates:
            p0, p1 = (_PAULI_NAMES[i] for i in rng.integers(0, 4, size=2))
            c0, c1 = _frame_correction(p0, p1)
            # twirl inserts P before the ideal reverse gate, its frame
            # correction after it, then the Z x Z that makes the native gate
            # the ideal reverse one
            mats[j][g.q0] = PAULIS[p0] @ mats[j][g.q0]
            mats[j][g.q1] = PAULIS[p1] @ mats[j][g.q1]
            mats[j + 1][g.q0] = mats[j + 1][g.q0] @ c0 @ _Z
            mats[j + 1][g.q1] = mats[j + 1][g.q1] @ c1 @ _Z
        two_q.append(gates)

    bits = "".join(str(b) for b in rng.integers(0, 2, size=c.n))
    layers: list[Layer] = [_one_q_layer_from_matrices(mats[0])]
    for j in range(2 * h):
        layers.append(Layer("2q", two_q[j]))
        layers.append(_one_q_layer_from_matrices(mats[j + 1]))
    return Circuit(
        n=c.n,
        layers=tuple(layers),
        ensemble="mirror",
        seed=_seed_int(seed),
        graph=c.graph,
        initial_bits=bits,
    )


def circuit_to_json(c: Circuit) -> dict:
    doc: dict = {
        "n": c.n,
        "d": c.depth,
        "ensemble": c.ensemble,
        "seed": c.seed,
        "layers": [],
    }
    if c.graph is not None:
        doc["graph"] = c.graph
    if c.initial_bits is not None:
        doc["initial_bits"] = c.initial_bits
    for lay in c.layers:
        if lay.kind == "1q":
            doc["layers"].append({
                "type": "1q",
                "gates": [{"q": g.q, "psi": g.psi, "theta": g.theta, "phi": g.phi}
                          for g in lay.gates],
            })
        else:
            doc["layers"].append({
                "type": "2q",
                "gates": [{"q0": g.q0, "q1": g.q1, "theta": ZZ_ANGLE}
                          for g in lay.gates],
            })
    return doc


def serialize(c: Circuit) -> str:
    return json.dumps(circuit_to_json(c), sort_keys=True)


_QASM_HEADER = """OPENQASM 2.0;
include "qelib1.inc";
// u1q(theta, phi) = exp(-i theta/2 (X cos phi + Y sin phi)), up to global phase
gate u1q(theta, phi) q {{ u3(theta, phi - pi/2, pi/2 - phi) q; }}
// zzp(theta) = exp(-i theta/2 Z@Z), up to global phase
gate zzp(theta) a, b {{ cx a, b; rz(theta) b; cx a, b; }}
qreg q[{n}];
creg m[{n}];
"""


def export_qasm(c: Circuit) -> str:
    """One-way QASM 2.0 text with the native gates defined in the header.

    Initial bits are prepared with leading X gates.  Angles are printed with
    full precision so re-reading the text reproduces the circuit exactly.
    """
    lines = [_QASM_HEADER.format(n=c.n)]
    if c.initial_bits is not None:
        for q, bit in enumerate(c.initial_bits):
            if bit == "1":
                lines.append(f"x q[{q}];")
    for lay in c.layers:
        if lay.kind == "1q":
            for g in lay.gates:
                lines.append(f"u1q({g.theta!r},{g.phi!r}) q[{g.q}];")
                lines.append(f"rz({g.psi!r}) q[{g.q}];")
        else:
            for g in lay.gates:
                lines.append(f"zzp({ZZ_ANGLE!r}) q[{g.q0}],q[{g.q1}];")
    lines.append("measure q -> m;")
    return "\n".join(lines) + "\n"
