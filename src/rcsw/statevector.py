"""Dense statevector simulation with optional stochastic noise trajectories.

Qubit 0 is the most significant bit of the amplitude index, so bitstring
"b0 b1 ... b_{n-1}" is the index int(bits, 2): its amplitude sits there,
and a measured outcome is that index.

Noisy and noiseless runs share one layer loop over a compiled circuit.  A
1q layer is applied as Kronecker blocks of up to _BLOCK qubits, each one
matmul, of the per-qubit matrices circuits.layer_matrices builds once per
circuit.  A 2q layer applies each ZZ gate as one in-place multiply of a
reshaped view by a phase table read from circuits.ZZ_PHASES: the 2x2 table,
or for a gate on the last _TAIL qubits a cached read-only table spanning
them (at most 2 * 2^_TAIL phases), so the innermost loop is long either way.
Memory dephasing is one precomputed phase vector.  Within a layer, Pauli
errors come after the gates (after all ZZ phases of a 2q layer, with which
they commute) and before the dephasing.

run_trajectories draws every trajectory's errors first, from that
trajectory's own generator and in circuit order, then samples its shots
from the same generator; the draws never depend on the state, so results
are seed-for-seed those of simulating each trajectory gate by gate.  A
trajectory's per-gate uniforms are one vector draw, and at each hit the
generator is rewound to just past that uniform before the Pauli pair is
drawn, which leaves the per-gate stream.  The error-free path is walked
once.  A trajectory with errors is forked from it at the layer of its first
error and run to the end; one without errors reuses the final error-free
state, its overlap and one shared sampling table (the normalised cumulative
distribution).  Extra memory is a few state vectors, whatever the depth or
the number of trajectories.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import PAULIS, ZZ_PHASES, Circuit, Layer, layer_matrices
from .errors import CapacityError

DEFAULT_CAP = 26  # qubits; 2^26 complex128 amplitudes is 1 GiB
# Qubits per fused 1q block.  Sizes 2-5 timed within noise of each other at
# n = 12 and 16 and 4-5 led at n = 20 (ideal rg runs, one BLAS thread).
_BLOCK = 4


@dataclass
class StateVector:
    n: int
    amplitudes: np.ndarray  # (2**n,) complex128

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic two-qubit Pauli errors plus coherent memory dephasing.

    eps_2q is the probability of inserting a uniformly drawn non-identity
    Pauli pair after each two-qubit gate, i.e. two-qubit depolarizing.
    eps_mem is an average per-qubit infidelity per two-qubit layer, applied
    as a fixed-sign Rz rotation on every qubit.  With scale_with_n the rates
    are multiplied by ref_n / n at simulation time, holding the total error
    per circuit roughly constant across sizes.
    """

    eps_2q: float = 0.0
    eps_mem: float = 0.0
    scale_with_n: bool = False
    ref_n: int = 56

    def __post_init__(self):
        for name in ("eps_2q", "eps_mem"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    def scale(self, n: int) -> float:
        return self.ref_n / n if self.scale_with_n else 1.0

    def dephasing_angle(self, n: int) -> float:
        """Rz angle whose average infidelity equals the scaled eps_mem."""
        eps = min(self.eps_mem * self.scale(n), 2.0 / 3.0)
        return 2.0 * math.asin(math.sqrt(1.5 * eps))


_PAULI_PAIRS = [(a, b) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")]


def _check_cap(n: int, cap: int):
    if n > cap:
        raise CapacityError(f"{n} qubits exceeds the dense cap of {cap}")


def _initial_state(c: Circuit) -> np.ndarray:
    state = np.zeros(2 ** c.n, dtype=complex)
    idx = int(c.initial_bits, 2) if c.initial_bits else 0
    state[idx] = 1.0
    return state


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron for 2-d arrays, without its general-shape overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


class _OneQubitLayer:
    """A 1q layer as Kronecker blocks of up to _BLOCK qubits, one matmul each.

    Each block acts on the trailing qubits of the state and moves them to
    the front, so after the last block the qubits are back in order.
    """

    dephased = False

    def __init__(self, lay: Layer, n: int):
        self.blocks = []
        if lay.gates:
            mats = layer_matrices(lay, n)
            for hi in range(n, 0, -_BLOCK):
                self.blocks.append(functools.reduce(_kron, mats[max(0, hi - _BLOCK):hi]))

    def apply(self, psi: np.ndarray) -> np.ndarray:
        for k in self.blocks:
            psi = np.matmul(k, psi.reshape(-1, k.shape[0]).T).reshape(-1)
        return psi


# Trailing qubits a ZZ phase table spans when a gate touches them, so that the
# innermost loop of its multiply is 2^_TAIL long instead of 1-2.  Per ZZ layer
# of an rg circuit (one thread, median of 11), 4, 6 and 8 took 0.059, 0.053
# and 0.047 ms at n = 12 and 17.9, 16.5 and 16.2 ms at n = 20, against 0.100
# and 24.1 ms for one 2x2 table broadcast over the (2,)*n view.
_TAIL = 8


@functools.cache
def _tail_phases(width: int, a: int, b: int) -> np.ndarray:
    """UZZ's phases over the last `width` qubits, for a gate on their bits a and b.

    a = -1 stands for a qubit before the tail; its bit is then a leading axis
    of 2, so the table holds at most 2 * 2^width entries.  Read-only.
    """
    x = np.arange(2 ** width)
    bit_b = (x >> (width - 1 - b)) & 1
    if a < 0:
        table = ZZ_PHASES[:, bit_b][:, None, :]
    else:
        table = ZZ_PHASES[(x >> (width - 1 - a)) & 1, bit_b]
    table.flags.writeable = False
    return table


def _zz_view(n: int, a: int, b: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The state's view shape for a ZZ gate on qubits a < b, and its phase table.

    The table broadcasts against the view's trailing axes.  A gate before the
    last _TAIL qubits multiplies (2^a, 2, 2^(b-a-1), 2, 2^(n-b-1)) by the
    2x2 table, whose innermost loop is then at least 2^_TAIL long.
    """
    t0 = max(0, n - _TAIL)
    if b < t0:
        return (2 ** a, 2, 2 ** (b - a - 1), 2, 2 ** (n - b - 1)), ZZ_PHASES[:, None, :, None]
    if a < t0:
        return (2 ** a, 2, 2 ** (t0 - a - 1), 2 ** (n - t0)), _tail_phases(n - t0, -1, b - t0)
    return (2 ** t0, 2 ** (n - t0)), _tail_phases(n - t0, a - t0, b - t0)


class _PhaseLayer:
    """A layer of ZZ gates, each one in-place multiply of a view by its phase table."""

    dephased = True

    def __init__(self, lay: Layer, n: int):
        self.views = [_zz_view(n, min(g.q0, g.q1), max(g.q0, g.q1)) for g in lay.gates]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        for shape, table in self.views:
            view = psi.reshape(shape)
            np.multiply(view, table, out=view)
        return psi


def _compile(c: Circuit) -> list:
    return [(_OneQubitLayer if lay.kind == "1q" else _PhaseLayer)(lay, c.n)
            for lay in c.layers]


def _finish_layer(psi: np.ndarray, layer, errors, dephase) -> np.ndarray:
    """Pauli errors after a layer's gates, then memory dephasing after a 2q layer."""
    for q, label in errors:
        view = psi.reshape(2 ** q, 2, -1)
        view[...] = np.matmul(PAULIS[label], view)
    if layer.dephased and dephase is not None:
        psi *= dephase
    return psi


def _run_layers(psi: np.ndarray, layers: list, dephase=None, errors=None,
                start: int = 0, fork=None) -> np.ndarray:
    """Apply layers[start:] to psi, which may be overwritten, and return the result.

    errors maps a layer index to the (qubit, Pauli label) errors injected
    after that layer's gates.  fork(i, psi), when given, sees the state
    after the gates of layer i and before its errors and dephasing.
    """
    errors = errors or {}
    for i in range(start, len(layers)):
        psi = layers[i].apply(psi)
        if fork is not None:
            fork(i, psi)
        psi = _finish_layer(psi, layers[i], errors.get(i, ()), dephase)
    return psi


def run(c: Circuit) -> StateVector:
    """Noiseless simulation from c.initial_bits (default all zeros)."""
    _check_cap(c.n, DEFAULT_CAP)
    return StateVector(c.n, _run_layers(_initial_state(c), _compile(c)))


def _sampling_table(psi: np.ndarray) -> np.ndarray:
    """The normalised cumulative measurement distribution of psi."""
    cum = np.cumsum(np.abs(psi) ** 2)
    cum /= cum[-1]
    return cum


def _draw_outcomes(table: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    return np.searchsorted(table, rng.random(shots), side="right")


def sample(sv: StateVector, shots: int, seed) -> np.ndarray:
    """Draw outcome indices from the measurement distribution."""
    return _draw_outcomes(_sampling_table(sv.amplitudes), shots,
                          np.random.default_rng(seed))


def bipartite_purity(sv: StateVector, subset) -> float:
    """Tr(rho_A^2) for the reduced state on the given qubit subset."""
    sub = sorted(set(int(q) for q in subset))
    if not sub or len(sub) >= sv.n:
        raise ValueError("subset must be a proper nonempty qubit subset")
    rest = [q for q in range(sv.n) if q not in sub]
    psi = sv.amplitudes.reshape([2] * sv.n).transpose(sub + rest)
    m = psi.reshape(2 ** len(sub), -1)
    if m.shape[0] <= m.shape[1]:
        gram = m @ m.conj().T
    else:
        gram = m.conj().T @ m
    return float(np.sum(np.abs(gram) ** 2).real)


@dataclass
class TrajectoryResult:
    fidelity: float
    stderr: float
    overlaps: np.ndarray
    ideal: StateVector  # the noiseless output the overlaps are taken with
    samples: np.ndarray  # int64 outcome indices, in trajectory order


def _two_qubit_gates(c: Circuit) -> list[tuple[int, int, int]]:
    """The circuit's 2q gates in order, as (layer index, q0, q1)."""
    return [(i, g.q0, g.q1) for i, lay in enumerate(c.layers) if lay.kind == "2q"
            for g in lay.gates]


def _draw_errors(gates: list, p2: float, rng: np.random.Generator) -> dict:
    """One trajectory's Pauli errors as {layer index: [(qubit, label), ...]}.

    Each gate of gates (see _two_qubit_gates) draws a uniform and, when it
    is below p2, a Pauli pair index: the stream of a per-gate loop, and the
    generator ends where that loop leaves it.  The uniforms up to the last
    gate are drawn as one vector; at a hit the generator is set back to its
    saved state from before that vector and redraws up to the hit's
    uniform, then draws the pair.  The draws never depend on the state.
    """
    errors: dict[int, list] = {}
    bg = rng.bit_generator
    j = 0
    while p2 > 0.0 and j < len(gates):
        saved = bg.state
        u = rng.random(len(gates) - j)
        h = int((u < p2).argmax())
        if u[h] >= p2:
            break
        if h + 1 < u.size:
            bg.state = saved
            rng.random(h + 1)
        i, q0, q1 = gates[j + h]
        la, lb = _PAULI_PAIRS[rng.integers(0, 15)]
        layer = errors.setdefault(i, [])
        if la != "I":
            layer.append((q0, la))
        if lb != "I":
            layer.append((q1, lb))
        j += h + 1
    return errors


def _dephasing_phases(n: int, phi: float) -> np.ndarray:
    """Rz(phi) on every qubit as one diagonal: exp(-i phi/2 (n - 2 popcount))."""
    rz = np.array([[np.exp(-0.5j * phi)], [np.exp(0.5j * phi)]])
    return functools.reduce(_kron, [rz] * n).reshape(-1)


def run_trajectories(c: Circuit, nm: NoiseModel, n_traj: int, seed,
                     shots_per_traj: int = 0, cap: int = DEFAULT_CAP) -> TrajectoryResult:
    """Quantum-trajectory noise simulation.

    Each trajectory applies the ideal circuit with randomly inserted Pauli
    errors; the fidelity estimate is the mean squared overlap with the ideal
    state, which is simulated from the same compiled layers and returned as
    ``ideal``.  With shots_per_traj > 0, outcome indices sampled from each
    noisy trajectory are pooled in trajectory order, giving draws from the
    noisy output distribution.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    if shots_per_traj < 0:
        raise ValueError("shots_per_traj must be nonnegative")
    _check_cap(c.n, cap)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_traj)]
    gates = _two_qubit_gates(c)
    p2 = min(nm.eps_2q * nm.scale(c.n), 1.0)
    errors = [_draw_errors(gates, p2, rng) for rng in rngs]
    forks: dict[int, list[int]] = {}
    for t, e in enumerate(errors):
        if e:
            forks.setdefault(min(e), []).append(t)
    layers = _compile(c)
    ideal = _run_layers(_initial_state(c), layers)
    dephase = (_dephasing_phases(c.n, nm.dephasing_angle(c.n))
               if nm.eps_mem > 0.0 else None)
    overlaps = np.empty(n_traj)
    shots = [np.empty(0, dtype=np.int64)] * n_traj

    def finish(t: int, psi: np.ndarray, overlap=None, table=None):
        overlaps[t] = abs(np.vdot(ideal, psi)) ** 2 if overlap is None else overlap
        if shots_per_traj > 0:
            if table is None:
                table = _sampling_table(psi)
            shots[t] = _draw_outcomes(table, shots_per_traj, rngs[t])

    def fork(i: int, psi: np.ndarray):
        for t in forks.get(i, ()):
            branch = _finish_layer(psi.copy(), layers[i], errors[t][i], dephase)
            finish(t, _run_layers(branch, layers, dephase, errors[t], start=i + 1))

    clean = _run_layers(_initial_state(c), layers, dephase, fork=fork)
    clean_ts = [t for t, e in enumerate(errors) if not e]
    if clean_ts:
        clean_overlap = abs(np.vdot(ideal, clean)) ** 2
        table = _sampling_table(clean) if shots_per_traj > 0 else None
        for t in clean_ts:
            finish(t, clean, clean_overlap, table)
    stderr = float(np.std(overlaps, ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
    return TrajectoryResult(float(np.mean(overlaps)), stderr, overlaps,
                            StateVector(c.n, ideal), np.concatenate(shots))
