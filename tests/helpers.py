"""Shared oracles and factories for the test suite."""
import math

import numpy as np

from rcsw import graphs, mps
from rcsw.circuits import PAULIS, Circuit, build_rg_circuit, uzz_matrix
from rcsw.statevector import DEFAULT_CAP, NoiseModel, StateVector, TrajectoryResult, sample
from rcsw.tn.tree import TreeStats


def dense_unitary(c: Circuit) -> np.ndarray:
    """Independent full-matrix construction via Kronecker products."""
    dim = 2 ** c.n
    total = np.eye(dim, dtype=complex)
    for lay in c.layers:
        if lay.kind == "1q":
            for g in lay.gates:
                ops = [np.eye(2, dtype=complex)] * c.n
                ops[g.q] = g.matrix()
                m = ops[0]
                for op in ops[1:]:
                    m = np.kron(m, op)
                total = m @ total
        else:
            for g in lay.gates:
                m = np.eye(dim, dtype=complex)
                for idx in range(dim):
                    b0 = (idx >> (c.n - 1 - g.q0)) & 1
                    b1 = (idx >> (c.n - 1 - g.q1)) & 1
                    sign = 1.0 if b0 == b1 else -1.0
                    m[idx, idx] = np.exp(-0.5j * g.theta * sign)
                total = m @ total
    return total


def phase_aligned(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rescale b by a unit phase so its largest entry matches a's."""
    k = np.argmax(np.abs(a))
    return b * (a.flat[k] / b.flat[k])


def apply_1q(state: np.ndarray, u: np.ndarray, q: int):
    """In-place single-qubit gate on qubit q."""
    m = state.reshape(2 ** q, 2, -1)
    a0 = m[:, 0, :].copy()
    a1 = m[:, 1, :]
    m[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
    m[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1


def apply_diag_1q(state: np.ndarray, d0: complex, d1: complex, q: int):
    m = state.reshape(2 ** q, 2, -1)
    m[:, 0, :] *= d0
    m[:, 1, :] *= d1


def apply_uzz(state: np.ndarray, theta: float, qa: int, qb: int):
    """In-place exp(-i theta/2 Z@Z) on qubits qa < qb."""
    if qa > qb:
        qa, qb = qb, qa
    eq = np.exp(-0.5j * theta)
    ne = np.exp(0.5j * theta)
    m = state.reshape(2 ** qa, 2, 2 ** (qb - qa - 1), 2, -1)
    m[:, 0, :, 0, :] *= eq
    m[:, 1, :, 1, :] *= eq
    m[:, 0, :, 1, :] *= ne
    m[:, 1, :, 0, :] *= ne


def initial_state_reference(c: Circuit) -> np.ndarray:
    state = np.zeros(2 ** c.n, dtype=complex)
    state[int(c.initial_bits, 2) if c.initial_bits else 0] = 1.0
    return state


def apply_circuit_reference(state: np.ndarray, c: Circuit) -> np.ndarray:
    """Per-gate in-place simulation; the reference for ``statevector.run``."""
    for lay in c.layers:
        if lay.kind == "1q":
            for g in lay.gates:
                apply_1q(state, g.matrix(), g.q)
        else:
            for g in lay.gates:
                apply_uzz(state, g.theta, g.q0, g.q1)
    return state


_PAULI_PAIRS = [(a, b) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")]


def noisy_trajectory_reference(c: Circuit, nm: NoiseModel,
                               rng: np.random.Generator) -> np.ndarray:
    """One trajectory, drawing each error as its gate is reached."""
    scale = nm.scale(c.n)
    p2 = min(nm.eps_2q * scale, 1.0)
    p1 = min(nm.eps_1q * scale, 1.0)
    phi = nm.dephasing_angle(c.n) * nm.mem_sign
    dz = (np.exp(-0.5j * phi), np.exp(0.5j * phi))
    weights = nm.pauli_probs
    state = initial_state_reference(c)
    for lay in c.layers:
        if lay.kind == "1q":
            for g in lay.gates:
                apply_1q(state, g.matrix(), g.q)
            if p1 > 0.0:
                for q in range(c.n):
                    if rng.random() < p1:
                        label = "XYZ"[rng.integers(0, 3)]
                        apply_1q(state, PAULIS[label], q)
        else:
            for g in lay.gates:
                apply_uzz(state, g.theta, g.q0, g.q1)
                if p2 > 0.0 and rng.random() < p2:
                    k = rng.choice(15, p=weights) if weights is not None else rng.integers(0, 15)
                    la, lb = _PAULI_PAIRS[k]
                    if la != "I":
                        apply_1q(state, PAULIS[la], g.q0)
                    if lb != "I":
                        apply_1q(state, PAULIS[lb], g.q1)
            if nm.eps_mem > 0.0:
                for q in range(c.n):
                    apply_diag_1q(state, dz[0], dz[1], q)
    return state


def run_trajectories_reference(c: Circuit, nm: NoiseModel, n_traj: int, seed,
                               shots_per_traj: int = 0) -> TrajectoryResult:
    """One per-gate simulation per trajectory; the reference for
    ``statevector.run_trajectories``."""
    ideal = apply_circuit_reference(initial_state_reference(c), c)
    seeds = np.random.SeedSequence(seed).spawn(n_traj)
    overlaps = np.empty(n_traj)
    samples: list[str] = []
    for t in range(n_traj):
        rng = np.random.default_rng(seeds[t])
        state = noisy_trajectory_reference(c, nm, rng)
        overlaps[t] = abs(np.vdot(ideal, state)) ** 2
        if shots_per_traj > 0:
            samples.extend(sample(StateVector(c.n, state), shots_per_traj, rng))
    stderr = float(np.std(overlaps, ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
    return TrajectoryResult(float(np.mean(overlaps)), stderr, overlaps,
                            StateVector(c.n, ideal), samples)


def pauli_pair_conjugate_reference(theta: float, p0: str, p1: str
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit factors of UZZ(theta) (P0 x P1) UZZ(theta)^dag, the phase on
    the first, found by scanning all 16 candidate pairs.  The reference for
    the closed-form frame correction in ``rcsw.circuits``."""
    g = uzz_matrix(theta)
    m = g @ np.kron(PAULIS[p0], PAULIS[p1]) @ g.conj().T
    for a in "IXYZ":
        for b in "IXYZ":
            cand = np.kron(PAULIS[a], PAULIS[b])
            overlap = np.trace(cand.conj().T @ m) / 4.0
            if abs(abs(overlap) - 1.0) < 1e-10:
                return PAULIS[a] * overlap, PAULIS[b]
    raise RuntimeError("conjugated operator is not a Pauli pair")


def schmidt_split_svd_reference(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The entangler split by an SVD of its 4x4 operator-Schmidt matrix,
    dropping singular values at most 1e-12 of the largest.  The reference for
    the closed-form split in ``rcsw.tn.network``."""
    g = uzz_matrix(theta).reshape(2, 2, 2, 2)  # [oa, ob, ia, ib]
    m = g.transpose(0, 2, 1, 3).reshape(4, 4)  # [(oa ia), (ob ib)]
    u, s, vh = np.linalg.svd(m)
    r = max(1, int((s > 1e-12 * s[0]).sum()))
    a = (u[:, :r] * np.sqrt(s[:r])).reshape(2, 2, r)
    b = (np.sqrt(s[:r])[:, None] * vh[:r]).reshape(r, 2, 2)
    return a, b


def edge_color_networkx_reference(g: graphs.RegularGraph, max_attempts: int = 64,
                                  seed=0) -> tuple[int, ...] | None:
    """``graphs.edge_color``'s colors, each matching found by networkx's
    ``max_weight_matching`` on the float draws; None where it would raise
    RejectSignal.  The reference for the blossom matcher in ``rcsw.graphs``."""
    import networkx as nx

    rng = np.random.default_rng(seed)
    edge_index = {e: i for i, e in enumerate(g.edges)}
    for _ in range(max_attempts):
        remaining = list(g.edges)
        colors = [-1] * len(g.edges)
        for color in range(g.degree):
            target = len({u for e in remaining for u in e}) // 2
            gg = nx.Graph()
            gg.add_nodes_from(range(g.n))
            for u, v in remaining:
                gg.add_edge(u, v, weight=float(rng.random()))
            matching = nx.max_weight_matching(gg, maxcardinality=True)
            if len(matching) < target:
                break  # stalled; remaining graph has no perfect matching
            matched = {(min(u, v), max(u, v)) for u, v in matching}
            for e in matched:
                colors[edge_index[e]] = color
            remaining = [e for e in remaining if e not in matched]
        else:
            return tuple(colors)
    return None


def rg_circuit(n: int, d: int, seed: int) -> Circuit:
    cg = graphs.sample_colored_graph(n, d, seed=seed)
    return build_rg_circuit(cg, seed=seed + 1)


def analyze_merges_reference(merges, legs, sliced=()) -> TreeStats:
    """Price a merge list over frozenset leg sets, one index at a time.

    The reference for the bitset pricing in ``rcsw.tn.tree``.
    """
    sliced_set = frozenset(sliced)

    def size(ls: frozenset[int]) -> int:
        s = 1
        for i in ls:
            s *= 1 if i in sliced_set else 2
        return s

    node: dict[int, frozenset[int]] = {t: ls for t, ls in enumerate(legs)}
    width = max((size(ls) for ls in legs), default=1)
    flops = 0
    nxt = len(legs)
    for a, b in merges:
        la, lb = node.pop(a), node.pop(b)
        parent = la ^ lb
        s = size(parent)
        k = size(la & lb)
        flops += 8 * s * k
        width = max(width, s)
        node[nxt] = parent
        nxt += 1
    if len(node) > 1 or any(node.values()):
        raise ValueError("merge list does not contract the network to a scalar")
    return TreeStats(flops=flops, log2_width=width.bit_length() - 1,
                     n_sliced=len(sliced_set))


def apply_zz_full_merge_reference(state: mps.MpsState, theta: float, qa: int, qb: int):
    """A ZZ gate as a dense 4-index tensor; across blocks, on the merged pair
    split by a full SVD.  The reference for the reduced update in ``rcsw.mps``."""
    g4 = uzz_matrix(theta).reshape(2, 2, 2, 2)
    state.counters.gates_2q += 1

    def apply(full, ax_a, ax_b):
        out = np.tensordot(g4, full, axes=([2, 3], [ax_a, ax_b]))
        state.flops += 8.0 * 4.0 * full.size
        return np.moveaxis(out, [0, 1], [ax_a, ax_b])

    pa, ta = state.locate(qa)
    pb, tb = state.locate(qb)
    if pa == pb:
        arr = state.tensors[pa]
        l, p, r = arr.shape
        full = arr.reshape((l,) + (2,) * len(state.blocks[pa]) + (r,))
        state.tensors[pa] = apply(full, 1 + ta, 1 + tb).reshape(l, p, r)
        return
    lo, hi = min(pa, pb), max(pa, pb)
    for p in range(hi - 1, lo, -1):
        mps._swap_blocks(state, p)
    mps._center_into(state, lo)
    theta2 = mps._merge(state, lo)
    l, pl, pr, r = theta2.shape
    sl = len(state.blocks[lo])
    full = theta2.reshape((l,) + (2,) * (sl + len(state.blocks[lo + 1])) + (r,))

    def axis_of(q):
        pos, t = state.locate(q)
        return 1 + t if pos == lo else 1 + sl + t

    out = apply(full, axis_of(qa), axis_of(qb))
    mps._split_pair(state, lo, out.reshape(l, pl, pr, r))
    for p in range(lo + 1, hi):
        mps._swap_blocks(state, p)


def _apply_layers_full_merge(state: mps.MpsState, layers, inverse: bool = False):
    for lay in (reversed(layers) if inverse else layers):
        for g in lay.gates:
            if lay.kind == "1q":
                u = g.matrix()
                mps._apply_1q(state, u.conj().T if inverse else u, g.q)
            else:
                apply_zz_full_merge_reference(
                    state, -g.theta if inverse else g.theta, g.q0, g.q1)


def evolve_full_merge_reference(c: Circuit, chi: int, blocking, seed=0,
                                cap: int = DEFAULT_CAP) -> mps.MpsState:
    """``mps.evolve`` with every cross-block gate taken through the full merge."""
    blocks = mps._resolve_blocking(c, blocking, seed)
    state = mps._fresh_state(c.n, blocks, c.initial_bits or "0" * c.n, chi, cap)
    _apply_layers_full_merge(state, c.layers)
    return state


def split_amplitude_full_merge_reference(c: Circuit, x: str, chi: int, blocking,
                                         seed=0) -> tuple[float, float]:
    """``mps.split_amplitude`` over the full-merge gate path."""
    blocks = mps._resolve_blocking(c, blocking, seed)
    cut = 2 * ((c.depth + 1) // 2)
    fwd = mps._fresh_state(c.n, blocks, c.initial_bits or "0" * c.n, chi, DEFAULT_CAP)
    _apply_layers_full_merge(fwd, c.layers[:cut])
    bwd = mps._fresh_state(c.n, blocks, x, chi, DEFAULT_CAP)
    _apply_layers_full_merge(bwd, c.layers[cut:], inverse=True)
    return abs(mps.mps_overlap(bwd, fwd)), fwd.f_acc * bwd.f_acc
