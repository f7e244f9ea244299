"""Shared oracles and factories for the test suite."""
import cmath
import functools
import heapq
import json
import math
import operator
import re

import numpy as np

from rcsw import graphs, mps
from rcsw.circuits import (
    PAULIS, ZZ_ANGLE, Circuit, Layer, OneQubitGate, TwoQubitGate, build_rg_circuit,
)
from rcsw.statevector import NoiseModel, StateVector, TrajectoryResult, sample
from rcsw.tn import order
from rcsw.tn.tree import (
    ContractionTree,
    TreeStats,
    index_mask,
    leg_sets,
    mask_indices,
    price,
    walk_merges,
)


def rz(psi: float) -> np.ndarray:
    """Rz(psi) = diag(exp(-i psi/2), exp(i psi/2))."""
    return np.array([[cmath.exp(-0.5j * psi), 0], [0, cmath.exp(0.5j * psi)]])


def u1q(theta: float, phi: float) -> np.ndarray:
    """U1q(theta, phi) = exp(-i(theta/2)(X cos phi + Y sin phi))."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * cmath.exp(-1j * phi) * s],
                     [-1j * cmath.exp(1j * phi) * s, c]])


def su2(psi: float, theta: float, phi: float) -> np.ndarray:
    """One stored 1q gate, Rz(psi) U1q(theta, phi), built on its own: the
    per-gate reference for ``circuits.layer_matrices``."""
    return rz(psi) @ u1q(theta, phi)


def gate_matrix(g: OneQubitGate) -> np.ndarray:
    return su2(g.psi, g.theta, g.phi)


def uzz_matrix(theta: float) -> np.ndarray:
    """UZZ(theta) = exp(-i(theta/2) Z x Z) as a dense 4x4 matrix, the
    reference for every place the library applies the entangler."""
    a = cmath.exp(-0.5j * theta)
    b = cmath.exp(0.5j * theta)
    return np.diag([a, b, b, a])


def dense_unitary(c: Circuit) -> np.ndarray:
    """Independent full-matrix construction via Kronecker products."""
    dim = 2 ** c.n
    total = np.eye(dim, dtype=complex)
    for lay in c.layers:
        if lay.kind == "1q":
            for g in lay.gates:
                ops = [np.eye(2, dtype=complex)] * c.n
                ops[g.q] = gate_matrix(g)
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
                    m[idx, idx] = np.exp(-0.5j * ZZ_ANGLE * sign)
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
                apply_1q(state, gate_matrix(g), g.q)
        else:
            for g in lay.gates:
                apply_uzz(state, ZZ_ANGLE, g.q0, g.q1)
    return state


_PAULI_PAIRS = [(a, b) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")]


def noisy_trajectory_reference(c: Circuit, nm: NoiseModel,
                               rng: np.random.Generator) -> np.ndarray:
    """One trajectory, drawing each error as its gate is reached."""
    p2 = min(nm.eps_2q * nm.scale(c.n), 1.0)
    phi = nm.dephasing_angle(c.n)
    dz = (np.exp(-0.5j * phi), np.exp(0.5j * phi))
    state = initial_state_reference(c)
    for lay in c.layers:
        if lay.kind == "1q":
            for g in lay.gates:
                apply_1q(state, gate_matrix(g), g.q)
        else:
            for g in lay.gates:
                apply_uzz(state, ZZ_ANGLE, g.q0, g.q1)
                if p2 > 0.0 and rng.random() < p2:
                    la, lb = _PAULI_PAIRS[rng.integers(0, 15)]
                    if la != "I":
                        apply_1q(state, PAULIS[la], g.q0)
                    if lb != "I":
                        apply_1q(state, PAULIS[lb], g.q1)
            if nm.eps_mem > 0.0:
                for q in range(c.n):
                    apply_diag_1q(state, dz[0], dz[1], q)
    return state


def draw_errors_reference(c: Circuit, nm: NoiseModel, rng: np.random.Generator) -> dict:
    """One trajectory's Pauli errors, one scalar draw per gate in circuit
    order; the reference for ``statevector._draw_errors``."""
    p2 = min(nm.eps_2q * nm.scale(c.n), 1.0)
    errors = {}
    for i, lay in enumerate(c.layers):
        if lay.kind == "1q" or p2 == 0.0:
            continue
        hits = []
        for g in lay.gates:
            if rng.random() < p2:
                la, lb = _PAULI_PAIRS[rng.integers(0, 15)]
                hits += [(q, p) for q, p in ((g.q0, la), (g.q1, lb)) if p != "I"]
        if hits:
            errors[i] = hits
    return errors


def apply_zz_layer_reference(psi: np.ndarray, n: int, lay: Layer) -> np.ndarray:
    """A ZZ layer as one broadcast multiply per gate on the (2,)*n view by
    the 2x2 phase table; the reference for ``statevector._PhaseLayer``."""
    phases = np.diag(uzz_matrix(ZZ_ANGLE)).reshape(2, 2)
    view = psi.reshape((2,) * n)
    for g in lay.gates:
        axes = [1] * n
        axes[g.q0] = axes[g.q1] = 2
        view *= phases.reshape(axes)
    return psi


def run_trajectories_reference(c: Circuit, nm: NoiseModel, n_traj: int, seed,
                               shots_per_traj: int = 0) -> TrajectoryResult:
    """One per-gate simulation per trajectory; the reference for
    ``statevector.run_trajectories``."""
    ideal = apply_circuit_reference(initial_state_reference(c), c)
    seeds = np.random.SeedSequence(seed).spawn(n_traj)
    overlaps = np.empty(n_traj)
    samples = [np.empty(0, dtype=np.int64)]
    for t in range(n_traj):
        rng = np.random.default_rng(seeds[t])
        state = noisy_trajectory_reference(c, nm, rng)
        overlaps[t] = abs(np.vdot(ideal, state)) ** 2
        if shots_per_traj > 0:
            samples.append(sample(StateVector(c.n, state), shots_per_traj, rng))
    stderr = float(np.std(overlaps, ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
    return TrajectoryResult(float(np.mean(overlaps)), stderr, overlaps,
                            StateVector(c.n, ideal), np.concatenate(samples))


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

    The reference for the bitset pricing in ``rcsw.tn.tree``, widest node
    included: the legs of the first node of the largest size, leaves first.
    """
    sliced_set = frozenset(sliced)

    def size(ls: frozenset[int]) -> int:
        s = 1
        for i in ls:
            s *= 1 if i in sliced_set else 2
        return s

    node: dict[int, frozenset[int]] = {t: ls for t, ls in enumerate(legs)}
    widest = max(legs, key=size, default=frozenset())
    width = size(widest)
    flops = 0
    nxt = len(legs)
    for a, b in merges:
        la, lb = node.pop(a), node.pop(b)
        parent = la ^ lb
        s = size(parent)
        k = size(la & lb)
        flops += 8 * s * k
        if s > width:
            width, widest = s, parent
        node[nxt] = parent
        nxt += 1
    if len(node) > 1 or any(node.values()):
        raise ValueError("merge list does not contract the network to a scalar")
    return TreeStats(flops=flops, log2_width=width.bit_length() - 1,
                     widest=sum(1 << i for i in widest), n_sliced=len(sliced_set))


def slice_choice_reference(merges, legs: list[int], cut: int,
                           candidates: int) -> tuple[int, int, int]:
    """(log2_width, flops, i) of the index ``slice_tree`` slices next, with
    each candidate i priced by its own walk of the whole merge list."""
    trials = [(walk_merges(merges, legs, cut | 1 << i), i)
              for i in mask_indices(candidates)]
    stats, i = min(trials, key=lambda t: (t[0].log2_width, t[0].flops, t[1]))
    return stats.log2_width, stats.flops, i


def greedy_merges_reference(legs: list[int], live: int, rng) -> list[tuple[int, int]]:
    """The greedy pairing of ``rcsw.tn.order``, one scalar draw per heap push.

    Every pair is scored by the entries its merge adds less those it frees,
    and its uniform tie-break is drawn as the pair is pushed, initial pairs
    first.
    """
    node = dict(enumerate(legs))
    nbrs = {t: set() for t in node}
    owner: dict[int, list[int]] = {}
    for t, ls in enumerate(legs):
        for i in mask_indices(ls):
            owner.setdefault(i, []).append(t)
    for pair in owner.values():
        if len(pair) == 2:
            a, b = pair
            nbrs[a].add(b)
            nbrs[b].add(a)

    def size(ls):
        return 2 ** (ls & live).bit_count()

    def score(a, b):
        return size(node[a] ^ node[b]) - size(node[a]) - size(node[b])

    heap = []
    for a in list(node):
        for b in sorted(nbrs[a]):
            if a < b:
                heapq.heappush(heap, (score(a, b), rng.random(), a, b))
    merges = []
    nxt = len(legs)
    while len(node) > 1:
        pick = None
        while heap:
            _, _, a, b = heapq.heappop(heap)
            if a in node and b in node:
                pick = (a, b)
                break
        if pick is None:
            pick = tuple(sorted(node)[:2])
        a, b = pick
        w = nxt
        nxt += 1
        merges.append((a, b))
        node[w] = node.pop(a) ^ node.pop(b)
        nbrs[w] = set()
        for x in sorted((nbrs.pop(a) | nbrs.pop(b)) - {a, b}):
            nbrs[x] -= {a, b}
            nbrs[x].add(w)
            nbrs[w].add(x)
            heapq.heappush(heap, (score(w, x), rng.random(), w, x))
    return merges


def optimize_order_reference(tn, budget: int = 8, seed=0, sliced=()) -> ContractionTree:
    """``rcsw.tn.order.optimize_order`` with every greedy trial run to the end.

    The sweeps are chains over the gates and over the wire-major leaves.
    Each trial runs ``greedy_merges_reference`` over the leaves and, on a
    split network, over whole gates numbered 0, 1, ... from a fresh
    generator of the same child, its merges lifted to the leaves by
    chaining each gate's tensors first.  Every candidate is priced by its
    own walk and the first with the fewest FLOPs is returned, so no trial
    is cut off by a bound.
    """
    t_count = tn.n_tensors
    legs = leg_sets(tn.indices)
    if t_count == 0:
        return price([], legs, sliced)
    cut = index_mask(sliced)
    live = ~cut
    groups = list(order._gate_groups(tn).values())
    split = len(groups) < t_count
    qlegs = [functools.reduce(operator.xor, (legs[t] for t in g)) for g in groups]

    def lifted(qmerges, groups):
        """Merges over group nodes 0, 1, ... as merges over the leaves."""
        merges = []

        def join(a, b):
            merges.append((a, b))
            return t_count + len(merges) - 1

        node = [functools.reduce(join, g) for g in groups]
        for a, b in qmerges:
            node.append(join(node[a], node[b]))
        return merges

    def chain(m):
        """Merges joining nodes 0..m-1 left to right."""
        return [(0 if k == 1 else m + k - 2, k) for k in range(1, m)]

    wire_major = [[t] for t in order._wire_major_order(tn)]
    candidates = [lifted(chain(len(groups)), groups), lifted(chain(t_count), wire_major)]
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    for child in ss.spawn(max(budget, 0)):
        candidates.append(greedy_merges_reference(legs, live, np.random.default_rng(child)))
        if split:
            qmerges = greedy_merges_reference(qlegs, live, np.random.default_rng(child))
            candidates.append(lifted(qmerges, groups))
    stats, merges = min(((walk_merges(m, legs, cut), m) for m in candidates),
                        key=lambda pair: pair[0].flops)
    return ContractionTree(merges, tuple(sliced), stats)


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


def _apply_layers_full_merge(state: mps.MpsState, layers):
    for lay in layers:
        for g in lay.gates:
            if lay.kind == "1q":
                mps._apply_1q(state, gate_matrix(g), g.q)
            else:
                apply_zz_full_merge_reference(state, ZZ_ANGLE, g.q0, g.q1)


def evolve_full_merge_reference(c: Circuit, chi: int, blocking: int,
                                seed=0) -> mps.MpsState:
    """``mps.evolve`` with every cross-block gate taken through the full merge."""
    blocks = mps._resolve_blocking(c, blocking, seed)
    state = mps._fresh_state(c.n, blocks, c.initial_bits or "0" * c.n, chi)
    _apply_layers_full_merge(state, c.layers)
    return state


def deserialize(text: str) -> Circuit:
    """Read back the JSON written by ``circuits.serialize``; its round-trip oracle."""
    doc = json.loads(text)
    layers = []
    for lay in doc["layers"]:
        if lay["type"] == "1q":
            gates = tuple(OneQubitGate(g["q"], g["psi"], g["theta"], g["phi"])
                          for g in lay["gates"])
        else:
            assert all(g["theta"] == ZZ_ANGLE for g in lay["gates"])
            gates = tuple(TwoQubitGate(g["q0"], g["q1"]) for g in lay["gates"])
        layers.append(Layer(lay["type"], gates))
    return Circuit(n=doc["n"], layers=tuple(layers), ensemble=doc["ensemble"],
                   seed=doc["seed"], graph=doc.get("graph"),
                   initial_bits=doc.get("initial_bits"))


_QASM_STMT = re.compile(
    r"^(x|u1q|rz|zzp)\s*(?:\(([^)]*)\))?\s*q\[(\d+)\]\s*(?:,\s*q\[(\d+)\])?;$")


def circuit_from_qasm(text: str) -> Circuit:
    """Read back the dialect written by ``circuits.export_qasm``; its round-trip
    oracle.  Gates map exactly, global phase conventions included."""
    layers: list[Layer] = []
    gates: list = []
    pending_u1q: dict[int, tuple[float, float]] = {}

    def flush():
        nonlocal gates
        layers.append(Layer("2q" if len(layers) % 2 else "1q", tuple(gates)))
        gates = []

    for line in text.splitlines():
        if line.startswith("qreg"):
            bits = ["0"] * int(re.fullmatch(r"qreg q\[(\d+)\];", line).group(1))
        m = _QASM_STMT.match(line)
        if not m:
            continue  # header, comments, gate definitions, registers, measure
        name, args, qa, qb = m.group(1), m.group(2), int(m.group(3)), m.group(4)
        vals = [float(a) for a in args.split(",")] if args else []
        if name == "x":
            bits[qa] = "1"
            continue
        if (name == "zzp") != (len(layers) % 2 == 1):
            flush()  # a gate of the other kind closes the open layer
        if name == "u1q":
            pending_u1q[qa] = (vals[0], vals[1])
        elif name == "rz":
            theta, phi = pending_u1q.pop(qa)
            gates.append(OneQubitGate(qa, vals[0], theta, phi))
        else:
            assert vals == [ZZ_ANGLE]
            gates.append(TwoQubitGate(qa, int(qb)))
    flush()
    if len(layers) % 2 == 0:
        layers.append(Layer("1q", ()))
    bitstr = "".join(bits)
    return Circuit(n=len(bits), layers=tuple(layers),
                   initial_bits=bitstr if "1" in bitstr else None)


def graph_from_json(doc: dict) -> graphs.ColoredGraph:
    """The colored graph of an rg or 2D circuit's ``graph`` document."""
    edges = tuple(map(tuple, doc["edges"]))
    return graphs.ColoredGraph(doc["n"], edges, tuple(doc["colors"]), doc["n_colors"])
