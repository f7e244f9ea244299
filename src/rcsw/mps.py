"""Blocked matrix-product-state circuit simulation with truncation accounting.

The state is a chain of block tensors with shape (l, 2**s_j, r): the middle
axis is the joint computational index of the qubits assigned to block j
(first listed qubit most significant) and l, r are bond indices capped at
chi.  Every entangler is the diagonal gate exp(-i(theta/2) Z x Z), so a gate
inside one block is a phase per basis state.  A gate across two adjacent
blocks is written in operator-Schmidt form cos(theta/2) I x I -
i sin(theta/2) Z x Z and its two terms are stacked onto the bond, which at
most doubles it to 2k.  The left block is then QR-factored and the right
block LQ-factored, and only the core of at most 2k x 2k is split with a
truncated SVD; its singular values are those of the merged pair, so the
truncation is the one a full SVD of the pair would make (the reduced update
of Zhou, Stoudenmire and Waintal, PRX 10, 041038 (2020)).  Blocks that are
not adjacent in the chain are first brought together by swapping whole
blocks, each swap a full SVD of the merged pair, and are swapped back
afterwards, so the chain layout never drifts.  Each truncation multiplies
f_acc by one minus the discarded weight and renormalizes the state, so
f_acc estimates the squared overlap with the exact state under the usual
assumption that truncation losses compound multiplicatively.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, _seed_int
from .errors import CapacityError, DomainError, FitError
from .graphs import partition_nodes
from .statevector import DEFAULT_CAP, StateVector

_ZERO_TOL = 1e-14  # singular values below s0 * this are rank padding, not content

MPS_CSV_HEADER = "N,d,chi,blocking,F_mps,eps_mps,flops_est,seed"


@dataclass
class MpsCounters:
    """What one chain did: gates applied, block swaps, truncated SVDs (gate
    splits and swaps), the largest bond any SVD kept, and the sum and the
    largest of the weights those SVDs discarded."""
    gates_1q: int = 0
    gates_2q: int = 0
    swaps: int = 0
    svds: int = 0
    peak_bond: int = 1
    disc_sum: float = 0.0
    disc_max: float = 0.0


@dataclass
class MpsState:
    n: int
    blocks: list[list[int]]
    tensors: list[np.ndarray]
    chi: int
    cap: int = DEFAULT_CAP
    f_acc: float = 1.0
    center: int = 0
    flops: float = 0.0
    counters: MpsCounters = field(default_factory=MpsCounters)

    @property
    def max_bond(self) -> int:
        return max(t.shape[2] for t in self.tensors)

    def locate(self, q: int) -> tuple[int, int]:
        """Chain position and within-block index of qubit q."""
        for pos, block in enumerate(self.blocks):
            if q in block:
                return pos, block.index(q)
        raise ValueError(f"qubit {q} not assigned to any block")

    def validate(self):
        if not 0.0 < self.f_acc <= 1.0:
            raise ValueError("f_acc must lie in (0, 1]")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise ValueError("chain must terminate in unit bonds")
        for j, t in enumerate(self.tensors):
            if t.ndim != 3 or t.shape[1] != 2 ** len(self.blocks[j]):
                raise ValueError(f"tensor {j} shape disagrees with its block")
            if j and t.shape[0] != self.tensors[j - 1].shape[2]:
                raise ValueError(f"bond mismatch at position {j}")
            if t.shape[0] > self.chi or t.shape[2] > self.chi:
                raise ValueError(f"bond at position {j} exceeds chi")

    def to_statevector(self, cap: int | None = None) -> StateVector:
        cap = self.cap if cap is None else cap
        if self.n > cap:
            raise CapacityError(f"{self.n} qubits exceeds the dense cap of {cap}")
        acc = self.tensors[0][0]
        for t in self.tensors[1:]:
            acc = np.tensordot(acc, t, axes=(-1, 0))
        full = acc[..., 0].reshape((2,) * self.n)
        order = [q for block in self.blocks for q in block]
        full = np.transpose(full, axes=[order.index(q) for q in range(self.n)])
        return StateVector(self.n, np.ascontiguousarray(full).reshape(-1))


@dataclass(frozen=True)
class MpsRunReport:
    n: int
    d: int
    chi: int
    blocking: str
    f_mps: float
    eps_mps: float
    flops_est: float
    seed: int | None

    def __post_init__(self):
        if not 0.0 < self.f_mps <= 1.0:
            raise ValueError("f_mps must lie in (0, 1]")
        if not 0.0 <= self.eps_mps < 1.0:
            raise ValueError("eps_mps must lie in [0, 1)")
        if (self.eps_mps == 0.0) != (self.f_mps == 1.0):
            raise ValueError("eps_mps vanishes exactly when f_mps is 1")

    def csv_row(self) -> str:
        return ",".join([
            str(self.n), str(self.d), str(self.chi), self.blocking,
            repr(self.f_mps), repr(self.eps_mps), repr(self.flops_est),
            "" if self.seed is None else str(self.seed),
        ])


def blocking_label(blocks: list[list[int]]) -> str:
    sizes = [len(b) for b in blocks]
    if len(set(sizes)) == 1:
        return f"{len(blocks)}x[{sizes[0]}]"
    return f"{len(blocks)}x[" + "/".join(str(s) for s in sizes) + "]"


def _resolve_blocking(c: Circuit, blocking, seed) -> list[list[int]]:
    if isinstance(blocking, (int, np.integer)):
        edges = [(g.q0, g.q1) for lay in c.two_qubit_layers() for g in lay.gates]
        return partition_nodes(c.n, edges, int(blocking), seed)
    blocks = [list(map(int, b)) for b in blocking]
    flat = [q for b in blocks for q in b]
    if sorted(flat) != list(range(c.n)):
        raise ValueError("blocking must cover every qubit exactly once")
    sizes = [len(b) for b in blocks]
    if max(sizes) - min(sizes) > 1:
        raise ValueError("blocking must be balanced (sizes within one)")
    return blocks


def _fresh_state(n: int, blocks, bits: str, chi: int, cap: int) -> MpsState:
    tensors = []
    for block in blocks:
        vec = np.zeros(2 ** len(block), dtype=complex)
        vec[int("".join(bits[q] for q in block), 2)] = 1.0
        tensors.append(vec.reshape(1, -1, 1))
    return MpsState(n=n, blocks=[list(b) for b in blocks], tensors=tensors,
                    chi=chi, cap=cap)


def _svd(mat: np.ndarray):
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg
        return scipy.linalg.svd(mat, full_matrices=False, lapack_driver="gesvd")


def _qr(state: MpsState, mat: np.ndarray):
    state.flops += 8.0 * mat.shape[0] * mat.shape[1] * min(mat.shape)
    return np.linalg.qr(mat)


def _shift_right(state: MpsState, j: int):
    arr = state.tensors[j]
    l, p, r = arr.shape
    q, rm = _qr(state, arr.reshape(l * p, r))
    state.tensors[j] = q.reshape(l, p, q.shape[1])
    state.flops += 8.0 * rm.shape[0] * state.tensors[j + 1].size
    state.tensors[j + 1] = np.tensordot(rm, state.tensors[j + 1], axes=(1, 0))
    state.center = j + 1


def _shift_left(state: MpsState, j: int):
    arr = state.tensors[j]
    l, p, r = arr.shape
    q, rm = _qr(state, arr.reshape(l, p * r).conj().T)
    state.tensors[j] = q.conj().T.reshape(q.shape[1], p, r)
    state.flops += 8.0 * state.tensors[j - 1].size * rm.shape[0]
    state.tensors[j - 1] = np.tensordot(
        state.tensors[j - 1], rm.conj().T, axes=(2, 0))
    state.center = j - 1


def _center_into(state: MpsState, pos: int):
    while state.center < pos:
        _shift_right(state, state.center)
    while state.center > pos + 1:
        _shift_left(state, state.center)


def _truncated_svd(state: MpsState, mat: np.ndarray):
    """Split mat at the orthogonality center into (u, s vh) truncated to chi.

    The one truncation rule: singular values at or below s0 * _ZERO_TOL are
    rank padding, at most chi of the rest are kept, the discarded share of
    the weight multiplies f_acc down, and the kept values are renormalized
    so the state stays unit norm.  The center must lie inside the factored
    pair for the weight to be the true global fidelity loss.
    """
    u, s, vh = _svd(mat)
    state.flops += 8.0 * mat.shape[0] * mat.shape[1] * min(mat.shape)
    rank = s.size
    tol = (s[0] if rank else 0.0) * _ZERO_TOL
    while rank > 1 and s[rank - 1] <= tol:
        rank -= 1
    keep = min(state.chi, rank)
    total = float(np.sum(s ** 2))
    disc = float(np.sum(s[keep:rank] ** 2))
    w = disc / total if total > 0.0 else 0.0
    if w > 0.0:
        state.f_acc *= 1.0 - w
    kept = s[:keep]
    norm = math.sqrt(float(np.sum(kept ** 2)))
    if norm > 0.0:
        kept = kept / norm
    cnt = state.counters
    cnt.svds += 1
    cnt.peak_bond = max(cnt.peak_bond, keep)
    cnt.disc_sum += w
    cnt.disc_max = max(cnt.disc_max, w)
    return u[:, :keep], kept[:, None] * vh[:keep]


def _split_pair(state: MpsState, pos: int, theta: np.ndarray):
    """SVD theta = (l, P_left, P_right, r) back into two tensors at pos."""
    l, pl, pr, r = theta.shape
    u, svh = _truncated_svd(state, theta.reshape(l * pl, pr * r))
    state.tensors[pos] = u.reshape(l, pl, -1)
    state.tensors[pos + 1] = svh.reshape(-1, pr, r)
    state.center = pos + 1


def _check_pair_cap(state: MpsState, pos: int):
    l, pl, _ = state.tensors[pos].shape
    _, pr, r = state.tensors[pos + 1].shape
    if l * pl * pr * r > 2 ** state.cap:
        raise CapacityError(
            f"merged pair at position {pos} needs {l * pl * pr * r} elements, "
            f"cap is 2^{state.cap}")


def _merge(state: MpsState, pos: int) -> np.ndarray:
    _check_pair_cap(state, pos)
    left, right = state.tensors[pos], state.tensors[pos + 1]
    l, pl, k = left.shape
    _, pr, r = right.shape
    state.flops += 8.0 * l * pl * pr * r * k
    return np.tensordot(left, right, axes=(2, 0))


def _swap_blocks(state: MpsState, pos: int):
    _center_into(state, pos)
    theta = _merge(state, pos).transpose(0, 2, 1, 3)
    state.blocks[pos], state.blocks[pos + 1] = \
        state.blocks[pos + 1], state.blocks[pos]
    _split_pair(state, pos, np.ascontiguousarray(theta))
    state.counters.swaps += 1


def _apply_1q(state: MpsState, u: np.ndarray, q: int):
    pos, t = state.locate(q)
    arr = state.tensors[pos]
    l, p, r = arr.shape
    work = arr.reshape(l, 2 ** t, 2, -1)
    out = np.tensordot(u, work, axes=([1], [2]))
    state.tensors[pos] = np.moveaxis(out, 0, 2).reshape(l, p, r)
    state.flops += 8.0 * 2.0 * arr.size
    state.counters.gates_1q += 1


def _z_signs(state: MpsState, q: int) -> tuple[int, np.ndarray]:
    """Chain position of qubit q and the Z eigenvalue of q per block index."""
    pos, t = state.locate(q)
    s = len(state.blocks[pos])
    bits = (np.arange(2 ** s) >> (s - 1 - t)) & 1
    return pos, 1.0 - 2.0 * bits


def _apply_zz(state: MpsState, theta: float, qa: int, qb: int):
    """exp(-i(theta/2) Z_qa Z_qb), with the reduced two-site update across blocks."""
    state.counters.gates_2q += 1
    pa, za = _z_signs(state, qa)
    pb, zb = _z_signs(state, qb)
    if pa == pb:
        arr = state.tensors[pa]
        state.tensors[pa] = np.exp(-0.5j * theta * za * zb)[:, None] * arr
        state.flops += 8.0 * arr.size
        return
    lo, hi = min(pa, pb), max(pa, pb)
    for p in range(hi - 1, lo, -1):
        _swap_blocks(state, p)
    _center_into(state, lo)
    _check_pair_cap(state, lo)
    zl, zr = (za, zb) if pa == lo else (zb, za)
    left, right = state.tensors[lo], state.tensors[lo + 1]
    l, pl, k = left.shape
    _, pr, r = right.shape
    # the terms cos I x I and -i sin Z x Z, indexed (term, k) on the bond
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    left2 = np.stack([c * left, (-1j * s) * (zl[:, None] * left)], axis=2)
    right2 = np.concatenate([right, zr[:, None] * right])
    state.flops += 8.0 * (left.size + right.size)
    q_left, r_left = _qr(state, left2.reshape(l * pl, 2 * k))
    q_right, r_right = _qr(state, right2.reshape(2 * k, pr * r).conj().T)
    core = r_left @ r_right.conj().T
    state.flops += 8.0 * core.shape[0] * core.shape[1] * 2 * k
    u, svh = _truncated_svd(state, core)
    state.tensors[lo] = (q_left @ u).reshape(l, pl, -1)
    state.tensors[lo + 1] = (svh @ q_right.conj().T).reshape(-1, pr, r)
    state.flops += 8.0 * u.shape[1] * (q_left.size + q_right.size)
    state.center = lo + 1
    for p in range(lo + 1, hi):
        _swap_blocks(state, p)


def _apply_layers(state: MpsState, layers, inverse: bool = False):
    seq = reversed(layers) if inverse else layers
    for lay in seq:
        for g in lay.gates:
            if lay.kind == "1q":
                u = g.matrix()
                _apply_1q(state, u.conj().T if inverse else u, g.q)
            else:
                _apply_zz(state, -g.theta if inverse else g.theta, g.q0, g.q1)


def mps_overlap(a: MpsState, b: MpsState) -> complex:
    """Inner product <a|b> of two states with identical block layouts."""
    if a.blocks != b.blocks:
        raise ValueError("states must share one block layout")
    env = np.ones((1, 1), dtype=complex)
    for ta, tb in zip(a.tensors, b.tensors):
        tmp = np.tensordot(env, tb, axes=(1, 0))
        env = np.tensordot(ta.conj(), tmp, axes=([0, 1], [0, 1]))
    return complex(env[0, 0])


def evolve(c: Circuit, chi: int, blocking, seed=0,
           cap: int = DEFAULT_CAP) -> tuple[MpsState, MpsRunReport]:
    """Run the circuit through a blocked chain truncated at chi.

    blocking is either a block count (qubits are then grouped to minimize
    the number of gates crossing blocks) or an explicit balanced list of
    qubit lists giving the chain order.
    """
    if chi < 1:
        raise ValueError("chi must be at least 1")
    blocks = _resolve_blocking(c, blocking, seed)
    bits = c.initial_bits or "0" * c.n
    state = _fresh_state(c.n, blocks, bits, chi, cap)
    _apply_layers(state, c.layers)
    n2q = c.n_2q
    eps = 0.0 if n2q == 0 or state.f_acc == 1.0 \
        else 1.0 - state.f_acc ** (1.0 / n2q)
    report = MpsRunReport(
        n=c.n, d=c.depth, chi=chi, blocking=blocking_label(blocks),
        f_mps=state.f_acc, eps_mps=eps, flops_est=state.flops,
        seed=_seed_int(seed))
    return state, report


def split_amplitude(c: Circuit, x: str, chi: int, blocking, seed=0,
                    cap: int = DEFAULT_CAP) -> tuple[float, float]:
    """Estimate |<x|C|0...>| by meeting in the middle of the circuit.

    The first ceil(d/2) entangling layers are applied forward from the
    initial bits; the rest are applied in inverse from |x>.  Returns the
    overlap magnitude of the two chains and the combined fidelity estimate
    F = f_forward * f_backward.
    """
    if len(x) != c.n or set(x) - {"0", "1"}:
        raise ValueError("x must be an n-character bitstring")
    blocks = _resolve_blocking(c, blocking, seed)
    cut = 2 * ((c.depth + 1) // 2)
    fwd = _fresh_state(c.n, blocks, c.initial_bits or "0" * c.n, chi, cap)
    _apply_layers(fwd, c.layers[:cut])
    bwd = _fresh_state(c.n, blocks, x, chi, cap)
    _apply_layers(bwd, c.layers[cut:], inverse=True)
    amp = mps_overlap(bwd, fwd)
    return abs(amp), fwd.f_acc * bwd.f_acc


def bond_bound(f_target: float, purity: float) -> float:
    """Smallest bond dimension compatible with fidelity f_target.

    A chain truncated at chi can reach squared overlap at most
    chi * Tr(rho^2) across any of its cuts, so chi must be at least
    f_target / purity; callers round up.
    """
    if not 0.0 < purity <= 1.0:
        raise DomainError("purity must lie in (0, 1]")
    if not 0.0 <= f_target <= 1.0:
        raise DomainError("f_target must lie in [0, 1]")
    return f_target / purity


def topk_postprocess(est_probs, exact_probs, n: int, alpha: float,
                     shots: int, seed=0) -> float:
    """Second-moment fidelity of shots resampled from the largest estimates.

    est_probs and exact_probs are parallel arrays over one circuit's
    candidate bitstrings.  The top alpha fraction by estimated probability
    is retained, shots draws are made from the retained set with weight
    proportional to the estimates, and 2^n P(x) - 1 is averaged using the
    exact probabilities of the drawn candidates.
    """
    est = np.asarray(est_probs, dtype=float)
    exact = np.asarray(exact_probs, dtype=float)
    if est.ndim != 1 or est.shape != exact.shape or est.size == 0:
        raise ValueError("probability arrays must be matching nonempty vectors")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if shots < 1:
        raise ValueError("shots must be positive")
    k = max(1, int(round(alpha * est.size)))
    retained = np.argsort(est)[::-1][:k]
    w = est[retained]
    total = w.sum()
    p = w / total if total > 0.0 else np.full(k, 1.0 / k)
    rng = np.random.default_rng(seed)
    idx = rng.choice(retained, size=shots, p=p)
    return float(np.mean(2.0 ** n * exact[idx]) - 1.0)


@dataclass(frozen=True)
class ChiScanRow:
    chi: int
    blocking: str
    eps_median: float
    eps_std: float


@dataclass(frozen=True)
class ChiScan:
    rows: tuple[ChiScanRow, ...]

    def extrapolate_chi(self, eps_target: float, blocking: str | None = None) -> float:
        """Bond dimension reaching eps_target, linear in log2(chi).

        Fits a line through the medians at the two largest bond dimensions
        of the selected blocking and solves for the target error rate.
        """
        rows = [r for r in self.rows
                if blocking is None or r.blocking == blocking]
        by_chi = sorted({r.chi: r for r in rows}.values(), key=lambda r: r.chi)
        if len(by_chi) < 2:
            raise FitError("need two distinct bond dimensions to extrapolate")
        r1, r2 = by_chi[-2], by_chi[-1]
        if r1.eps_median == r2.eps_median:
            raise FitError("flat error rates cannot be extrapolated")
        x1, x2 = math.log2(r1.chi), math.log2(r2.chi)
        slope = (r2.eps_median - r1.eps_median) / (x2 - x1)
        return 2.0 ** (x2 + (eps_target - r2.eps_median) / slope)


def _as_blocking_list(blockings) -> list:
    """Normalize to a list of blocking specs (ints or explicit block lists)."""
    if isinstance(blockings, (int, np.integer)):
        return [int(blockings)]
    blockings = list(blockings)
    if not blockings:
        raise ValueError("need at least one blocking")
    if all(isinstance(b, (int, np.integer)) for b in blockings):
        return [int(b) for b in blockings]
    if all(isinstance(b, (list, tuple)) for b in blockings) and \
            all(isinstance(q, (int, np.integer)) for b in blockings for q in b):
        return [blockings]  # a single explicit blocking was passed bare
    return blockings


def epsilon_vs_chi(circuits, chis, blockings, seed=0,
                   cap: int = DEFAULT_CAP) -> ChiScan:
    """Median error per entangling gate over a circuit list, per (chi, blocking)."""
    chis = sorted(set(int(x) for x in chis))
    if len(chis) < 2:
        raise ValueError("need at least two bond dimensions")
    blockings = _as_blocking_list(blockings)
    rows = []
    for blocking in blockings:
        for chi in chis:
            eps = [evolve(c, chi, blocking, seed=seed, cap=cap)[1].eps_mps
                   for c in circuits]
            label = blocking_label(_resolve_blocking(circuits[0], blocking, seed))
            rows.append(ChiScanRow(
                chi=chi, blocking=label,
                eps_median=float(np.median(eps)), eps_std=float(np.std(eps))))
    return ChiScan(rows=tuple(rows))
