"""Blocked matrix-product-state circuit simulation with truncation accounting.

The state is a chain of block tensors with shape (l, 2**s_j, r): the middle
axis is the joint computational index of the qubits assigned to block j
(first listed qubit most significant) and l, r are bond indices capped at
chi.  A 1q layer is one circuits.layer_matrices matrix per gated qubit.
The entangler UZZ(ZZ_ANGLE) is diagonal, so inside one block it is a phase
per basis state (circuits.ZZ_PHASES).  Across two adjacent blocks the two
terms of its operator-Schmidt form (circuits.ZZ_TERMS, I x I and Z x Z)
are stacked onto the bond, which at most doubles it to 2k.  The left block
is then QR-factored and the right block LQ-factored, and only the core of
at most 2k x 2k is split with a truncated SVD; its singular values are
those of the merged pair, so the truncation is the one a full SVD of the
pair would make (the reduced update of Zhou, Stoudenmire and Waintal, PRX
10, 041038 (2020)).  Blocks that are not adjacent in the chain are first
brought together by swapping whole blocks, each swap a full SVD of the
merged pair, and are swapped back afterwards, so the chain layout never
drifts.  Each truncation multiplies f_acc by one minus the discarded weight
and renormalizes the state, so f_acc estimates the squared overlap with the
exact state under the usual assumption that truncation losses compound
multiplicatively.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import ZZ_PHASES, ZZ_TERMS, Circuit, _seed_int, layer_matrices
from .errors import CapacityError, FitError
from .graphs import partition_nodes
from .statevector import DEFAULT_CAP, StateVector, _check_cap

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
    f_acc: float = 1.0
    center: int = 0
    flops: float = 0.0
    counters: MpsCounters = field(default_factory=MpsCounters)

    @property
    def max_bond(self) -> int:
        return max(t.shape[2] for t in self.tensors)

    @property
    def exact_bond(self) -> int:
        """The bond an untruncated chain of these blocks can need: over its
        cuts, the largest 2^min(qubits left, qubits right)."""
        left = itertools.accumulate(len(b) for b in self.blocks[:-1])
        return max((2 ** min(k, self.n - k) for k in left), default=1)

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

    def to_statevector(self) -> StateVector:
        _check_cap(self.n, DEFAULT_CAP)
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


def _resolve_blocking(c: Circuit, blocking: int, seed) -> list[list[int]]:
    """The chain's blocks: a balanced partition cutting few of c's gates."""
    edges = [(g.q0, g.q1) for lay in c.two_qubit_layers() for g in lay.gates]
    return partition_nodes(c.n, edges, int(blocking), seed)


def _fresh_state(n: int, blocks, bits: str, chi: int) -> MpsState:
    tensors = []
    for block in blocks:
        vec = np.zeros(2 ** len(block), dtype=complex)
        vec[int("".join(bits[q] for q in block), 2)] = 1.0
        tensors.append(vec.reshape(1, -1, 1))
    return MpsState(n=n, blocks=[list(b) for b in blocks], tensors=tensors,
                    chi=chi)


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
    if l * pl * pr * r > 2 ** DEFAULT_CAP:
        raise CapacityError(
            f"merged pair at position {pos} needs {l * pl * pr * r} elements, "
            f"cap is 2^{DEFAULT_CAP}")


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


def _qubit_bits(state: MpsState, q: int) -> tuple[int, np.ndarray]:
    """Chain position of qubit q and the bit of q per block index."""
    pos, t = state.locate(q)
    s = len(state.blocks[pos])
    return pos, (np.arange(2 ** s) >> (s - 1 - t)) & 1


def _apply_zz(state: MpsState, qa: int, qb: int):
    """UZZ(ZZ_ANGLE) on qa and qb, with the reduced two-site update across blocks."""
    state.counters.gates_2q += 1
    pa, ba = _qubit_bits(state, qa)
    pb, bb = _qubit_bits(state, qb)
    if pa == pb:
        arr = state.tensors[pa]
        state.tensors[pa] = ZZ_PHASES[ba, bb][:, None] * arr
        state.flops += 8.0 * arr.size
        return
    lo, hi = min(pa, pb), max(pa, pb)
    for p in range(hi - 1, lo, -1):
        _swap_blocks(state, p)
    _center_into(state, lo)
    _check_pair_cap(state, lo)
    bl, br = (ba, bb) if pa == lo else (bb, ba)
    zl, zr = 1.0 - 2.0 * bl, 1.0 - 2.0 * br  # Z eigenvalues per block index
    left, right = state.tensors[lo], state.tensors[lo + 1]
    l, pl, k = left.shape
    _, pr, r = right.shape
    # the terms w_i I x I and w_z Z x Z of ZZ_TERMS, indexed (term, k) on the bond
    (w_i, _), (w_z, _) = ZZ_TERMS
    left2 = np.stack([w_i * left, w_z * (zl[:, None] * left)], axis=2)
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


def _apply_layers(state: MpsState, layers):
    """Apply the layers in order; a 1q layer as one matrix per gated qubit, in
    first-gate order, so two gates on one qubit are applied as their product."""
    for lay in layers:
        if lay.kind == "1q":
            mats = layer_matrices(lay, state.n)
            for q in dict.fromkeys(g.q for g in lay.gates):
                _apply_1q(state, mats[q], q)
        else:
            for g in lay.gates:
                _apply_zz(state, g.q0, g.q1)


def evolve(c: Circuit, chi: int, blocking: int,
           seed=0) -> tuple[MpsState, MpsRunReport]:
    """Run the circuit through a blocked chain truncated at chi.

    blocking is the block count: the qubits are split into that many
    blocks whose sizes differ by at most one, grouped (from seed) to cut
    few gates, and the blocks form the chain in that order.  A block, or a
    merged pair of blocks, larger than 2^DEFAULT_CAP elements raises
    CapacityError; an oversized block does so before anything is allocated.
    """
    if chi < 1:
        raise ValueError("chi must be at least 1")
    blocks = _resolve_blocking(c, blocking, seed)
    for pos, block in enumerate(blocks):
        if len(block) > DEFAULT_CAP:
            raise CapacityError(
                f"block at position {pos} needs {2 ** len(block)} elements, "
                f"cap is 2^{DEFAULT_CAP}")
    bits = c.initial_bits or "0" * c.n
    state = _fresh_state(c.n, blocks, bits, chi)
    _apply_layers(state, c.layers)
    n2q = c.n_2q
    eps = 0.0
    if n2q and state.f_acc < 1.0:
        eps = 1.0 - state.f_acc ** (1.0 / n2q)
        if eps == 0.0:  # f_acc within a few ulps of 1: its root rounds to 1
            eps = -math.expm1(math.log(state.f_acc) / n2q)
    report = MpsRunReport(
        n=c.n, d=c.depth, chi=chi, blocking=blocking_label(blocks),
        f_mps=state.f_acc, eps_mps=eps, flops_est=state.flops,
        seed=_seed_int(seed))
    return state, report


@dataclass(frozen=True)
class ChiScanRow:
    chi: int
    blocking: str
    eps_median: float
    eps_std: float


@dataclass(frozen=True)
class ChiScan:
    rows: tuple[ChiScanRow, ...]

    def extrapolate_chi(self, eps_target: float) -> float:
        """Bond dimension reaching eps_target, linear in log2(chi).

        Fits a line through the medians at the two largest bond dimensions
        and solves for the target error rate, which must lie in (0, 1).
        Raises FitError when there is no such line (one bond dimension, or
        equal medians) or its solution overflows a float.
        """
        if not 0 < eps_target < 1:
            raise ValueError(f"target error rate {eps_target!r} must lie in (0, 1)")
        by_chi = sorted({r.chi: r for r in self.rows}.values(), key=lambda r: r.chi)
        if len(by_chi) < 2:
            raise FitError("need two distinct bond dimensions to extrapolate")
        r1, r2 = by_chi[-2], by_chi[-1]
        if r1.eps_median == r2.eps_median:
            raise FitError("flat error rates cannot be extrapolated")
        x1, x2 = math.log2(r1.chi), math.log2(r2.chi)
        slope = (r2.eps_median - r1.eps_median) / (x2 - x1)
        try:
            return 2.0 ** (x2 + (eps_target - r2.eps_median) / slope)
        except OverflowError:  # a nearly flat line: far beyond any float
            raise FitError("extrapolated bond dimension overflows a float") from None

