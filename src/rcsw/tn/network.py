"""Circuit to tensor-network mapping.

A layered circuit with fixed input and output bitstrings becomes a closed
network: each two-qubit gate is Schmidt-split across the two wires into a
pair of wire-local tensors, which split_rank=4 contracts back into one
rank-4 tensor, and all single-qubit gates and boundary states are absorbed
into the neighboring gate tensors.  The numbers come from rcsw.circuits:
one layer_matrices matrix per gated qubit of a 1q layer, and the
entangler's operator-Schmidt form ZZ_TERMS, cos(ZZ_ANGLE/2) I x I -
i sin(ZZ_ANGLE/2) Z x Z, whose two terms make every bond, like every wire
index, of dimension 2.
"""
from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..circuits import PAULIS, ZZ_TERMS, Circuit, layer_matrices


@dataclass
class TensorNetwork:
    """Closed network: every index appears in exactly two tensors.

    arrays[t] has one axis of dimension 2 per entry of indices[t].  scalar
    carries factors from wires that never meet a two-qubit gate and from
    fully absorbed tensors.  provenance[t] is
    (two_qubit_layer_position, (q0, q1), half) with half one of "a", "b",
    "ab", recording where the tensor came from; depth is the circuit's
    number of two-qubit layers.
    """

    n: int
    depth: int
    arrays: list[np.ndarray] = field(default_factory=list)
    indices: list[tuple[int, ...]] = field(default_factory=list)
    scalar: complex = 1.0 + 0.0j
    provenance: list[tuple] = field(default_factory=list)

    @property
    def n_tensors(self) -> int:
        return len(self.arrays)

    def validate(self) -> None:
        for t, (arr, ids) in enumerate(zip(self.arrays, self.indices)):
            if arr.ndim != len(ids):
                raise ValueError(f"tensor {t} axes do not match its index list")
            for ax, d in enumerate(arr.shape):
                if d != 2:
                    raise ValueError(f"tensor {t} axis {ax} has dimension {d}, not 2")
        counts = collections.Counter(i for ids in self.indices for i in ids)
        bad = [i for i, c in counts.items() if c != 2]
        if bad:
            raise ValueError(f"indices {bad} do not appear in exactly 2 tensors")


def contract_pair(a, ids_a, b, ids_b):
    """Contract two tensors over their shared indices.

    The result keeps a's remaining axes, then b's, in their original order.
    """
    shared = [i for i in ids_a if i in ids_b]
    ax_a = [ids_a.index(i) for i in shared]
    ax_b = [ids_b.index(i) for i in shared]
    out = np.tensordot(a, b, axes=(ax_a, ax_b))
    ids_out = tuple(i for i in ids_a if i not in shared) + \
        tuple(i for i in ids_b if i not in shared)
    return out, ids_out


def _basis_vector(bit: str) -> np.ndarray:
    v = np.zeros(2, dtype=complex)
    v[int(bit)] = 1.0
    return v


def _schmidt_split() -> tuple[np.ndarray, np.ndarray]:
    """Split the entangler across its two wires.

    Returns (A[out_a, in_a, k], B[k, out_b, in_b]) with k the bond index of
    dimension 2, one per term w P x P of the operator-Schmidt form ZZ_TERMS.
    """
    a = np.stack([w * PAULIS[p] for w, p in ZZ_TERMS], axis=2)
    b = np.stack([PAULIS[p] for _, p in ZZ_TERMS])
    return a, b


def circuit_to_tn(c: Circuit, bitstring_out: str | None = None,
                  split_rank: int = 2) -> TensorNetwork:
    """Closed network for the amplitude <x|C|0...0> (or <x|C|initial_bits>).

    split_rank=2 keeps the two wire-local halves of every two-qubit gate;
    split_rank=4 contracts them over their bond into one rank-4 tensor.
    Either way the single-qubit layers (two gates on one qubit as their
    product) and both boundary states are absorbed, so the network has
    exactly one (split: two) tensor per two-qubit gate, fewer where a
    tensor reduces to a scalar.  The network records the circuit's depth,
    which light_cone_order reads.
    """
    if split_rank not in (2, 4):
        raise ValueError("split_rank must be 2 or 4")
    if bitstring_out is None:
        bitstring_out = "0" * c.n
    if len(bitstring_out) != c.n or set(bitstring_out) - {"0", "1"}:
        raise ValueError("bitstring_out must be an n-character bitstring")
    in_bits = c.initial_bits if c.initial_bits is not None else "0" * c.n

    tn = TensorNetwork(n=c.n, depth=c.depth)
    a3, b3 = _schmidt_split()
    b3 = np.moveaxis(b3, 0, 2)  # [out, in, bond], like a3
    fresh = itertools.count().__next__  # index ids in creation order

    # per-wire running state: open index into the last tensor on the wire
    # (None before any gate) and the pending single-qubit matrix or vector
    open_idx: list[int | None] = [None] * c.n
    pend: list[np.ndarray] = [_basis_vector(b) for b in in_bits]

    pos_2q = 0
    for lay in c.layers:
        if lay.kind == "1q":
            mats = layer_matrices(lay, c.n)
            for q in dict.fromkeys(g.q for g in lay.gates):
                pend[q] = mats[q] @ pend[q]
            continue
        for g in lay.gates:
            qa, qb = g.q0, g.q1
            bond = fresh()
            halves = []
            for q, mat in ((qa, a3), (qb, b3)):
                # mat is [out, in, bond]; absorb the pending gate or input
                arr = np.einsum("oik,i...->o...k", mat, pend[q])
                prev = () if open_idx[q] is None else (open_idx[q],)
                open_idx[q] = fresh()
                halves.append((np.ascontiguousarray(arr),
                               (open_idx[q],) + prev + (bond,)))
                pend[q] = np.eye(2, dtype=complex)
            roles = ("a", "b")
            if split_rank == 4:
                halves, roles = [contract_pair(*halves[0], *halves[1])], ("ab",)
            for (arr, ids), role in zip(halves, roles):
                tn.arrays.append(arr)
                tn.indices.append(ids)
                tn.provenance.append((pos_2q, (qa, qb), role))
        pos_2q += 1

    # close the top: project every wire on its output bit
    for q in range(c.n):
        cap = _basis_vector(bitstring_out[q]) @ pend[q]
        if open_idx[q] is None:
            tn.scalar *= complex(cap if np.ndim(cap) == 0 else cap.item())
            continue
        target = next(t for t, ids in enumerate(tn.indices)
                      if open_idx[q] in ids)
        ax = tn.indices[target].index(open_idx[q])
        tn.arrays[target] = np.tensordot(np.asarray(cap), tn.arrays[target],
                                         axes=([0], [ax]))
        # tensordot leaves the remaining axes in their original order
        tn.indices[target] = tn.indices[target][:ax] + tn.indices[target][ax + 1:]

    # fold tensors reduced to scalars into the global factor
    keep = [t for t in range(tn.n_tensors) if tn.indices[t]]
    for t in range(tn.n_tensors):
        if not tn.indices[t]:
            tn.scalar *= complex(tn.arrays[t].reshape(()).item())
    tn.arrays = [tn.arrays[t] for t in keep]
    tn.indices = [tn.indices[t] for t in keep]
    tn.provenance = [tn.provenance[t] for t in keep]
    tn.validate()
    return tn
