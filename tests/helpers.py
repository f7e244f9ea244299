"""Shared oracles and factories for the test suite."""
import math

import numpy as np

from rcsw import graphs
from rcsw.circuits import Circuit, build_rg_circuit
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


def rg_circuit(n: int, d: int, seed: int) -> Circuit:
    cg = graphs.sample_colored_graph(n, d, seed=seed)
    return build_rg_circuit(cg, seed=seed + 1)


def analyze_merges_reference(merges, legs, dims, sliced=()) -> TreeStats:
    """Price a merge list over frozenset leg sets, one index at a time.

    The reference for the bitset pricing in ``rcsw.tn.tree``.
    """
    sliced_set = frozenset(sliced)

    def dim(i: int) -> int:
        return 1 if i in sliced_set else dims[i]

    def size(ls: frozenset[int]) -> float:
        s = 1.0
        for i in ls:
            s *= dim(i)
        return s

    if not legs and not merges:
        return TreeStats(flops=0.0, width=1.0, max_rank=0.0, log2_flops=0.0,
                         sliced_multiplier=1.0, total_flops=0.0)
    node: dict[int, frozenset[int]] = {t: ls for t, ls in enumerate(legs)}
    width = max((size(ls) for ls in legs), default=1.0)
    flops = 0.0
    nxt = len(legs)
    for a, b in merges:
        la, lb = node.pop(a), node.pop(b)
        parent = la ^ lb
        s = size(parent)
        k = size(la & lb)
        flops += 8.0 * s * k
        width = max(width, s)
        node[nxt] = parent
        nxt += 1
    if len(node) != 1 or next(iter(node.values())):
        raise ValueError("merge list does not contract the network to a scalar")
    mult = 1.0
    for i in sliced_set:
        mult *= dims[i]
    return TreeStats(
        flops=flops,
        width=width,
        max_rank=math.log2(width) if width > 0 else 0.0,
        log2_flops=math.log2(flops) if flops > 0 else 0.0,
        sliced_multiplier=mult,
        total_flops=mult * flops,
    )
