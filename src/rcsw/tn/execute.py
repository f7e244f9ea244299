"""Exact execution of contraction trees on small networks.

The execution engine exists to certify the cost machinery: the amplitude
it produces must match the statevector simulator.  Sliced trees loop over
all assignments of the sliced indices and sum the task results.
"""
from __future__ import annotations

from itertools import product

from ..errors import CapacityError
from ..statevector import DEFAULT_CAP  # log2 of the largest tensor allocated
from .network import TensorNetwork, contract_pair
from .tree import ContractionTree

_TASK_CAP = 2 ** 22


def _run_once(arrays, indices, merges):
    node = {t: (arrays[t], tuple(indices[t])) for t in range(len(arrays))}
    nxt = len(arrays)
    for a, b in merges:
        ta, ids_a = node.pop(a)
        tb, ids_b = node.pop(b)
        node[nxt] = contract_pair(ta, ids_a, tb, ids_b)
        nxt += 1
    (_, (arr, ids)), = ((k, v) for k, v in node.items())
    if ids:
        raise ValueError("tree left open indices; network is not closed")
    return complex(arr.reshape(()).item())


def execute_tree(tn: TensorNetwork, tree: ContractionTree) -> complex:
    """Contract the network along the tree, exactly.

    Raises CapacityError when an intermediate exceeds 2^DEFAULT_CAP entries.
    """
    stats = tree.stats
    if stats.width > 2.0 ** DEFAULT_CAP:
        raise CapacityError(
            f"largest intermediate {stats.width:.3g} exceeds 2^{DEFAULT_CAP}")
    if 1 << stats.n_sliced > _TASK_CAP:
        raise CapacityError(
            f"2^{stats.n_sliced} slice tasks exceed the executor cap")
    if tn.n_tensors == 0:
        return complex(tn.scalar)

    positions = {i: [] for i in tree.sliced}
    for t, ids in enumerate(tn.indices):
        for ax, i in enumerate(ids):
            if i in positions:
                positions[i].append((t, ax))
    total = 0.0 + 0.0j
    # an unsliced tree has one task: the empty assignment
    for values in product((0, 1), repeat=len(tree.sliced)):
        arrays = list(tn.arrays)
        for i, v in zip(tree.sliced, values):
            for t, ax in positions[i]:
                sel = [slice(None)] * arrays[t].ndim
                sel[ax] = slice(v, v + 1)
                arrays[t] = arrays[t][tuple(sel)]
        total += _run_once(arrays, tn.indices, tree.merges)
    return complex(tn.scalar) * total
