"""Partition quality metrics: cut size, balance, boundaries, gains.

Definitions follow Section II of the paper:

* cut size  = sum of ``W_e`` over edges whose endpoints are in different
  partitions,
* partition weight ``W_p`` = sum of vertex weights in ``p``,
* balance constraint ``W_p <= (1 + eps) * total / k``,
* ``adj_ext(v)`` / ``adj_int(v)`` = neighbors in another / the same
  partition.

These functions are host-side "ground truth" used for reporting and
testing; they never charge the GPU ledger.

Since the incremental cut accumulator (:mod:`repro.partition.cutacc`)
landed, the pool scans here are *sanitizer/cross-check* machinery, not
per-batch hot-path code: the ``pool-scan-outside-sanitizer`` lint rule
flags any new call site outside this module, :mod:`~repro.partition.cutcheck`
and the accumulator's one-time bootstrap.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.bucketlist import EMPTY, BucketListGraph
from repro.graph.csr import CSRGraph


def max_partition_weight(total_weight: int, k: int, epsilon: float) -> int:
    """``W_pmax = (1 + eps) * total / k`` (Section II), rounded up."""
    return int(math.ceil((1.0 + epsilon) * total_weight / k))


def cut_size_csr(csr: CSRGraph, partition: np.ndarray) -> int:
    """Weighted cut of a CSR graph under ``partition``."""
    src = np.repeat(np.arange(csr.num_vertices), csr.degrees())
    crossing = partition[src] != partition[csr.adjncy]
    return int(csr.adjwgt[crossing].sum()) // 2


def cut_size_bucketlist(
    graph: BucketListGraph, partition: np.ndarray
) -> int:
    """Weighted cut of the active subgraph of a bucket-list graph.

    Scans the filled slots of the used pool, each attributed to its
    owner by :meth:`BucketListGraph.slot_owners`, instead of
    re-gathering per-vertex slot ranges: deleted vertices have blanked
    slots and no inbound references, so the filled slots are exactly
    the active subgraph's arcs.
    """
    positions, dst, weights = graph.filled_slots()
    src = graph.slot_owners(positions)
    crossing = partition[src] != partition[dst]
    return int(weights[crossing].sum()) // 2


def arc_matrix_bucketlist(
    graph: BucketListGraph, partition: np.ndarray, k: int
) -> np.ndarray:
    """Directed-arc weight matrix over *extended* labels, by pool scan.

    Extended labels map the full label alphabet onto ``0 .. k+1``: real
    partitions keep their IDs, the pseudo-partition stays ``k``, and
    UNASSIGNED (-1) becomes ``k + 1``.  Entry ``(i, j)`` is the total
    weight of directed arcs from extended label ``i`` to ``j``; the
    matrix is symmetric (each undirected edge contributes both arcs) and
    its off-diagonal sum is twice the cut *between distinct labels* —
    with every label real, ``(total - trace) // 2`` equals
    :func:`cut_size_bucketlist` exactly.

    This is the scan the :class:`~repro.partition.cutacc.CutAccumulator`
    maintains incrementally; it bootstraps from this function and the
    sanitizer cross-check (:mod:`repro.partition.cutcheck`) asserts
    exact agreement against it.
    """
    ext_n = k + 2
    flat = np.zeros(ext_n * ext_n, dtype=np.int64)
    positions, dst, weights = graph.filled_slots()
    src = graph.slot_owners(positions)
    src_ext = np.where(partition[src] < 0, np.int64(k + 1), partition[src])
    dst_ext = np.where(partition[dst] < 0, np.int64(k + 1), partition[dst])
    # int64 scatter-add, not np.bincount(weights=...): bincount promotes
    # to float64, which would break bit-exact comparisons.
    np.add.at(flat, src_ext * ext_n + dst_ext, weights)
    return flat.reshape(ext_n, ext_n)


def cut_matrix_bucketlist(
    graph: BucketListGraph, partition: np.ndarray, k: int
) -> np.ndarray:
    """``k x k`` cut matrix of a bucket-list graph (pool scan).

    Same semantics as :func:`cut_matrix` on CSR: symmetric off-diagonal
    inter-partition weight, diagonal = internal edge weight.  Arcs
    touching the pseudo-partition or deleted vertices (extended labels
    ``k``/``k+1``) fall outside the real block and are dropped, matching
    the refined steady state where no such arcs exist.
    """
    ext = arc_matrix_bucketlist(graph, partition, k)
    matrix = ext[:k, :k].copy()
    np.fill_diagonal(matrix, np.diagonal(matrix) // 2)
    return matrix


def partition_weights(
    vwgt: np.ndarray, partition: np.ndarray, k: int
) -> np.ndarray:
    """``W_p`` for each partition; ignores vertices with partition < 0
    or >= k (deleted vertices and the pseudo-partition)."""
    valid = (partition >= 0) & (partition < k)
    return np.bincount(
        partition[valid], weights=vwgt[valid], minlength=k
    ).astype(np.int64)


def imbalance(part_weights: np.ndarray, total_weight: int, k: int) -> float:
    """Achieved imbalance: ``max(W_p) * k / total - 1``."""
    if total_weight == 0:
        return 0.0
    return float(part_weights.max()) * k / total_weight - 1.0


def is_balanced(
    part_weights: np.ndarray, total_weight: int, k: int, epsilon: float
) -> bool:
    """True iff every partition satisfies the balance constraint."""
    return int(part_weights.max()) <= max_partition_weight(
        total_weight, k, epsilon
    )


def cut_matrix(
    csr: CSRGraph, partition: np.ndarray, k: int
) -> np.ndarray:
    """``k x k`` matrix of inter-partition edge weight.

    Entry ``(i, j)`` with ``i != j`` is the total weight of edges between
    partitions ``i`` and ``j`` (the matrix is symmetric); the diagonal
    holds each partition's internal edge weight.  The upper-triangle sum
    equals :func:`cut_size_csr`.  CAD schedulers use this to weigh
    communication between the engines each partition is assigned to.
    """
    src = np.repeat(np.arange(csr.num_vertices), csr.degrees())
    keys = partition[src] * np.int64(k) + partition[csr.adjncy]
    flat = np.bincount(keys, weights=csr.adjwgt, minlength=k * k)
    matrix = flat.reshape(k, k).astype(np.int64)
    # Each undirected internal edge contributes both of its arcs to the
    # diagonal; off-diagonal entries see one arc per direction already.
    np.fill_diagonal(matrix, np.diagonal(matrix) // 2)
    return matrix


def external_internal_degrees(
    graph: BucketListGraph, partition: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(adj_ext, adj_int)`` counts for each vertex in ``vertices``.

    Matches the warp computation of Algorithm 3 lines 16-21: a neighbor
    counts as external iff its partition differs from the vertex's
    current partition.  Pseudo-partition and deleted markers compare like
    ordinary labels, exactly as ``partition[nbr]`` does on the GPU.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        zero = np.zeros(0, dtype=np.int64)
        return zero, zero
    slot_idx, owner = graph.slot_index_arrays(vertices)
    nbrs = graph.bucket_list[slot_idx]
    filled = nbrs != EMPTY
    owner = owner[filled]
    nbr_part = partition[nbrs[filled]]
    own_part = partition[vertices][owner]
    ext = np.bincount(
        owner[nbr_part != own_part], minlength=vertices.size
    ).astype(np.int64)
    internal = np.bincount(
        owner[nbr_part == own_part], minlength=vertices.size
    ).astype(np.int64)
    return ext, internal
