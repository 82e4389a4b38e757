"""Fiduccia–Mattheyses-style k-way boundary refinement.

The independent-set pass in :mod:`repro.partition.refine` only ever
applies positive-gain moves, so it converges to a shallow local minimum.
G-kway's real refinement climbs out of such minima; we reproduce that
with a classic FM pass:

* every boundary vertex gets a candidate move to its best feasible
  partition, prioritized by gain,
* moves are applied greedily (each vertex moves at most once per pass),
  *including negative-gain moves*, while tracking the running cut,
* at the end, the move sequence is rolled back to its best prefix —
  hill-climbing with a safety net.

The implementation uses a lazy max-heap: entries are re-validated
against the live connectivity table when popped, which avoids the
textbook bucket-list gain structure while keeping the same behavior.

The pass is sequential, so it runs over plain Python lists (connectivity
rows, part weights, vertex weights, the CSR arrays) rather than indexing
NumPy scalars.  Only the heap seed is vectorized: one array computation
finds every boundary vertex's best move, then ``heapq.heapify`` orders
them.  A heap's pop sequence depends only on the multiset of its
``(-gain, vertex, target, gain)`` tuples, so this yields exactly the
moves that pushing the candidates one by one would.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.gpusim.context import GpuContext
from repro.graph.csr import CSRGraph
from repro.partition.metrics import max_partition_weight
from repro.partition.refine import connectivity_matrix


def _best_move(
    conn_row: list[int],
    current: int,
    limit: int,
    part_weights: list[int],
) -> tuple[int, int] | None:
    """Best feasible ``(gain, target)`` for one vertex, or None.

    A target is feasible when its weight is at most ``limit`` (W_pmax
    minus the vertex weight).  The gain is the target's connectivity
    minus the current part's, so the best target has the highest
    connectivity; ties go to the lighter target, then to the lower part
    index.
    """
    best_target = -1
    best_conn = best_weight = 0
    for p in range(len(conn_row)):
        weight = part_weights[p]
        if weight > limit or p == current:
            continue
        conn = conn_row[p]
        if (
            best_target < 0
            or conn > best_conn
            or (conn == best_conn and weight < best_weight)
        ):
            best_conn, best_target, best_weight = conn, p, weight
    if best_target < 0:
        return None
    return best_conn - conn_row[current], best_target


def _seed_heap(
    conn: np.ndarray,
    partition: np.ndarray,
    vwgt: np.ndarray,
    part_weights: np.ndarray,
    w_pmax: int,
) -> list[tuple[int, int, int, int]]:
    """Heap of every boundary vertex's best move, in one array pass.

    Same choice as :func:`_best_move` row by row: the highest gain, then
    the lighter target part, then the lower part index (``argmin``
    returns the first minimum).
    """
    internal = conn[np.arange(conn.shape[0]), partition]
    boundary = np.flatnonzero(conn.sum(axis=1) != internal)
    feasible = part_weights + vwgt[boundary, None] <= w_pmax
    feasible[np.arange(boundary.size), partition[boundary]] = False
    movable = feasible.any(axis=1)
    boundary, feasible = boundary[movable], feasible[movable]
    gains = conn[boundary] - internal[boundary, None]
    best = np.where(feasible, gains, np.iinfo(np.int64).min).max(axis=1)
    ties = feasible & (gains == best[:, None])
    target = np.where(ties, part_weights, np.iinfo(np.int64).max).argmin(axis=1)
    heap = list(zip(
        (-best).tolist(), boundary.tolist(), target.tolist(), best.tolist()
    ))
    heapq.heapify(heap)
    return heap


def fm_pass(
    csr: CSRGraph,
    partition: np.ndarray,
    part_weights: np.ndarray,
    k: int,
    w_pmax: int,
    max_moves: int | None = None,
) -> int:
    """One FM pass with rollback; returns the realized cut *improvement*.

    Mutates ``partition`` and ``part_weights`` in place.  Every vertex
    moves at most once; the sequence of applied moves is rolled back to
    the prefix with the best cumulative gain, so the cut never gets
    worse.
    """
    n = csr.num_vertices
    conn = connectivity_matrix(csr, partition, k).astype(np.int64)
    if max_moves is None:
        max_moves = n
    heap = _seed_heap(conn, partition, csr.vwgt, part_weights, w_pmax)

    rows = conn.tolist()
    part = partition.tolist()
    weights = part_weights.tolist()
    vwgt = csr.vwgt.tolist()
    xadj = csr.xadj.tolist()
    adjncy = csr.adjncy.tolist()
    adjwgt = csr.adjwgt.tolist()

    locked = [False] * n
    applied: list[tuple[int, int]] = []  # (vertex, source partition)
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0

    while heap and len(applied) < max_moves:
        _neg, v, target, stamped_gain = heapq.heappop(heap)
        if locked[v]:
            continue
        current = part[v]
        move = _best_move(rows[v], current, w_pmax - vwgt[v], weights)
        if move is None:
            continue
        gain, live_target = move
        if gain != stamped_gain or live_target != target:
            # Stale entry: re-push with the fresh values.
            heapq.heappush(heap, (-gain, v, live_target, gain))
            continue
        # Apply the move.
        locked[v] = True
        part[v] = target
        weights[current] -= vwgt[v]
        weights[target] += vwgt[v]
        applied.append((v, current))
        cumulative += gain
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(applied)
        # Update neighbor connectivity and refresh their heap entries.
        start, end = xadj[v], xadj[v + 1]
        for w, wgt in zip(adjncy[start:end], adjwgt[start:end]):
            row = rows[w]
            row[current] -= wgt
            row[target] += wgt
            if not locked[w]:
                refreshed = _best_move(
                    row, part[w], w_pmax - vwgt[w], weights
                )
                if refreshed is not None:
                    heapq.heappush(
                        heap, (-refreshed[0], w, refreshed[1], refreshed[0])
                    )

    # Roll back past the best prefix.
    for v, source in reversed(applied[best_prefix:]):
        target = part[v]
        part[v] = source
        weights[target] -= vwgt[v]
        weights[source] += vwgt[v]
    partition[:] = part
    part_weights[:] = weights
    return best_cumulative


def fm_refine(
    csr: CSRGraph,
    partition: np.ndarray,
    k: int,
    epsilon: float,
    passes: int = 2,
    ctx: GpuContext | None = None,
    max_moves: int | None = None,
) -> np.ndarray:
    """Run up to ``passes`` FM passes; returns the refined partition."""
    partition = np.asarray(partition, dtype=np.int64).copy()
    part_weights = np.bincount(
        partition, weights=csr.vwgt, minlength=k
    ).astype(np.int64)
    w_pmax = max_partition_weight(csr.total_vertex_weight(), k, epsilon)
    if max_moves is None:
        max_moves = csr.num_vertices
    for _pass in range(passes):
        if ctx is not None:
            _charge_fm_pass(ctx, csr, k)
        improvement = fm_pass(
            csr, partition, part_weights, k, w_pmax, max_moves=max_moves
        )
        if improvement == 0:
            break
    return partition


def _charge_fm_pass(ctx: GpuContext, csr: CSRGraph, k: int) -> None:
    """Charged like two boundary-refinement passes (gain maintenance)."""
    arcs = csr.adjncy.size
    n_warps = math.ceil(max(csr.num_vertices, 1) / 32)
    arcs_per_warp = math.ceil(arcs / max(n_warps, 1))
    with ctx.ledger.kernel("fm-pass"):
        ctx.charge_wavefront(
            n_warps,
            instructions_per_warp=8 + 6 * arcs_per_warp + 2 * k,
            transactions_per_warp=2 + 8 * arcs_per_warp,
        )
