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

Most of an exhaustive pass is a tail that the rollback undoes, so the
pass stops once no later prefix can win.  It keeps ``locked_cut``, the
weight of the edges whose two endpoints are both locked and in different
parts.  Locked vertices never move again within the pass, so with
non-negative edge weights every later prefix has a cut of at least
``locked_cut``, and so a cumulative gain of at most
``cut0 - locked_cut`` (``cut0`` is the cut the pass started from).  A
new best prefix needs a strictly larger gain than the best so far, so
once ``cut0 - locked_cut <= best_cumulative`` the best prefix is final:
the rollback restores the labels, part weights and gain the exhaustive
pass would.  A graph with a negative edge weight runs the pass to the
end.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.gpusim.context import GpuContext
from repro.graph.csr import CSRGraph
from repro.partition.metrics import max_partition_weight
from repro.partition.refine import connectivity_matrix


def _seed_heap(
    conn: np.ndarray,
    partition: np.ndarray,
    vwgt: np.ndarray,
    part_weights: np.ndarray,
    w_pmax: int,
) -> tuple[list[tuple[int, int, int, int]], int]:
    """Heap of every boundary vertex's best move, and the starting cut.

    One array pass applies the best-move rule to every row: the highest
    gain, then the lighter target part, then the lower part index
    (``argmin`` returns the first minimum).
    """
    internal = conn[np.arange(conn.shape[0]), partition]
    external = conn.sum(axis=1) - internal
    boundary = np.flatnonzero(external)
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
    return heap, int(external.sum()) // 2


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
    worse.  With non-negative edge weights the pass stops as soon as no
    later prefix can beat that best one (see the module docstring).
    """
    n = csr.num_vertices
    conn = connectivity_matrix(csr, partition, k).astype(np.int64)
    if max_moves is None:
        max_moves = n
    heap, cut0 = _seed_heap(conn, partition, csr.vwgt, part_weights, w_pmax)
    bounded = not (csr.adjwgt < 0).any()

    rows = conn.tolist()
    part = partition.tolist()
    weights = part_weights.tolist()
    vwgt = csr.vwgt.tolist()
    xadj = csr.xadj.tolist()
    adjncy = csr.adjncy.tolist()
    adjwgt = csr.adjwgt.tolist()
    heappop, heappush = heapq.heappop, heapq.heappush
    parts = range(k)

    locked = [False] * n
    applied: list[tuple[int, int]] = []  # (vertex, source partition)
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0
    locked_cut = 0  # weight of cut edges between two locked vertices

    while heap and len(applied) < max_moves:
        _neg, v, target, stamped_gain = heappop(heap)
        if locked[v]:
            continue
        current = part[v]
        row = rows[v]
        # Best move: the feasible part (not the current one, weight at
        # most W_pmax minus the vertex weight) of highest connectivity;
        # ties go to the lighter part, then the lower index.
        limit = w_pmax - vwgt[v]
        best = -1
        for p in parts:
            weight = weights[p]
            if weight > limit or p == current:
                continue
            c = row[p]
            if best < 0 or c > best_conn or (
                c == best_conn and weight < best_weight
            ):
                best, best_conn, best_weight = p, c, weight
        if best < 0:
            continue
        gain = best_conn - row[current]
        if gain != stamped_gain or best != target:
            # Stale entry: re-push with the fresh values.
            heappush(heap, (-gain, v, best, gain))
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
            if locked[w]:
                if part[w] != target:
                    locked_cut += wgt
                continue
            current_w = part[w]
            limit = w_pmax - vwgt[w]
            best = -1
            for p in parts:
                weight = weights[p]
                if weight > limit or p == current_w:
                    continue
                c = row[p]
                if best < 0 or c > best_conn or (
                    c == best_conn and weight < best_weight
                ):
                    best, best_conn, best_weight = p, c, weight
            if best >= 0:
                gain = best_conn - row[current_w]
                heappush(heap, (-gain, w, best, gain))
        if bounded and cut0 - locked_cut <= best_cumulative:
            break

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
