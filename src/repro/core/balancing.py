"""Partition balancing (Section V.C.1, Algorithm 3).

After a modifier batch is applied, the kernel

1. parks newly inserted vertices in the **pseudo-partition** so they
   cannot break the balance constraint,
2. marks every endpoint of an inserted/deleted edge as *affected*,
3. filters affected vertices: only those with ``adj_ext > adj_int`` can
   reduce the cut by moving, so only they join the pseudo-partition
   (their partition update is deferred to a second kernel to avoid data
   races between warps),
4. ripples one hop: neighbors of pseudo vertices are marked affected and
   filtered the same way.

The scattered pseudo vertices are aggregated into the centralized
``vertex_in_pseudo`` buffer — the paper's load-balancing device — whose
*order* (insertion order: activations first, then filtered vertices in
vertex-ID order, then ripple adds) is preserved because the refinement
kernel's tie-breaking depends on it.
"""
# repro-lint: hot-path

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.gpusim.context import FULL_MASK, GpuContext
from repro.gpusim.warp import Warp, popc
from repro.graph.bucketlist import (
    EMPTY,
    SLOTS_PER_BUCKET,
    BucketListGraph,
)
from repro.core.modification import (
    SlotOp,
    VertexActivate,
    VertexDeactivate,
)
from repro.obs import span
from repro.partition.metrics import external_internal_degrees
from repro.partition.state import UNASSIGNED, PartitionState


@dataclass
class BalanceStats:
    """Diagnostics of one balancing run."""

    affected_marked: int
    filtered_out: int
    inserted_to_pseudo: int
    moved_to_pseudo: int
    ripple_moved: int

    @property
    def pseudo_total(self) -> int:
        return (
            self.inserted_to_pseudo
            + self.moved_to_pseudo
            + self.ripple_moved
        )


def balance_partition(
    ctx: GpuContext,
    graph: BucketListGraph,
    state: PartitionState,
    ops: Sequence[SlotOp],
    mode: str = "vector",
) -> tuple[List[int], BalanceStats]:
    """Run Algorithm 3; returns ``(vertex_in_pseudo, stats)``.

    ``state`` is mutated: inserted vertices and filtered affected
    vertices move to the pseudo label, deactivated vertices to
    UNASSIGNED.
    """
    pseudo_label = state.pseudo_label
    affected = np.zeros(graph.capacity, dtype=bool)
    buffer: List[int] = []

    # -- Phase A: one warp per modifier (Algorithm 3 lines 1-7) -------------
    with ctx.ledger.kernel("mark-modified"):
        # Vertex ops must replay in modifier order (a delete +
        # re-insert with a new weight in one batch); edge endpoints are
        # order-free and scatter into ``affected`` in one shot.
        endpoints: List[int] = []
        n_activations = 0
        # repro-lint: allow[hot-path-loop] modifier-order semantics require a sequential host loop
        for op in ops:
            if isinstance(op, VertexActivate):
                # The (re-)inserted vertex may carry a new weight; the
                # state learns it here, in modifier order, while the
                # vertex is still unassigned.
                state.set_vertex_weight(op.u, op.w)
                state.move(op.u, pseudo_label)
                buffer.append(op.u)
                n_activations += 1
            elif isinstance(op, VertexDeactivate):
                state.move(op.u, UNASSIGNED)
            else:
                endpoints.append(op.u)
                endpoints.append(op.v)
        if endpoints:
            affected[np.asarray(endpoints, dtype=np.int64)] = True
        ctx.ledger.charge_atomics(n_activations)
        ctx.charge_wavefront(max(len(ops), 1), 2, 1)

    # Deactivations during the batch may have invalidated earlier
    # activations; keep only vertices still in the pseudo partition.
    buffer = [
        u for u in dict.fromkeys(buffer)
        if state.partition[u] == pseudo_label
    ]
    affected_marked = int(affected.sum())

    # -- Phase B: filter affected vertices (lines 8-24) ----------------------
    # The paper dispatches one warp per entry of the |V|-sized
    # ``affected_vertex`` array; gathering the set ones is a stream
    # compaction over the whole array, which is the O(|V|) component of
    # iG-kway's per-iteration cost.
    with span("balance.filter-affected"):
        _charge_affected_scan(ctx, graph.num_vertices)
        candidates = np.flatnonzero(affected)
        candidates = candidates[
            (candidates < graph.num_vertices)
            & (graph.vertex_status[candidates] == 1)
            & (state.partition[candidates] != pseudo_label)
            & (state.partition[candidates] != UNASSIGNED)
        ]
        selected = _filter_ext_gt_int(ctx, graph, state, candidates, mode)
        filtered_out = candidates.size - selected.size

    # -- Phase C: deferred partition update (lines 25-26) --------------------
    with ctx.ledger.kernel("update-pseudo"):
        state.move_many(selected, pseudo_label)
        buffer.extend(selected.tolist())
        ctx.ledger.charge_atomics(selected.size)
        ctx.charge_wavefront(max((selected.size + 31) // 32, 1), 2, 1)
    moved_to_pseudo = int(selected.size)

    # -- Phase D: one-hop ripple over pseudo neighborhoods -------------------
    ripple_moved = 0
    if buffer:
        with span("balance.ripple"):
            pseudo_now = np.array(buffer, dtype=np.int64)
            slot_idx, _owner = graph.slot_index_arrays(pseudo_now)
            nbrs = graph.bucket_list[slot_idx]
            nbrs = np.unique(nbrs[nbrs != EMPTY])
            _charge_neighbor_mark(ctx, graph, pseudo_now)
            nbrs = nbrs[
                (graph.vertex_status[nbrs] == 1)
                & (state.partition[nbrs] != pseudo_label)
                & (state.partition[nbrs] != UNASSIGNED)
            ]
            ripple_selected = _filter_ext_gt_int(
                ctx, graph, state, nbrs, mode
            )
            with ctx.ledger.kernel("update-pseudo-ripple"):
                state.move_many(ripple_selected, pseudo_label)
                buffer.extend(ripple_selected.tolist())
                ctx.ledger.charge_atomics(ripple_selected.size)
                ctx.charge_wavefront(
                    max((ripple_selected.size + 31) // 32, 1), 2, 1
                )
            ripple_moved = int(ripple_selected.size)

    stats = BalanceStats(
        affected_marked=affected_marked,
        filtered_out=int(filtered_out),
        inserted_to_pseudo=len(buffer) - moved_to_pseudo - ripple_moved,
        moved_to_pseudo=moved_to_pseudo,
        ripple_moved=ripple_moved,
    )
    return buffer, stats


def _filter_ext_gt_int(
    ctx: GpuContext,
    graph: BucketListGraph,
    state: PartitionState,
    candidates: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Vertices among ``candidates`` with more external than internal
    neighbors (ascending vertex-ID order)."""
    candidates = np.sort(np.asarray(candidates, dtype=np.int64))
    if candidates.size == 0:
        return candidates
    if mode == "warp":
        return _filter_warp(ctx, graph, state, candidates)
    if mode == "vector":
        with ctx.ledger.kernel("filter-affected"):
            ext, internal = external_internal_degrees(
                graph, state.partition, candidates
            )
            instr = 3 * graph.bucket_count[candidates] + 4
            trans = graph.bucket_count[candidates] + 1
            ctx.charge_irregular_warps(instr, trans)
        return candidates[ext > internal]
    raise ValueError(f"unknown mode {mode!r}")


def _filter_warp(
    ctx: GpuContext,
    graph: BucketListGraph,
    state: PartitionState,
    candidates: np.ndarray,
) -> np.ndarray:
    """Warp-faithful version of Algorithm 3 lines 11-24."""
    from repro.gpusim.kernel import launch_warps

    keep: List[int] = []
    partition = state.partition

    def body(warp: Warp, u: int) -> None:
        bucket_start, n_slots = graph.slot_range(u)
        num_bucket = n_slots // SLOTS_PER_BUCKET
        cur_par = partition[u]
        adj_ext = 0
        adj_int = 0
        bucket_cnt = 0
        while bucket_cnt < num_bucket:
            base = bucket_start + bucket_cnt * SLOTS_PER_BUCKET
            nbr = warp.load(graph.bucket_list, base + warp.lane_id)
            filled = nbr != EMPTY
            nbr_par = np.where(filled, partition[nbr], UNASSIGNED)
            ext_mask = warp.ballot_sync(
                FULL_MASK, (nbr_par != cur_par) & filled
            )
            int_mask = warp.ballot_sync(
                FULL_MASK, (nbr_par == cur_par) & filled
            )
            adj_ext += popc(ext_mask)
            adj_int += popc(int_mask)
            bucket_cnt += 1
        if adj_ext > adj_int:
            keep.append(int(u))

    launch_warps(
        ctx, [int(u) for u in candidates], body, name="filter-affected"
    )
    ctx.ledger.charge_atomics(len(keep))
    return np.array(sorted(keep), dtype=np.int64)


def charge_boundary_bookkeeping(
    ctx: GpuContext, graph: BucketListGraph
) -> None:
    """Per-iteration boundary/bookkeeping sweep over the adjacency.

    The paper's own Table I implies iG-kway's per-iteration cost has a
    per-edge component roughly half the per-vertex one (vga_lcd, with
    half tv80's vertices but 4.4x its edges, takes 2.1x the iG time):
    after refinement the implementation refreshes boundary state —
    ``adj_ext`` counters and partition-weight bookkeeping — with a
    bucket-list sweep.  We charge one kernel reading each vertex's
    buckets plus scattered partition lookups, ~3 transactions per eight
    arcs.
    """
    import math

    arcs = 2 * graph.num_edges()
    n_warps = math.ceil(max(arcs, 1) / 32)
    with ctx.ledger.kernel("boundary-bookkeeping"):
        ctx.charge_wavefront(
            n_warps, instructions_per_warp=6, transactions_per_warp=12
        )


def _charge_affected_scan(ctx: GpuContext, num_vertices: int) -> None:
    """Dispatch over the |V|-sized ``affected_vertex`` array.

    Algorithm 3 assigns *each entry* of ``affected_vertex`` to a GPU
    warp; warps whose vertex is unaffected terminate after reading their
    flag.  This per-vertex warp dispatch is the O(|V|) component of
    iG-kway's incremental cost (it is why the paper's iG-kway
    partitioning time grows slowly with graph size in Table I).
    """
    with ctx.ledger.kernel("affected-dispatch"):
        ctx.charge_wavefront(
            max(num_vertices, 1),
            instructions_per_warp=3,
            transactions_per_warp=1,
        )


def _charge_neighbor_mark(
    ctx: GpuContext, graph: BucketListGraph, pseudo_vertices: np.ndarray
) -> None:
    """Cost of the warps that mark pseudo-vertex neighbors as affected."""
    with ctx.ledger.kernel("ripple-mark"):
        instr = 2 * graph.bucket_count[pseudo_vertices] + 2
        trans = graph.bucket_count[pseudo_vertices] + 1
        ctx.charge_irregular_warps(instr, trans)
