"""Incremental graph modification kernels (Section V.B, Algorithms 1-2).

The driver expands the user-facing undirected modifiers into *directed
slot operations* — e.g. ``EdgeInsert(u, v)`` becomes slot-inserts
``(u, v)`` and ``(v, u)``, exactly the paired modifiers of the paper's
Figure 4 caption — and hands the whole batch to one kernel launch, one
warp per operation.

Two execution paths produce bit-identical results:

* ``warp``  — Algorithm 1/2 verbatim on :class:`~repro.gpusim.warp.Warp`
  (``__ballot_sync`` to find the slot, ``__ffs`` to pick the first one),
* ``vector`` — one NumPy slot scan per op, charging the same operation
  counts.

Both walks report the arcs they add and remove (:class:`ArcChanges`).

Overflow handling: when every slot of ``u`` is occupied, Algorithm 1
falls off its while-loop.  We extend it with the documented relocation
path (DESIGN.md): the vertex's buckets are copied to the pool tail with
one extra bucket, then the insertion retries.  Applications avoid this
by raising ``gamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, NamedTuple, Sequence, Union

import numpy as np

from repro.gpusim.context import FULL_MASK, GpuContext
from repro.gpusim.warp import Warp, ffs
from repro.graph.bucketlist import (
    EMPTY,
    SLOTS_PER_BUCKET,
    STATUS_ACTIVE,
    STATUS_DELETED,
    BucketListGraph,
)
from repro.graph.modifiers import (
    EdgeDelete,
    EdgeInsert,
    Modifier,
    VertexDelete,
    VertexInsert,
)
from repro.utils.errors import ModifierError


# ---------------------------------------------------------------------------
# Directed slot operations (what the kernels actually execute).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlotInsert:
    """Insert neighbor ``v`` (weight ``w``) into ``u``'s buckets."""

    u: int
    v: int
    w: int = 1


@dataclass(frozen=True)
class SlotDelete:
    """Remove neighbor ``v`` from ``u``'s buckets."""

    u: int
    v: int


@dataclass(frozen=True)
class VertexActivate:
    """Mark ``u`` active with weight ``w`` (Algorithm 2, ``M_u^+``)."""

    u: int
    w: int = 1


@dataclass(frozen=True)
class VertexDeactivate:
    """Mark ``u`` deleted and blank its buckets (Algorithm 2, ``M_u^-``)."""

    u: int


SlotOp = Union[SlotInsert, SlotDelete, VertexActivate, VertexDeactivate]


class ArcChanges(NamedTuple):
    """The directed arcs one slot-op batch added and removed.

    Each field is an ``(n, 3)`` int64 array of ``(u, v, w)`` rows in op
    order: one added arc per :class:`SlotInsert`; one removed arc per
    :class:`SlotDelete`, with the weight its slot held just before the
    kernel blanked it; and one removed arc per filled slot of a vertex
    at its :class:`VertexDeactivate`.  Relocations move arcs without
    changing them and (re)activations blank already-empty buckets, so
    neither contributes.
    """

    added: np.ndarray
    removed: np.ndarray


#: The ``(u, v, w)`` rows one walk collects for :class:`ArcChanges`.
ArcRows = list[tuple[int, int, int]]


def expand_modifiers(
    graph: BucketListGraph, batch: Sequence[Modifier]
) -> List[SlotOp]:
    """Expand undirected modifiers into the directed slot-op sequence.

    ``VertexDelete`` expands into slot-deletes of every *reverse* edge
    (so no neighbor keeps a dangling reference) followed by the
    deactivation that blanks the vertex's own buckets.  ``VertexInsert``
    of an ID one past the current space allocates the new ID.  Expansion
    reads the *current* adjacency, so it must run right before the batch
    is applied.

    Expansion is also the validity gate: modifiers referencing inactive
    or unknown vertices, duplicate edge insertions, missing edge
    deletions, re-activations of live vertices and edge or vertex
    insertions with a weight below 1 are rejected *here*,
    before any kernel writes a slot — matching :class:`HostGraph`'s
    reference semantics.  Errors name the failing modifier's batch index
    so bisection and operator logs are actionable.
    """
    ops: List[SlotOp] = []
    # Track adjacency deltas within the batch so expansion of a later
    # VertexDelete sees edges inserted earlier in the same batch.
    pending_add: dict[int, set[int]] = {}
    pending_del: dict[int, set[int]] = {}
    # Vertex-status deltas: True after an in-batch insert, False after an
    # in-batch delete.  An edge modifier touching a vertex deleted
    # earlier in the same batch used to emit slot ops against the
    # blanked buckets, silently corrupting the bucket list.
    pending_status: dict[int, bool] = {}
    next_new_id = graph.num_vertices

    def check_live(w: int, modifier: Modifier, index: int) -> None:
        status = pending_status.get(w)
        if status is False:
            raise ModifierError(
                f"modifier {index}: {modifier!r} references vertex {w} "
                "deleted earlier in the same batch",
                modifier_index=index,
            )
        if status is None and not (
            0 <= w < graph.num_vertices and graph.is_active(w)
        ):
            raise ModifierError(
                f"modifier {index}: {modifier!r} references inactive or "
                f"unknown vertex {w}",
                modifier_index=index,
            )

    def edge_exists(u: int, v: int) -> bool:
        if v in pending_add.get(u, ()):
            return True
        if v in pending_del.get(u, ()):
            return False
        if pending_status.get(u) is True:
            # (Re)activated this batch: buckets are blanked on apply, so
            # only in-batch insertions (pending_add) count.
            return False
        return u < graph.num_vertices and graph.has_edge(u, v)

    def current_neighbors(u: int) -> list[int]:
        if pending_status.get(u) is True:
            base: list[int] = []
        else:
            base = [int(v) for v in graph.neighbors(u)]
        added = pending_add.get(u, set())
        removed = pending_del.get(u, set())
        # A neighbor deleted and re-inserted within the batch is in both
        # ``base`` and ``added``; list it once.
        return [
            v for v in base if v not in removed and v not in added
        ] + sorted(added)

    def note_add(u: int, v: int) -> None:
        pending_del.get(u, set()).discard(v)
        pending_add.setdefault(u, set()).add(v)

    def note_del(u: int, v: int) -> None:
        pending_add.get(u, set()).discard(v)
        pending_del.setdefault(u, set()).add(v)

    for index, modifier in enumerate(batch):
        if isinstance(modifier, EdgeInsert):
            if modifier.u == modifier.v:
                raise ModifierError(
                    f"modifier {index}: {modifier!r} is a self-loop",
                    modifier_index=index,
                )
            if modifier.weight < 1:
                raise ModifierError(
                    f"modifier {index}: {modifier!r} has a weight below 1",
                    modifier_index=index,
                )
            check_live(modifier.u, modifier, index)
            check_live(modifier.v, modifier, index)
            if edge_exists(modifier.u, modifier.v):
                raise ModifierError(
                    f"modifier {index}: edge ({modifier.u}, {modifier.v}) "
                    "already exists",
                    modifier_index=index,
                )
            ops.append(SlotInsert(modifier.u, modifier.v, modifier.weight))
            ops.append(SlotInsert(modifier.v, modifier.u, modifier.weight))
            note_add(modifier.u, modifier.v)
            note_add(modifier.v, modifier.u)
        elif isinstance(modifier, EdgeDelete):
            check_live(modifier.u, modifier, index)
            check_live(modifier.v, modifier, index)
            if not edge_exists(modifier.u, modifier.v):
                raise ModifierError(
                    f"modifier {index}: edge ({modifier.u}, {modifier.v}) "
                    "not found for deletion",
                    modifier_index=index,
                )
            ops.append(SlotDelete(modifier.u, modifier.v))
            ops.append(SlotDelete(modifier.v, modifier.u))
            note_del(modifier.u, modifier.v)
            note_del(modifier.v, modifier.u)
        elif isinstance(modifier, VertexDelete):
            check_live(modifier.u, modifier, index)
            for v in current_neighbors(modifier.u):
                ops.append(SlotDelete(v, modifier.u))
                note_del(v, modifier.u)
                note_del(modifier.u, v)
            ops.append(VertexDeactivate(modifier.u))
            pending_status[modifier.u] = False
        elif isinstance(modifier, VertexInsert):
            if modifier.weight < 1:
                raise ModifierError(
                    f"modifier {index}: {modifier!r} has a weight below 1",
                    modifier_index=index,
                )
            status = pending_status.get(modifier.u)
            if status is True or (
                status is None
                and modifier.u < graph.num_vertices
                and graph.is_active(modifier.u)
            ):
                raise ModifierError(
                    f"modifier {index}: vertex {modifier.u} is already "
                    "active",
                    modifier_index=index,
                )
            if modifier.u >= next_new_id and status is None:
                if modifier.u != next_new_id:
                    raise ModifierError(
                        f"modifier {index}: new vertex ID must be "
                        f"{next_new_id}, got {modifier.u}",
                        modifier_index=index,
                    )
                next_new_id += 1
            ops.append(VertexActivate(modifier.u, modifier.weight))
            pending_status[modifier.u] = True
        else:
            raise ModifierError(
                f"modifier {index}: unknown modifier {modifier!r}",
                modifier_index=index,
            )
    return ops


# ---------------------------------------------------------------------------
# Warp-faithful kernels (Algorithms 1 and 2).
# ---------------------------------------------------------------------------


def _edge_insert_warp(
    warp: Warp, graph: BucketListGraph, op: SlotInsert
) -> None:
    """Algorithm 1 verbatim (plus the relocation overflow path)."""
    while True:
        bucket_start, n_slots = graph.slot_range(op.u)
        num_bucket = n_slots // SLOTS_PER_BUCKET
        bucket_cnt = 0
        while bucket_cnt < num_bucket:
            base = bucket_start + bucket_cnt * SLOTS_PER_BUCKET
            nbr = warp.load(graph.bucket_list, base + warp.lane_id)
            if_empty = warp.ballot_sync(FULL_MASK, nbr == EMPTY)
            slot = ffs(if_empty) - 1
            if slot != -1:
                graph._undo_slots(base + slot)
                graph.bucket_list[base + slot] = op.v
                graph.slot_wgt[base + slot] = op.w
                warp.charge(instructions=1, transactions=1)
                return
            bucket_cnt += 1
        # All buckets full: relocate with one extra bucket and retry.
        moved_slots = graph.relocate_with_extra_buckets(op.u, extra=1)
        warp.charge(
            instructions=2 * (moved_slots // SLOTS_PER_BUCKET),
            transactions=2 * (moved_slots // SLOTS_PER_BUCKET),
        )


def _edge_delete_warp(
    warp: Warp, graph: BucketListGraph, op: SlotDelete, removed: ArcRows
) -> None:
    """Edge deletion: same scan as Algorithm 1, matching ``v`` instead."""
    bucket_start, n_slots = graph.slot_range(op.u)
    num_bucket = n_slots // SLOTS_PER_BUCKET
    bucket_cnt = 0
    while bucket_cnt < num_bucket:
        base = bucket_start + bucket_cnt * SLOTS_PER_BUCKET
        nbr = warp.load(graph.bucket_list, base + warp.lane_id)
        found = warp.ballot_sync(FULL_MASK, nbr == op.v)
        slot = ffs(found) - 1
        if slot != -1:
            removed.append((op.u, op.v, int(graph.slot_wgt[base + slot])))
            graph._undo_slots(base + slot)
            graph.bucket_list[base + slot] = EMPTY
            graph.slot_wgt[base + slot] = 0
            warp.charge(instructions=1, transactions=1)
            return
        bucket_cnt += 1
    raise ModifierError(f"edge ({op.u}, {op.v}) not found for deletion")


def _vertex_op_warp(
    warp: Warp,
    graph: BucketListGraph,
    op: "VertexActivate | VertexDeactivate",
    removed: ArcRows,
) -> None:
    """Algorithm 2 verbatim: status update + cooperative blanking."""
    u = op.u
    if isinstance(op, VertexDeactivate):
        if graph.vertex_status[u] != STATUS_ACTIVE:
            raise ModifierError(f"vertex {u} is not active")
        _log_filled_slots(graph, u, removed)
        graph._undo_status(u)
        graph.vertex_status[u] = STATUS_DELETED
        warp.charge(instructions=1, transactions=1)
        bucket_start, n_slots = graph.slot_range(u)
        num_bucket = n_slots // SLOTS_PER_BUCKET
    else:
        if graph.vertex_status[u] == STATUS_ACTIVE:
            raise ModifierError(f"vertex {u} is already active")
        graph._undo_status(u)
        graph.vertex_status[u] = STATUS_ACTIVE
        graph.vwgt[u] = op.w
        warp.charge(instructions=2, transactions=1)
        if graph.bucket_count[u] == 0:
            # Brand-new ID: "assign u a single bucket and add the bucket
            # to the end of the bucket-list" (Algorithm 2 lines 9-10).
            graph.assign_new_buckets(u, 1)
        bucket_start, n_slots = graph.slot_range(u)
        num_bucket = n_slots // SLOTS_PER_BUCKET
    # Lines 11-13: initialize every slot to EMPTY.
    graph._undo_slots(
        np.arange(bucket_start, bucket_start + n_slots, dtype=np.int64)
    )
    for bucket_cnt in range(num_bucket):
        base = bucket_start + bucket_cnt * SLOTS_PER_BUCKET
        warp.store(graph.bucket_list, base + warp.lane_id, EMPTY)
        graph.slot_wgt[base : base + SLOTS_PER_BUCKET] = 0


def apply_ops_warp(
    ctx: GpuContext, graph: BucketListGraph, ops: Sequence[SlotOp]
) -> ArcChanges:
    """Apply a slot-op batch with one warp per op, one kernel launch.

    New-vertex IDs are reserved on the host before the launch (the GPU
    kernel cannot grow the ID space), mirroring how the CUDA driver
    would size its grid.
    """
    _reserve_new_ids(graph, ops)
    from repro.gpusim.kernel import launch_warps

    cursor = {"index": 0}
    added: ArcRows = []
    removed: ArcRows = []

    def body(warp: Warp, op: SlotOp) -> None:
        index = cursor["index"]
        cursor["index"] += 1
        try:
            if isinstance(op, SlotInsert):
                _edge_insert_warp(warp, graph, op)
                added.append((op.u, op.v, op.w))
            elif isinstance(op, SlotDelete):
                _edge_delete_warp(warp, graph, op, removed)
            else:
                _vertex_op_warp(warp, graph, op, removed)
        except ModifierError as err:
            raise _annotate(err, index) from None

    # ordered=True: slot ops within a batch are dependent by design —
    # two inserts on one vertex claim consecutive empty slots, a delete
    # may target a slot an earlier op filled.  The execution model
    # serializes ops in batch order (the vector path reproduces that
    # layout bit-for-bit); a CUDA port must preserve the contract, e.g.
    # by claiming slots with atomicCAS.  The warp-access sanitizer
    # therefore exempts this launch from cross-warp conflict checks and
    # guards it with the access-trace digest instead.
    launch_warps(ctx, list(ops), body, name="apply-modifiers", ordered=True)
    return _arc_changes(added, removed)


# ---------------------------------------------------------------------------
# Vectorized path (same results, NumPy slot scans, same charged cost).
# ---------------------------------------------------------------------------


def apply_ops_vector(
    ctx: GpuContext, graph: BucketListGraph, ops: Sequence[SlotOp]
) -> ArcChanges:
    """Apply a slot-op batch with NumPy scans, charging warp-equivalent
    costs.  Produces exactly the same slot layout as the warp path
    (first empty / first match in slot order).

    One walk in batch order, one NumPy slot scan per op, mirroring the
    warp path's one warp per op.
    """
    _reserve_new_ids(graph, ops)
    instructions = 0
    transactions = 0
    added: ArcRows = []
    removed: ArcRows = []
    with ctx.ledger.kernel("apply-modifiers"):
        for index, op in enumerate(ops):
            try:
                if isinstance(op, SlotInsert):
                    cost = _edge_insert_vector(graph, op)
                    added.append((op.u, op.v, op.w))
                elif isinstance(op, SlotDelete):
                    cost = _edge_delete_vector(graph, op, removed)
                else:
                    cost = _vertex_op_vector(graph, op, removed)
            except ModifierError as err:
                raise _annotate(err, index) from None
            instructions += cost[0]
            transactions += cost[1]
        n_ops = max(len(ops), 1)
        balanced = math.ceil(instructions / ctx.resident_warps)
        longest = math.ceil(instructions / n_ops)
        ctx.ledger.charge_instructions(max(balanced, longest))
        ctx.ledger.charge_transactions(transactions)
    return _arc_changes(added, removed)


def _edge_insert_vector(
    graph: BucketListGraph, op: SlotInsert
) -> tuple[int, int]:
    relocate_instr = 0
    relocate_trans = 0
    while True:
        start, n_slots = graph.slot_range(op.u)
        slots = graph.bucket_list[start : start + n_slots]
        empties = np.flatnonzero(slots == EMPTY)
        if empties.size:
            slot = int(empties[0])
            graph._undo_slots(start + slot)
            graph.bucket_list[start + slot] = op.v
            graph.slot_wgt[start + slot] = op.w
            buckets_scanned = slot // SLOTS_PER_BUCKET + 1
            return (
                4 * buckets_scanned + 1 + relocate_instr,
                buckets_scanned + 1 + relocate_trans,
            )
        moved = graph.relocate_with_extra_buckets(op.u, extra=1)
        relocate_instr += 2 * (moved // SLOTS_PER_BUCKET)
        relocate_trans += 2 * (moved // SLOTS_PER_BUCKET)


def _edge_delete_vector(
    graph: BucketListGraph, op: SlotDelete, removed: ArcRows
) -> tuple[int, int]:
    start, n_slots = graph.slot_range(op.u)
    slots = graph.bucket_list[start : start + n_slots]
    hits = np.flatnonzero(slots == op.v)
    if hits.size == 0:
        raise ModifierError(f"edge ({op.u}, {op.v}) not found for deletion")
    slot = int(hits[0])
    removed.append((op.u, op.v, int(graph.slot_wgt[start + slot])))
    graph._undo_slots(start + slot)
    graph.bucket_list[start + slot] = EMPTY
    graph.slot_wgt[start + slot] = 0
    buckets_scanned = slot // SLOTS_PER_BUCKET + 1
    return 4 * buckets_scanned + 1, buckets_scanned + 1


def _vertex_op_vector(
    graph: BucketListGraph,
    op: "VertexActivate | VertexDeactivate",
    removed: ArcRows,
) -> tuple[int, int]:
    u = op.u
    if isinstance(op, VertexDeactivate):
        if graph.vertex_status[u] != STATUS_ACTIVE:
            raise ModifierError(f"vertex {u} is not active")
        _log_filled_slots(graph, u, removed)
        graph._undo_status(u)
        graph.vertex_status[u] = STATUS_DELETED
    else:
        if graph.vertex_status[u] == STATUS_ACTIVE:
            raise ModifierError(f"vertex {u} is already active")
        graph._undo_status(u)
        graph.vertex_status[u] = STATUS_ACTIVE
        graph.vwgt[u] = op.w
        if graph.bucket_count[u] == 0:
            graph.assign_new_buckets(u, 1)
    start, n_slots = graph.slot_range(u)
    graph._undo_slots(np.arange(start, start + n_slots, dtype=np.int64))
    graph.bucket_list[start : start + n_slots] = EMPTY
    graph.slot_wgt[start : start + n_slots] = 0
    num_bucket = n_slots // SLOTS_PER_BUCKET
    return 2 + 2 * num_bucket, 1 + num_bucket


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _log_filled_slots(
    graph: BucketListGraph, u: int, removed: ArcRows
) -> None:
    """Log every filled slot of ``u`` as a removed arc (before blanking)."""
    values = graph.slots(u)
    filled = values != EMPTY
    removed.extend(
        zip(
            repeat(u),
            values[filled].tolist(),
            graph.slot_weights(u)[filled].tolist(),
        )
    )


def _arc_changes(added: ArcRows, removed: ArcRows) -> ArcChanges:
    return ArcChanges(
        np.array(added, dtype=np.int64).reshape(-1, 3),
        np.array(removed, dtype=np.int64).reshape(-1, 3),
    )


def _annotate(err: ModifierError, index: int) -> ModifierError:
    """Prefix a kernel-level error with the failing slot-op's index."""
    return type(err)(f"slot-op {index}: {err}")


def _reserve_new_ids(
    graph: BucketListGraph, ops: Sequence[SlotOp]
) -> None:
    """Grow the vertex-ID space for activations of brand-new IDs."""
    for op in ops:
        if isinstance(op, VertexActivate) and op.u >= graph.num_vertices:
            if op.u != graph.num_vertices:
                raise ModifierError(
                    f"new vertex ID must be {graph.num_vertices}, "
                    f"got {op.u}"
                )
            graph.new_vertex_id()


def apply_ops(
    ctx: GpuContext,
    graph: BucketListGraph,
    ops: Sequence[SlotOp],
    mode: str = "vector",
) -> ArcChanges:
    """Apply an already-expanded slot-op batch in the selected mode.

    Returns the :class:`ArcChanges` the walk made, so a consumer of arc
    deltas (the incremental cut accumulator) folds them without
    replaying the batch.  Both modes return the same rows.
    """
    if mode == "warp":
        return apply_ops_warp(ctx, graph, ops)
    if mode == "vector":
        return apply_ops_vector(ctx, graph, ops)
    raise ValueError(f"unknown mode {mode!r}")


def apply_batch(
    ctx: GpuContext,
    graph: BucketListGraph,
    batch: Sequence[Modifier],
    mode: str = "vector",
) -> List[SlotOp]:
    """Expand and apply a modifier batch; returns the slot-op list.

    The returned ops feed the balancing kernel (Algorithm 3), which
    needs to know which vertices each modifier touched.
    """
    ops = expand_modifiers(graph, batch)
    apply_ops(ctx, graph, ops, mode=mode)
    return ops
