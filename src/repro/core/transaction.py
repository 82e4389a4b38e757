"""Transactional execution around modifier batches.

The paper's modifier kernels (Algorithms 1-2) assume valid input; a bad
modifier raises mid-batch with the bucket list and partition partially
mutated.  This module makes a batch *atomic*: :func:`transaction` opens a
pre-image undo log on the graph (``BucketListGraph.begin_undo``) and
snapshots the partition state, so any :class:`~repro.utils.errors.ReproError`
inside the block rolls both back bit-identically to the pre-batch state
and re-raises.  Bit-identity is witnessed by :func:`state_digest`, a
sha256 over every live device array.

Cost accounting: recording pre-images is free on the simulated GPU (the
pre-image loads ride along with writes the kernels already pay for, like
a hardware transactional-memory write set), so the success path charges
*exactly* what a non-transactional run charges — the perf gate's
deterministic ledger counters do not move.  A rollback charges a
``"rollback"`` ledger section proportional to the slots restored.

The partition snapshot also carries the incremental cut accumulator
(via ``CutAccumulator.clone``/``restore_from``): a rolled-back batch
restores the maintained arc matrix bit-identically, but the
accumulator stays *derived* state — it is excluded from
:func:`state_digest`, so digest-verified rollbacks compare only
authoritative device arrays.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.gpusim.context import GpuContext
from repro.graph.bucketlist import SLOTS_PER_BUCKET, BucketListGraph
from repro.partition.state import PartitionState
from repro.utils.errors import ReproError, TransactionError


def state_digest(
    graph: BucketListGraph, state: PartitionState | None = None
) -> str:
    """sha256 hex digest of the *used* device state.

    Covers the graph's scalars and every array region a kernel can
    observe (pool up to the tail pointer, per-vertex metadata up to the
    vertex high-water mark) plus, when given, the partition state.
    Abandoned pool regions beyond the tail are excluded: slots there are
    unreachable through any bucket range, and rolling back a tail bump
    intentionally leaves the blanked region behind it untouched.
    """
    h = hashlib.sha256()
    n = graph.num_vertices
    used_slots = graph.num_buckets_used * SLOTS_PER_BUCKET
    h.update(np.int64(n).tobytes())
    h.update(np.int64(graph.num_buckets_used).tobytes())
    h.update(np.ascontiguousarray(graph.bucket_list[:used_slots]).tobytes())
    h.update(np.ascontiguousarray(graph.slot_wgt[:used_slots]).tobytes())
    h.update(np.ascontiguousarray(graph.bucket_start[:n]).tobytes())
    h.update(np.ascontiguousarray(graph.bucket_count[:n]).tobytes())
    h.update(np.ascontiguousarray(graph.vertex_status[:n]).tobytes())
    h.update(np.ascontiguousarray(graph.vwgt[:n]).tobytes())
    if state is not None:
        h.update(np.ascontiguousarray(state.partition).tobytes())
        h.update(np.ascontiguousarray(state._vwgt).tobytes())
        h.update(np.ascontiguousarray(state.part_weights).tobytes())
        h.update(np.int64(state.pseudo_weight).tobytes())
    return h.hexdigest()


@contextmanager
def transaction(
    graph: BucketListGraph,
    state: PartitionState | None = None,
    ctx: GpuContext | None = None,
    verify_digest: bool = False,
) -> Iterator[None]:
    """Run a modifier batch atomically against ``graph`` (and ``state``).

    On a clean exit the undo log is discarded.  If the block raises a
    :class:`ReproError`, the graph is rolled back from its undo log, the
    state is restored from its snapshot, and the original error is
    re-raised.  Non-``ReproError`` exceptions (genuine bugs) also roll
    back, so even an unexpected crash cannot leave corruption behind.

    Args:
        verify_digest: Recompute :func:`state_digest` before the batch
            and after a rollback and raise :class:`TransactionError` on
            mismatch.  Costs a full state hash per batch — meant for
            tests and the chaos harness, not the hot path.
    """
    pre_digest = state_digest(graph, state) if verify_digest else None
    log = graph.begin_undo()
    snapshot = state.copy() if state is not None else None
    try:
        yield
    except BaseException as err:
        from repro.obs import span

        restored_slots = log.slot_writes
        with span("transaction.rollback"):
            graph.rollback_undo()
            if state is not None and snapshot is not None:
                state.restore(snapshot)
            if ctx is not None:
                # One coalesced scatter restoring the logged slots plus
                # the snapshot copy-back of the partition arrays.
                ledger = ctx.ledger
                with ledger.section("rollback"), ledger.kernel(
                    "txn_rollback"
                ):
                    warps = -(-max(restored_slots, 1) // SLOTS_PER_BUCKET)
                    ledger.charge_instructions(2 * warps)
                    ledger.charge_transactions(2 * warps)
                    if state is not None:
                        n = state.partition.size
                        ledger.charge_transactions(-(-n // 16))
        if pre_digest is not None:
            post_digest = state_digest(graph, state)
            if post_digest != pre_digest:
                raise TransactionError(
                    f"rollback failed to restore pre-batch state: "
                    f"digest {post_digest[:12]} != {pre_digest[:12]} "
                    f"(original error: {err})"
                ) from err
        raise
    else:
        graph.commit_undo()


__all__ = ["state_digest", "transaction", "TransactionError", "ReproError"]
