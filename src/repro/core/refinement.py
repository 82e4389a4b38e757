"""Parallel incremental refinement (Section V.C.2, Algorithm 4, Figure 5).

Vertices parked in the pseudo-partition are drained in rounds:

1. **Independent-set selection** — a pseudo vertex moves this round only
   if it has no pseudo neighbor with a smaller vertex ID
   (``__any_sync`` in the paper), so adjacent vertices never move
   concurrently and the most-suitable-partition computation stays
   race-free.
2. **Most-suitable partition** — for each selected vertex, count its
   neighbors in every partition whose weight is still below ``W_pmax``;
   the partition with the most neighbors wins, ties broken by lighter
   partition (Algorithm 4 line 20).  A vertex with *no* feasible
   partition falls back to the lightest partition — a progress guarantee
   the paper leaves implicit.
3. **Move commit** (Figure 5) — candidate moves are sorted by neighbor
   count descending, the ``delta_p_wgt`` array (k segments × moves) is
   built, a parallel segmented scan accumulates per-partition weight
   deltas, and the longest prefix of moves that keeps every partition
   under ``W_pmax`` is applied.  If even the first move does not fit,
   it is retargeted to the partition with the most headroom so every
   round makes progress.

Rounds repeat until the pseudo-partition is empty.
"""
# repro-lint: hot-path

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.kernels import choose_partition, feasible_prefix
from repro.gpusim.context import FULL_MASK, GpuContext
from repro.gpusim.primitives import charge_segmented_scan, sort_by_key
from repro.gpusim.warp import Warp
from repro.graph.bucketlist import (
    EMPTY,
    SLOTS_PER_BUCKET,
    BucketListGraph,
)
from repro.partition.state import PartitionState
from repro.utils.errors import PartitionError
from repro.obs import span


@dataclass
class RefineStats:
    """Diagnostics of one refinement drain."""

    rounds: int = 0
    moves_applied: int = 0
    forced_moves: int = 0
    deferred_moves: int = 0
    rounds_move_counts: List[int] = field(default_factory=list)


@dataclass
class _MoveSet:
    """Candidate moves of one round (aligned arrays)."""

    vertices: np.ndarray
    targets: np.ndarray
    nbr_counts: np.ndarray
    weights: np.ndarray


def refine_pseudo(
    ctx: GpuContext,
    graph: BucketListGraph,
    state: PartitionState,
    vertex_in_pseudo: Sequence[int],
    mode: str = "vector",
    max_rounds: int = 64,
) -> RefineStats:
    """Drain the pseudo-partition (Algorithm 4); mutates ``state``.

    Args:
        vertex_in_pseudo: The centralized buffer from Algorithm 3, in
            insertion order.
        max_rounds: Safety cap; any leftovers are force-assigned to the
            lightest partition that still has ``W_pmax`` headroom so the
            drain always terminates.
    """
    stats = RefineStats()
    buffer = np.asarray(vertex_in_pseudo, dtype=np.int64)
    # repro-lint: allow[hot-path-loop] round loop bounded by max_rounds, not per-vertex
    while buffer.size and stats.rounds < max_rounds:
        stats.rounds += 1
        with span("refine.find-moves"):
            moves = _find_moves(ctx, graph, state, buffer, mode)
        with span("refine.commit"):
            applied = _commit_moves(ctx, state, moves, stats)
            if applied.size:
                buffer = buffer[~np.isin(buffer, applied)]
        stats.rounds_move_counts.append(int(applied.size))
    # Safety: force-place any leftovers (can only trigger at the cap).
    # Honor the balance bound where possible: the lightest partition
    # *with headroom* wins; only when no partition can absorb the vertex
    # does the global lightest take it.
    # repro-lint: allow[hot-path-loop] cap-overflow fallback; buffer is empty in normal runs
    for u in buffer:
        w_u = state.vertex_weight(int(u))
        fits = state.part_weights + w_u <= state.w_pmax()
        if np.any(fits):
            weights = np.where(fits, state.part_weights, np.iinfo(np.int64).max)
            target = int(np.argmin(weights))
        else:
            target = int(np.argmin(state.part_weights))
        state.move(int(u), target)
        stats.forced_moves += 1
        stats.moves_applied += 1
    if state.pseudo_weight != 0:
        raise PartitionError("pseudo-partition not fully drained")
    return stats


# ---------------------------------------------------------------------------
# Step 1 + 2: independent set and most-suitable partition.
# ---------------------------------------------------------------------------


def _find_moves(
    ctx: GpuContext,
    graph: BucketListGraph,
    state: PartitionState,
    buffer: Sequence[int],
    mode: str,
) -> _MoveSet:
    if mode == "vector":
        return _find_moves_vector(ctx, graph, state, buffer)
    if mode == "warp":
        return _find_moves_warp(ctx, graph, state, buffer)
    raise ValueError(f"unknown mode {mode!r}")


def _find_moves_vector(
    ctx: GpuContext,
    graph: BucketListGraph,
    state: PartitionState,
    buffer: Sequence[int],
) -> _MoveSet:
    pseudo = state.pseudo_label
    k = state.k
    vertices = np.asarray(buffer, dtype=np.int64)
    partition = state.partition
    w_pmax = state.w_pmax()

    with ctx.ledger.kernel("select-independent"):
        slot_idx, owner = graph.slot_index_arrays(vertices)
        nbrs = graph.bucket_list[slot_idx]
        filled = nbrs != EMPTY
        owner_f = owner[filled]
        nbrs_f = nbrs[filled]
        # Independent set: blocked if a pseudo neighbor has a smaller ID.
        blocking = (partition[nbrs_f] == pseudo) & (
            nbrs_f < vertices[owner_f]
        )
        blocked = np.zeros(vertices.size, dtype=bool)
        blocked[owner_f[blocking]] = True
        instr = 3 * graph.bucket_count[vertices] + 2
        trans = graph.bucket_count[vertices] + 1
        ctx.charge_irregular_warps(instr, trans)

    selected_mask = ~blocked
    selected = vertices[selected_mask]
    if selected.size == 0:
        return _MoveSet(
            vertices=selected,
            targets=selected.copy(),
            nbr_counts=selected.copy(),
            weights=selected.copy(),
        )

    with ctx.ledger.kernel("count-partitions"):
        # Count neighbors of each selected vertex per real partition.
        sel_index = np.full(vertices.size, -1, dtype=np.int64)
        sel_index[selected_mask] = np.arange(selected.size)
        in_selected = sel_index[owner_f] >= 0
        nbr_part = partition[nbrs_f[in_selected]]
        rows = sel_index[owner_f[in_selected]]
        real = (nbr_part >= 0) & (nbr_part < k)
        counts = np.bincount(
            rows[real] * k + nbr_part[real], minlength=selected.size * k
        ).reshape(selected.size, k)
        feasible = state.part_weights < w_pmax
        k_feasible = int(feasible.sum())
        # Algorithm 4 re-scans the vertex's buckets once per feasible
        # partition (lines 12-19 re-read ``bucket_list`` inside the
        # ``for p`` loop), so both the instruction and the memory cost
        # grow with k — the paper's explanation for the speedup dropping
        # as k rises (Section VI.B).
        instr = graph.bucket_count[selected] * (2 + 2 * max(k_feasible, 1))
        trans = graph.bucket_count[selected] * max(k_feasible, 1) + 2
        ctx.charge_irregular_warps(instr + 4, trans)

    targets, nbr_counts = choose_partition(
        counts, feasible, state.part_weights
    )
    ctx.ledger.charge_atomics(selected.size)
    weights = state.vertex_weights(selected)
    return _MoveSet(selected, targets, nbr_counts, weights)


def _find_moves_warp(
    ctx: GpuContext,
    graph: BucketListGraph,
    state: PartitionState,
    buffer: Sequence[int],
) -> _MoveSet:
    """Algorithm 4 lines 1-23 on the 32-lane warp model."""
    from repro.gpusim.kernel import launch_warps

    pseudo = state.pseudo_label
    k = state.k
    partition = state.partition
    w_pmax = state.w_pmax()
    part_weights = state.part_weights
    feasible = part_weights < w_pmax

    move_rows: List[tuple[int, int, int, int]] = []

    def body(warp: Warp, u: int) -> None:
        bucket_start, n_slots = graph.slot_range(u)
        num_bucket = n_slots // SLOTS_PER_BUCKET
        # Lines 5-11: early exit if an adjacent pseudo vertex has a
        # smaller ID (it moves this round instead of u).
        bucket_cnt = 0
        while bucket_cnt < num_bucket:
            base = bucket_start + bucket_cnt * SLOTS_PER_BUCKET
            nbr = warp.load(graph.bucket_list, base + warp.lane_id)
            filled = nbr != EMPTY
            nbr_par = np.where(filled, partition[nbr], UNASSIGNED_PAR)
            if warp.any_sync(
                FULL_MASK, (nbr_par == pseudo) & (nbr < u) & filled
            ):
                return
            bucket_cnt += 1
        # Lines 12-20: count neighbors per feasible partition.
        best_count = -1
        best_part = -1
        for p in range(k):
            if not feasible[p]:
                continue
            num_nbr_in_p = 0
            bucket_cnt = 0
            while bucket_cnt < num_bucket:
                base = bucket_start + bucket_cnt * SLOTS_PER_BUCKET
                nbr = warp.load(graph.bucket_list, base + warp.lane_id)
                filled = nbr != EMPTY
                nbr_par = np.where(filled, partition[nbr], UNASSIGNED_PAR)
                mask = warp.ballot_sync(FULL_MASK, (nbr_par == p) & filled)
                num_nbr_in_p += bin(mask).count("1")
                bucket_cnt += 1
            # Shared tie-break rule (see kernels.choose_partition): most
            # neighbors, then lighter partition, then smaller index —
            # ascending p plus strict comparisons implements exactly
            # that lexicographic order.
            if num_nbr_in_p > best_count or (
                num_nbr_in_p == best_count
                and 0 <= best_part
                and part_weights[p] < part_weights[best_part]
            ):
                best_count = num_nbr_in_p
                best_part = p
        if best_part < 0:
            best_part = int(np.argmin(part_weights))
            best_count = _count_in_partition(graph, partition, u, best_part)
        move_rows.append(
            (u, best_part, best_count, state.vertex_weight(u))
        )

    launch_warps(ctx, list(buffer), body, name="find-moves")
    ctx.ledger.charge_atomics(len(move_rows))
    if not move_rows:
        empty = np.zeros(0, dtype=np.int64)
        return _MoveSet(empty, empty.copy(), empty.copy(), empty.copy())
    arr = np.array(move_rows, dtype=np.int64)
    return _MoveSet(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


UNASSIGNED_PAR = np.int64(-1)


def _count_in_partition(
    graph: BucketListGraph, partition: np.ndarray, u: int, p: int
) -> int:
    values = graph.slots(u)
    filled = values != EMPTY
    return int(np.count_nonzero(partition[values[filled]] == p))


# ---------------------------------------------------------------------------
# Step 3: the Figure 5 segmented-scan commit.
# ---------------------------------------------------------------------------


def longest_feasible_prefix(
    ctx: GpuContext,
    targets: np.ndarray,
    weights: np.ndarray,
    part_weights: np.ndarray,
    w_pmax: int,
    k: int,
) -> int:
    """Length of the longest move prefix satisfying the balance bound.

    Builds the ``delta_p_wgt`` array (k contiguous segments, one per
    partition, each as long as the move sequence), runs a parallel
    segmented inclusive scan, and returns the first prefix length whose
    accumulated weights would push some partition past ``w_pmax``.
    Feasibility is monotone (weights are non-negative), so this is the
    count of leading feasible positions.
    """
    m = targets.shape[0]
    if m == 0:
        return 0
    # The ledger charge stays here — identical to what the in-place
    # segmented_inclusive_scan over the (k, m) ``delta_p_wgt`` layout
    # would cost — while the scan's *result* comes from the ledger-free
    # kernel, so changing how it computes can never move a counter.
    charge_segmented_scan(ctx, k * m)
    return feasible_prefix(targets, weights, part_weights, w_pmax, k)


def _commit_moves(
    ctx: GpuContext,
    state: PartitionState,
    moves: _MoveSet,
    stats: RefineStats,
) -> np.ndarray:
    """Sort moves by #nbr, apply the longest feasible prefix.

    Returns the applied vertices (possibly empty) as an int64 array.
    """
    m = moves.vertices.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    _keys, order = sort_by_key(
        ctx, moves.nbr_counts, np.arange(m), descending=True
    )
    vertices = moves.vertices[order]
    targets = moves.targets[order]
    weights = moves.weights[order]

    w_pmax = state.w_pmax()
    prefix = longest_feasible_prefix(
        ctx, targets, weights, state.part_weights, w_pmax, state.k
    )
    if prefix == 0:
        # Progress guarantee: retarget the strongest move to the
        # partition with the most headroom and apply it regardless.
        u = int(vertices[0])
        target = int(np.argmin(state.part_weights))
        state.move(u, target)
        stats.moves_applied += 1
        stats.forced_moves += 1
        stats.deferred_moves += m - 1
        return vertices[:1].copy()

    applied = vertices[:prefix]
    state.apply_moves(applied, targets[:prefix])
    stats.moves_applied += prefix
    stats.deferred_moves += m - prefix
    return applied
