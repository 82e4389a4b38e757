"""Bulk array kernels of the vectorized execution path.

Each function is one bulk step the paper defines once: the
most-suitable-partition masked argmax (Algorithm 4), the
longest-feasible-prefix scan (Figure 5), the bulk edge insert/delete
slot resolution (Algorithm 1), the ``PartitionState.apply_moves`` weight
scatter, and the incremental cut-delta fold.  They are *pure array
functions*: arrays in, arrays out, no graph mutation beyond the
explicitly in-place fold, no RNG, and no ledger charges.  Cost
accounting is the caller's job — the simulated-GPU ledger is charged
around these calls, so their bodies can change without moving a
deterministic counter (the ``ledgered-backend-kernel`` effect invariant
enforces this).

The module imports only NumPy, so ``repro.partition`` can import it at
module level even while the ``repro.core`` package is still initializing.
"""

from __future__ import annotations

import numpy as np

# -- refinement ---------------------------------------------------------------


def choose_partition(
    counts: np.ndarray,
    feasible: np.ndarray,
    part_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Most-suitable partition for every row of the ``(selected, k)``
    counts matrix, as one masked argmax.

    The tie-break rule is shared with the warp path (Algorithm 4
    line 20) and is exact integer lexicographic comparison — most
    neighbors, then lighter partition, then smaller index — never a
    floating-point score, so execution paths cannot diverge on ties.
    Rows with no feasible partition fall back to the globally
    lightest partition — a progress guarantee the paper leaves
    implicit.

    Returns aligned ``(targets, counts_at_target)`` arrays.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=np.int64))
    rows = counts.shape[0]
    if not np.any(feasible):
        target = int(np.argmin(part_weights))
        targets = np.full(rows, target, dtype=np.int64)
        return targets, counts[:, target].astype(np.int64)
    # Masked argmax, stage 1: the best neighbor count among feasible
    # partitions (counts are >= 0, so -1 marks infeasible columns).
    masked = np.where(feasible, counts, np.int64(-1))
    best_count = masked.max(axis=1)
    # Stage 2: among the tied-best columns, the minimum partition
    # weight; np.argmax then picks the first (smallest-index) column
    # attaining both.
    tied = masked == best_count[:, None]
    heavy = np.iinfo(np.int64).max
    tied_weights = np.where(tied, part_weights[None, :], heavy)
    best_weight = tied_weights.min(axis=1)
    targets = np.argmax(
        tied & (tied_weights == best_weight[:, None]), axis=1
    ).astype(np.int64)
    chosen_counts = np.take_along_axis(
        counts, targets[:, None], axis=1
    )[:, 0]
    return targets, chosen_counts.astype(np.int64)


def feasible_prefix(
    targets: np.ndarray,
    weights: np.ndarray,
    part_weights: np.ndarray,
    w_pmax: int,
    k: int,
) -> int:
    """Length of the longest move prefix satisfying the balance bound
    (the Figure 5 ``delta_p_wgt`` scatter + segmented cumsum).

    One scatter builds all k segments: move j adds its weight at
    position (target_j, j) of the (k, m) layout; the segmented
    inclusive scan over equal-length contiguous segments is a row
    cumsum.  Feasibility is monotone (weights are non-negative), so
    the answer is the count of leading feasible positions.
    """
    m = targets.shape[0]
    delta = np.zeros((k, m), dtype=np.int64)
    delta[targets, np.arange(m)] = weights
    accumulated = np.cumsum(delta, axis=1)
    ok = np.all(
        part_weights[:, None] + accumulated <= w_pmax, axis=0
    )
    return int(np.count_nonzero(np.cumprod(ok)))


# -- modification -------------------------------------------------------------


def insert_slot_positions(
    group: np.ndarray,
    n_groups: int,
    slot_idx: np.ndarray,
    owner: np.ndarray,
    is_empty: np.ndarray,
) -> np.ndarray | None:
    """Slot position for each insert of a same-kind run, or ``None``.

    ``group[j]`` is the (deduplicated) vertex index of insert ``j``;
    ``slot_idx``/``owner`` are the gather arrays over those vertices
    and ``is_empty`` marks the currently-free slots.  The t-th insert
    targeting a vertex (in run order) lands in the vertex's t-th
    empty slot — exactly where the sequential first-empty scan would
    put it, because earlier inserts only consume earlier empties.
    Returns ``None`` when some vertex lacks enough empty slots
    (bucket overflow); the caller then falls back to the sequential
    path, which preserves Algorithm 1's relocation order.
    """
    # Occurrence index of each insert within its vertex group
    # (stable), via a stable argsort of the group keys.
    order = np.argsort(group, kind="stable")
    occ = np.empty(group.size, dtype=np.int64)
    group_sorted = group[order]
    first_of_group = np.searchsorted(group_sorted, np.arange(n_groups))
    occ[order] = np.arange(group.size) - first_of_group[group_sorted]

    empty_positions = slot_idx[is_empty]
    empty_owner = owner[is_empty]
    per_owner = np.bincount(empty_owner, minlength=n_groups)
    need = np.bincount(group, minlength=n_groups)
    if np.any(per_owner < need):
        return None
    # ``empty_owner`` is non-decreasing (owner segments are
    # contiguous), so each group's empties start at a searchsorted
    # boundary.
    group_start = np.searchsorted(empty_owner, np.arange(n_groups))
    return empty_positions[group_start[group] + occ]


def delete_slot_positions(
    slot_idx: np.ndarray,
    owner: np.ndarray,
    slot_values: np.ndarray,
    match_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First matching slot per delete of a same-kind run.

    ``owner`` indexes *ops* (one slot segment per delete, vertices
    repeated per op), so each op matches ``match_values[op]`` only
    against its own vertex's slots.  Returns ``(chosen, found)``:
    ``found[i]`` is False when op ``i`` has no matching slot (the
    caller replays sequentially to reproduce the not-found error),
    and ``chosen`` holds the matched positions of the found ops in
    op order (meaningful only when ``found.all()``).
    """
    n_ops = match_values.size
    match = slot_values == match_values[owner]
    midx = np.flatnonzero(match)
    first_owners, first_pos = np.unique(owner[midx], return_index=True)
    found = np.zeros(n_ops, dtype=bool)
    found[first_owners] = True
    # found.all() implies first_owners == arange(n_ops): the first
    # matching slot of op i is midx[first_pos[i]].
    return slot_idx[midx[first_pos]], found


# -- partition state ----------------------------------------------------------


def apply_move_deltas(
    src: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    k: int,
    pseudo_label: int,
) -> tuple[np.ndarray, int]:
    """Per-partition weight deltas of a bulk move batch.

    Returns ``(part_delta, pseudo_delta)`` where ``part_delta`` is a
    length-k int64 array to add onto the cached partition weights
    and ``pseudo_delta`` adjusts the pseudo-partition weight.
    Integer scatter-adds only, so accumulation order cannot change
    the result.
    """
    part_delta = np.zeros(k, dtype=np.int64)
    src_real = (src >= 0) & (src < k)
    if np.any(src_real):
        np.subtract.at(part_delta, src[src_real], weights[src_real])
    dst_real = (targets >= 0) & (targets < k)
    if np.any(dst_real):
        np.add.at(part_delta, targets[dst_real], weights[dst_real])
    pseudo_delta = int(
        weights[targets == pseudo_label].sum()
    ) - int(weights[src == pseudo_label].sum())
    return part_delta, pseudo_delta


# -- incremental cut ----------------------------------------------------------


def fold_cut_deltas(
    flat_matrix: np.ndarray,
    sub_keys: np.ndarray,
    sub_weights: np.ndarray,
    add_keys: np.ndarray,
    add_weights: np.ndarray,
) -> None:
    """Fold arc deltas into the flat extended-label cut matrix,
    in place.

    Keys are flattened ``ext_row * ext_n + ext_col`` indices.  Plain
    int64 scatter-adds (never ``np.bincount(weights=...)``, which
    promotes to float64 and would break bit-exactness).
    """
    if sub_keys.size:
        np.subtract.at(flat_matrix, sub_keys, sub_weights)
    if add_keys.size:
        np.add.at(flat_matrix, add_keys, add_weights)
