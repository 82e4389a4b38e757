"""Bulk array kernels of the vectorized execution path.

Each function is one bulk step the paper defines once: the
most-suitable-partition masked argmax (Algorithm 4), the
longest-feasible-prefix scan (Figure 5), the
``PartitionState.apply_moves`` weight scatter, and the incremental
cut-delta fold.  They are *pure array functions*: arrays in, arrays
out, no graph mutation beyond the explicitly in-place fold, no RNG, and
no ledger charges.  Cost accounting is the caller's job — the
simulated-GPU ledger is charged around these calls, so their bodies can
change without moving a deterministic counter (the
``ledgered-backend-kernel`` effect invariant enforces this).

The modifier kernels (Algorithms 1-2) have no bulk step here:
``core/modification.py`` scans slots one op at a time, as the paper
gives each slot operation one warp.  Same-kind op runs in real batches
average 3-4 ops, too short for a bulk scatter to pay for its setup.

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
