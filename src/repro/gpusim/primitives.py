"""Device-wide parallel primitives: segmented scan and radix sort.

These are the building blocks a CUDA implementation would take from CUB or
Thrust.  The results are computed with NumPy; the cost charged to the
ledger models the standard GPU algorithms:

* segmented scan -- work-efficient Blelloch scan with head flags,
                    ~3 passes over the data,
* radix sort   -- 4 passes of 8-bit digits, each pass a histogram + scan
                  + scatter.

Each primitive is one kernel (or a small fixed number of kernels) from the
launch-overhead point of view.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpusim.context import GpuContext


def _log2_ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2))))


def _charge_scan(
    ctx: GpuContext, n: int, passes: int = 2, name: str = "scan"
) -> None:
    n_warps = math.ceil(max(n, 1) / 32)
    with ctx.ledger.kernel(name):
        ctx.charge_wavefront(
            n_warps,
            instructions_per_warp=passes * _log2_ceil(n),
            transactions_per_warp=passes,
        )


def charge_segmented_scan(ctx: GpuContext, n: int) -> None:
    """Charge the modeled cost of a segmented scan of ``n`` values —
    and nothing else.

    For callers that compute the scan's *result* with a ledger-free
    array kernel (:func:`repro.core.kernels.feasible_prefix`) but must
    charge exactly what :func:`segmented_inclusive_scan` would, so the
    kernel's implementation can never move a deterministic ledger
    counter.
    """
    _charge_scan(ctx, n, passes=3, name="segmented-scan")


def segmented_inclusive_scan(
    ctx: GpuContext, values: np.ndarray, segment_ids: np.ndarray
) -> np.ndarray:
    """Inclusive scan that restarts at every segment boundary.

    ``segment_ids`` must be non-decreasing (the layout the refinement
    kernel builds for ``delta_p_wgt``: one contiguous segment per
    partition, Figure 5 of the paper).
    """
    values = np.asarray(values)
    segment_ids = np.asarray(segment_ids)
    if values.shape != segment_ids.shape:
        raise ValueError("values and segment_ids must have the same shape")
    if values.size and np.any(np.diff(segment_ids) < 0):
        raise ValueError("segment_ids must be sorted (contiguous segments)")
    _charge_scan(ctx, values.size, passes=3, name="segmented-scan")
    if values.size == 0:
        return values.copy()
    totals = np.cumsum(values)
    # Subtract, within each segment, the running total at the previous
    # segment's end; boundaries are where the segment id changes.
    boundary = np.flatnonzero(np.diff(segment_ids)) + 1
    offsets = np.zeros(values.size, dtype=totals.dtype)
    if boundary.size:
        seg_end_totals = totals[boundary - 1]
        idx = np.zeros(values.size, dtype=np.int64)
        idx[boundary] = 1
        seg_index = np.cumsum(idx)  # 0 for first segment, 1 for second, ...
        lookup = np.concatenate(([0], seg_end_totals))
        offsets = lookup[seg_index]
    return totals - offsets


def sort_by_key(
    ctx: GpuContext,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    descending: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Stable radix sort of ``keys`` (optionally permuting ``values``).

    Charged as a 4-pass LSD radix sort over 32-bit keys; each pass reads
    and writes every element once plus a digit-histogram scan.
    """
    keys = np.asarray(keys)
    n = keys.size
    n_warps = math.ceil(max(n, 1) / 32)
    for _pass in range(4):
        with ctx.ledger.kernel("radix-pass"):
            ctx.charge_wavefront(
                n_warps, instructions_per_warp=8, transactions_per_warp=3
            )
        _charge_scan(ctx, 256)
    order = np.argsort(-keys if descending else keys, kind="stable")
    sorted_keys = keys[order]
    sorted_values = None if values is None else np.asarray(values)[order]
    return sorted_keys, sorted_values
