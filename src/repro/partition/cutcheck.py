"""Sanitizer cross-check: incremental cut vs. ground-truth pool scan.

The :class:`~repro.partition.cutacc.CutAccumulator` replaces the
per-batch pool scan with incremental folds; this module keeps the scan
alive as a *verifier*.  :func:`verify_cut` recomputes the extended-label
arc matrix from scratch and asserts the accumulator agrees **exactly**
(bit-identical int64 entries, not approximately) — any drift means a
missed or double-counted delta and raises immediately with a diff
summary.

Wired behind the ``IGKway.verify_cut_scan`` attribute (set it to True
on a partitioner, as tests set ``verify_rollback_digest``) and the
property-test suite; it pays the full pool-scan cost per call,
so it is sanitizer-mode machinery, never hot-path.  Along with
:mod:`repro.partition.metrics`, this module is exempt from the
``pool-scan-outside-sanitizer`` lint rule.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bucketlist import BucketListGraph
from repro.partition.metrics import (
    arc_matrix_bucketlist,
    cut_size_bucketlist,
)
from repro.utils.errors import PartitionError


def verify_cut(graph: BucketListGraph, state) -> int:
    """Assert the accumulator's matrix matches a fresh pool scan.

    Args:
        graph: The live bucket-list graph.
        state: The :class:`~repro.partition.state.PartitionState` whose
            ``cut_acc`` to verify.

    Returns:
        The verified cut size (from the scan, which by then equals the
        accumulator's answer).

    Raises:
        PartitionError: On any entry-level disagreement between the
            maintained matrix and the scan, or a cut-size mismatch.
    """
    acc = state.cut_acc
    expected = arc_matrix_bucketlist(graph, state.partition, acc.k)
    maintained = acc.arc_matrix()
    if not np.array_equal(maintained, expected):
        diff = maintained - expected
        bad = np.argwhere(diff != 0)
        sample = ", ".join(
            f"({int(i)},{int(j)}): maintained={int(maintained[i, j])} "
            f"scan={int(expected[i, j])}"
            for i, j in bad[:8]
        )
        raise PartitionError(
            "incremental cut matrix drifted from pool scan: "
            f"{bad.shape[0]} mismatching entries; first: {sample}"
        )
    scan_cut = cut_size_bucketlist(graph, state.partition)
    acc_cut = acc.cut_size()
    if acc_cut != scan_cut:
        raise PartitionError(
            f"incremental cut {acc_cut} != scan cut {scan_cut} "
            "(matrix agrees but reduction drifted)"
        )
    return scan_cut
