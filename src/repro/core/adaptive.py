"""Adaptive hybrid partitioner: incremental with an FGP fallback.

Section VI.C of the paper closes with a deployment recommendation:

    "When the number of graph modifiers exceeds 5K per iteration,
    iG-kway struggles to find a partition with a decent cut size. ...
    In such cases, applications can resort to FGP using G-kway†,
    especially when the number of graph modifiers reaches 50% of the
    graph's size."

:class:`AdaptiveIGKway` implements that policy as a first-class feature:
it runs iG-kway's incremental path by default and transparently falls
back to a full re-partition when either trigger fires:

* **volume trigger** — the modifiers accumulated since the last full
  partitioning exceed ``volume_threshold`` (default 0.5) times the
  current vertex count, or a single batch exceeds
  ``batch_threshold`` times the vertex count;
* **quality trigger** — the incremental cut has drifted more than
  ``drift_threshold`` (default 2x) above the cut measured right after
  the last full partitioning.

A full re-partition resets both triggers.  The class exposes the same
``apply`` interface as :class:`~repro.core.igkway.IGKway`, with the
report noting whether the iteration was incremental or a fallback.

The fallback and the stream layer's escalation rebuild are one method,
:meth:`AdaptiveIGKway.repartition`, that differs between them only in
pool compaction and installs its labels with ``IGKway.install``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.igkway import FullPartitionReport, IGKway, IterationReport
from repro.gpusim.context import GpuContext
from repro.graph.bucketlist import BucketListGraph
from repro.graph.csr import CSRGraph
from repro.graph.modifiers import Modifier
from repro.partition.config import PartitionConfig
from repro.partition.gkway import GKwayPartitioner
from repro.partition.state import UNASSIGNED

#: The trigger thresholds, by constructor argument name.
_THRESHOLDS = ("volume_threshold", "batch_threshold", "drift_threshold")


@dataclass
class AdaptiveReport:
    """Per-iteration outcome, annotating the path taken."""

    iteration: IterationReport
    used_fallback: bool
    fallback_reason: str | None
    modifiers_since_full: int


class AdaptiveIGKway:
    """iG-kway with the paper's recommended FGP fallback policy.

    Args:
        csr: Initial graph (None for a partitioner :meth:`restore`
            wraps around a loaded checkpoint).
        config: Partitioning configuration.
        volume_threshold: Cumulative modifiers (since the last full
            partition) that trigger a fallback, as a fraction of |V|
            (paper: 0.5).
        batch_threshold: Single-batch size that triggers an immediate
            fallback, as a fraction of |V|.
        drift_threshold: Cut-size growth factor over the post-FGP cut
            that triggers a fallback.

    :meth:`as_meta` and :meth:`restore` carry the thresholds and the
    trigger state through checkpoint metadata.
    """

    def __init__(
        self,
        csr: CSRGraph | None,
        config: PartitionConfig,
        ctx: GpuContext | None = None,
        volume_threshold: float = 0.5,
        batch_threshold: float = 0.1,
        drift_threshold: float = 2.0,
        capacity_factor: float = 1.5,
    ):
        if volume_threshold <= 0 or batch_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if drift_threshold <= 1.0:
            raise ValueError("drift_threshold must exceed 1.0")
        self.inner = IGKway(
            csr, config, ctx=ctx, capacity_factor=capacity_factor
        )
        self.volume_threshold = volume_threshold
        self.batch_threshold = batch_threshold
        self.drift_threshold = drift_threshold
        self.modifiers_since_full = 0
        self.reference_cut: int | None = None
        self.fallbacks_taken = 0

    def as_meta(self) -> dict:
        """JSON-able thresholds and trigger state (see :meth:`restore`)."""
        return {
            "volume_threshold": self.volume_threshold,
            "batch_threshold": self.batch_threshold,
            "drift_threshold": self.drift_threshold,
            "modifiers_since_full": self.modifiers_since_full,
            "reference_cut": self.reference_cut,
            "fallbacks_taken": self.fallbacks_taken,
        }

    @classmethod
    def restore(cls, inner: IGKway, meta: dict) -> "AdaptiveIGKway":
        """Wrap a restored :class:`IGKway` (a loaded checkpoint) with the
        thresholds and trigger state :meth:`as_meta` saved; a key
        missing from ``meta`` keeps the constructor's default."""
        adaptive = cls(
            None,
            inner.config,
            ctx=inner.ctx,
            **{key: meta[key] for key in _THRESHOLDS if key in meta},
        )
        adaptive.inner = inner
        adaptive.modifiers_since_full = meta.get("modifiers_since_full", 0)
        adaptive.reference_cut = meta.get("reference_cut")
        adaptive.fallbacks_taken = meta.get("fallbacks_taken", 0)
        return adaptive

    # -- delegation ------------------------------------------------------------

    @property
    def ctx(self) -> GpuContext:
        return self.inner.ctx

    @property
    def config(self) -> PartitionConfig:
        return self.inner.config

    @property
    def partition(self) -> np.ndarray:
        return self.inner.partition

    @property
    def graph(self) -> BucketListGraph | None:
        return self.inner.graph

    def cut_size(self) -> int:
        return self.inner.cut_size()

    def validate(self) -> None:
        self.inner.validate()

    # -- lifecycle -------------------------------------------------------------

    def full_partition(self):
        report = self.inner.full_partition()
        self.reference_cut = report.cut
        self.modifiers_since_full = 0
        return report

    def apply(self, batch: Sequence[Modifier]) -> AdaptiveReport:
        """Apply one batch; fall back to FGP when a trigger fires.

        Volume triggers are evaluated *before* the incremental run (the
        decision the paper recommends applications make up front); the
        quality trigger is evaluated after, scheduling a fallback that
        repairs the partition within the same iteration.
        """
        graph, _state = self.inner._require_partitioned()
        n = max(graph.num_active_vertices(), 1)
        pending = self.modifiers_since_full + len(batch)
        reason = None
        if len(batch) >= self.batch_threshold * n:
            reason = (
                f"batch of {len(batch)} modifiers >= "
                f"{self.batch_threshold:.0%} of |V|={n}"
            )
        elif pending >= self.volume_threshold * n:
            reason = (
                f"{pending} modifiers since last FGP >= "
                f"{self.volume_threshold:.0%} of |V|={n}"
            )

        iteration = self.inner.apply(batch)
        self.modifiers_since_full += len(batch)

        if reason is None and self.reference_cut is not None:
            floor = max(self.reference_cut, 1)
            if iteration.cut > self.drift_threshold * floor:
                reason = (
                    f"cut {iteration.cut} drifted past "
                    f"{self.drift_threshold:.1f}x the post-FGP cut "
                    f"{self.reference_cut}"
                )

        used_fallback = reason is not None
        if used_fallback:
            fgp = self.repartition()
            iteration = dataclasses.replace(
                iteration,
                partitioning_seconds=(
                    iteration.partitioning_seconds + fgp.seconds
                ),
                cut=fgp.cut,
                balanced=fgp.balanced,
            )
        return AdaptiveReport(
            iteration=iteration,
            used_fallback=used_fallback,
            fallback_reason=reason,
            modifiers_since_full=self.modifiers_since_full,
        )

    def repartition(self, compact: bool = False) -> FullPartitionReport:
        """Re-partition the live graph from scratch with G-kway (FGP).

        The graph is compacted to CSR on the host, partitioned at a seed
        that advances with ``iterations_applied``, and the labels are
        projected back onto the live vertex IDs and installed
        (:meth:`IGKway.install`).  Costs are charged to the
        ``partitioning`` section like any other partitioning work.

        By default this is Section VI.C's fallback: the live bucket list
        stays and only the CSR is uploaded.  ``compact=True`` is the
        stream layer's escalation rebuild: the graph is downloaded and
        compacted into a *fresh* bucket list (new pool, new spare-bucket
        headroom, vertex IDs preserved), which is uploaded instead — the
        last resort when incremental application keeps failing, since
        it repairs causes a re-partition cannot, above all an exhausted
        bucket pool.
        """
        inner = self.inner
        graph, _state = inner._require_partitioned()
        ledger = inner.ctx.ledger
        before = ledger.snapshot()
        with ledger.section("partitioning"):
            if compact:
                ledger.charge_d2h(graph.nbytes())
                graph = graph.compacted(
                    gamma=inner.config.gamma,
                    capacity_factor=inner.capacity_factor,
                )
                inner.ctx.reallocate("bucket_list", graph.nbytes())
                inner.ctx.reallocate("partition", 8 * graph.capacity)
            csr, id_map = graph.to_csr()
            ledger.charge_h2d(graph.nbytes() if compact else csr.nbytes())
            result = GKwayPartitioner(
                inner.config, ctx=inner.ctx
            ).partition(
                csr,
                seed=inner.config.seed + inner.iterations_applied,
            )
        seconds = ledger.model.seconds(ledger.total.diff(before))

        labels = np.full(graph.capacity, UNASSIGNED, dtype=np.int64)
        labels[id_map] = result.partition
        inner.install(graph, labels)
        self.reference_cut = result.cut
        self.modifiers_since_full = 0
        self.fallbacks_taken += 1
        return FullPartitionReport(
            seconds=seconds,
            cut=result.cut,
            balanced=result.balanced,
            num_levels=result.num_levels,
        )
