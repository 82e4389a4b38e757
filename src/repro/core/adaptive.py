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
"""

from __future__ import annotations

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
from repro.partition.state import UNASSIGNED, PartitionState


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
        csr: Initial graph.
        config: Partitioning configuration.
        volume_threshold: Cumulative modifiers (since the last full
            partition) that trigger a fallback, as a fraction of |V|
            (paper: 0.5).
        batch_threshold: Single-batch size that triggers an immediate
            fallback, as a fraction of |V|.
        drift_threshold: Cut-size growth factor over the post-FGP cut
            that triggers a fallback.
    """

    def __init__(
        self,
        csr: CSRGraph,
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

    @classmethod
    def from_inner(
        cls,
        inner: IGKway,
        volume_threshold: float = 0.5,
        batch_threshold: float = 0.1,
        drift_threshold: float = 2.0,
    ) -> "AdaptiveIGKway":
        """Wrap an existing (possibly restored) :class:`IGKway`.

        Used by checkpoint recovery (:mod:`repro.stream.journal`): the
        inner partitioner already carries live graph and partition
        state, so no fresh :class:`IGKway` must be constructed.  Trigger
        counters start reset; callers restore them from checkpoint
        metadata.
        """
        adaptive = cls.__new__(cls)
        if volume_threshold <= 0 or batch_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if drift_threshold <= 1.0:
            raise ValueError("drift_threshold must exceed 1.0")
        adaptive.inner = inner
        adaptive.volume_threshold = volume_threshold
        adaptive.batch_threshold = batch_threshold
        adaptive.drift_threshold = drift_threshold
        adaptive.modifiers_since_full = 0
        adaptive.reference_cut = None
        adaptive.fallbacks_taken = 0
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
            iteration = self._fallback(iteration)
        return AdaptiveReport(
            iteration=iteration,
            used_fallback=used_fallback,
            fallback_reason=reason,
            modifiers_since_full=self.modifiers_since_full,
        )

    def full_rebuild(self) -> FullPartitionReport:
        """Escalation path: rebuild the device structures from scratch.

        Unlike :meth:`_fallback` (which re-partitions but keeps the live
        bucket list), this compacts the current graph into a *fresh*
        bucket-list graph — new pool, new spare-bucket headroom, vertex
        IDs preserved — then runs FGP on it.  This is the stream
        layer's last resort when incremental application keeps
        failing: it repairs failure causes a re-partition cannot, above
        all an exhausted bucket pool.
        """
        inner = self.inner
        graph, _state = inner._require_partitioned()
        ledger = inner.ctx.ledger
        before = ledger.snapshot()
        with ledger.section("partitioning"):
            ledger.charge_d2h(graph.nbytes())
            new_graph = graph.compacted(
                gamma=inner.config.gamma,
                capacity_factor=inner.capacity_factor,
            )
            inner.ctx.reallocate("bucket_list", new_graph.nbytes())
            inner.ctx.reallocate("partition", 8 * new_graph.capacity)
            ledger.charge_h2d(new_graph.nbytes())
            csr, id_map = new_graph.to_csr()
            result = GKwayPartitioner(
                inner.config, ctx=inner.ctx
            ).partition(
                csr,
                seed=inner.config.seed + inner.iterations_applied,
            )
        seconds = ledger.model.seconds(ledger.total.diff(before))

        fresh = np.full(new_graph.capacity, UNASSIGNED, dtype=np.int64)
        fresh[id_map] = result.partition
        inner.graph = new_graph
        inner.state = PartitionState(
            fresh, new_graph.vwgt, inner.config.k, inner.config.epsilon
        )
        self.reference_cut = result.cut
        self.modifiers_since_full = 0
        self.fallbacks_taken += 1
        return FullPartitionReport(
            seconds=seconds,
            cut=result.cut,
            balanced=result.balanced,
            num_levels=result.num_levels,
        )

    def _fallback(self, incremental: IterationReport) -> IterationReport:
        """Re-partition the current graph from scratch on device.

        The modified graph is compacted to CSR (host-side), repartitioned
        with G-kway, and the labels are projected back onto the live
        bucket-list IDs.  Costs are charged to the ``partitioning``
        section like any other partitioning work.
        """
        inner = self.inner
        graph, state = inner._require_partitioned()
        ledger = inner.ctx.ledger
        before = ledger.snapshot()
        with ledger.section("partitioning"):
            csr, id_map = graph.to_csr()
            ledger.charge_h2d(csr.nbytes())
            result = GKwayPartitioner(
                inner.config, ctx=inner.ctx
            ).partition(
                csr,
                seed=inner.config.seed + inner.iterations_applied,
            )
        fgp_seconds = ledger.model.seconds(ledger.total.diff(before))

        fresh = np.full(graph.capacity, UNASSIGNED, dtype=np.int64)
        fresh[id_map] = result.partition
        inner.state = PartitionState(
            fresh, graph.vwgt, inner.config.k, inner.config.epsilon
        )
        self.reference_cut = result.cut
        self.modifiers_since_full = 0
        self.fallbacks_taken += 1
        return IterationReport(
            modification_seconds=incremental.modification_seconds,
            partitioning_seconds=(
                incremental.partitioning_seconds + fgp_seconds
            ),
            cut=result.cut,
            balanced=result.balanced,
            balance_stats=incremental.balance_stats,
            refine_stats=incremental.refine_stats,
            applied_modifiers=incremental.applied_modifiers,
            cut_maintenance_seconds=incremental.cut_maintenance_seconds,
        )
