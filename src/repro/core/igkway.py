"""iG-kway: the incremental k-way GPU graph partitioner (public API).

Usage mirrors Figure 2 of the paper::

    from repro import IGKway, PartitionConfig
    from repro.graph import circuit_graph, ModifierBatch, EdgeInsert

    csr = circuit_graph(10_000, 1.3, seed=1)
    partitioner = IGKway(csr, PartitionConfig(k=4))
    partitioner.full_partition()              # G-kway + constrained coarsening
    report = partitioner.apply(ModifierBatch([EdgeInsert(3, 77)]))
    print(report.cut, report.partitioning_seconds)

``full_partition`` runs the multilevel partitioner once and uploads the
graph into the bucket-list structure; every subsequent ``apply`` performs
incremental graph modification (Algorithms 1-2), partition balancing
(Algorithm 3) and parallel refinement (Algorithm 4) entirely "on
device", charging the simulated-GPU cost ledger so runtime estimates can
be compared against the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.balancing import (
    BalanceStats,
    balance_partition,
    charge_boundary_bookkeeping,
)
from repro.core.modification import apply_ops, expand_modifiers
from repro.core.refinement import RefineStats, refine_pseudo
from repro.core.transaction import transaction
from repro.gpusim.context import GpuContext
from repro.gpusim.device import A6000, DeviceSpec
from repro.graph.bucketlist import BucketListGraph
from repro.graph.csr import CSRGraph
from repro.graph.modifiers import Modifier
from repro.partition.config import PartitionConfig
from repro.partition.cutcheck import verify_cut
from repro.partition.gkway import GKwayPartitioner
from repro.partition.state import UNASSIGNED, PartitionState
from repro.utils.errors import PartitionError
from repro.obs import span


@dataclass
class IterationReport:
    """Outcome of one incremental iteration.

    Attributes:
        modification_seconds: Modeled GPU time of the modifier kernels.
        partitioning_seconds: Modeled GPU time of balancing+refinement.
        cut: Weighted cut size after the iteration.
        balanced: Whether the balance constraint holds.
        balance_stats / refine_stats: Kernel diagnostics.
        applied_modifiers: Modifiers in the batch this report covers
            (after any coalescing upstream of the partitioner).
        cut_maintenance_seconds: Modeled GPU time of the incremental
            cut-update kernel (proportional to arcs touched by the
            batch, never to pool size).
    """

    modification_seconds: float
    partitioning_seconds: float
    cut: int
    balanced: bool
    balance_stats: BalanceStats
    refine_stats: RefineStats
    applied_modifiers: int = 0
    cut_maintenance_seconds: float = 0.0


@dataclass
class FullPartitionReport:
    """Outcome of the initial full partitioning."""

    seconds: float
    cut: int
    balanced: bool
    num_levels: int


class IGKway:
    """Incremental k-way graph partitioner on the simulated GPU.

    Args:
        csr: The initial graph (None only for a partitioner restored
            by :meth:`from_state`, which has nothing to fully
            partition).
        config: Partitioning configuration (k, epsilon, gamma, mode, ...).
        ctx: Optional shared GPU context; a fresh one is created if
            omitted.
        device: Device spec for the fresh context.
        capacity_factor: Vertex-ID headroom for future insertions.
    """

    def __init__(
        self,
        csr: CSRGraph | None,
        config: PartitionConfig,
        ctx: GpuContext | None = None,
        device: DeviceSpec = A6000,
        capacity_factor: float = 1.5,
    ):
        self.initial_csr = csr
        self.config = config
        self.ctx = ctx if ctx is not None else GpuContext(device)
        self.capacity_factor = capacity_factor
        self.graph: BucketListGraph | None = None
        self.state: PartitionState | None = None
        self.iterations_applied = 0
        #: When True, every transactional rollback re-hashes the state
        #: and raises TransactionError on a digest mismatch (tests and
        #: the chaos harness; costs a full state hash per batch).
        self.verify_rollback_digest = False
        #: Sanitizer mode: after every batch, assert the incremental cut
        #: matrix equals a ground-truth pool scan (pays the full scan
        #: the accumulator exists to avoid).
        self.verify_cut_scan = False

    @classmethod
    def from_state(
        cls,
        graph: BucketListGraph,
        partition: np.ndarray,
        config: PartitionConfig,
        iterations_applied: int,
        ctx: GpuContext | None = None,
    ) -> "IGKway":
        """Resume from restored device state (a loaded checkpoint).

        The result continues exactly where the saved partitioner
        stopped, with a fresh cost ledger and a cut accumulator
        bootstrapped from the restored graph (:meth:`install`).  It
        keeps no initial CSR, so :meth:`full_partition` raises;
        re-partitioning the live graph is
        :class:`~repro.core.adaptive.AdaptiveIGKway`'s job.
        """
        partitioner = cls(None, config, ctx=ctx)
        partitioner.install(graph, partition)
        partitioner.iterations_applied = iterations_applied
        return partitioner

    def install(self, graph: BucketListGraph, partition: np.ndarray) -> None:
        """Make ``partition`` the live labelling of ``graph``.

        Every from-scratch or loaded partition enters here: the initial
        full partition, a checkpoint load, and the adaptive fallback
        and escalation rebuild.  The state snapshots ``graph.vwgt``
        (weights of vertices inserted later reach it through the
        balancing kernel in modifier order), and the incremental cut
        accumulator is bootstrapped from one uncharged pool scan, so
        the next batch folds and charges its cut updates whether or
        not anything reads the cut first.
        """
        self.graph = graph
        self.state = PartitionState(
            graph, partition, self.config.k, self.config.epsilon
        )

    # -- stage 1: full partitioning -------------------------------------------

    def full_partition(self) -> FullPartitionReport:
        """Run G-kway with constrained coarsening; upload the bucket list."""
        if self.initial_csr is None:
            raise PartitionError(
                "full_partition() needs the initial graph; this "
                "partitioner was restored from device state"
            )
        ledger = self.ctx.ledger
        before = ledger.snapshot()
        with ledger.section("full_partitioning"), span("full-partition"):
            result = GKwayPartitioner(self.config, ctx=self.ctx).partition(
                self.initial_csr
            )
            graph = BucketListGraph.from_csr(
                self.initial_csr,
                gamma=self.config.gamma,
                capacity_factor=self.capacity_factor,
            )
            # Register the pre-allocated device structures (Section V.A:
            # "we pre-allocate a large block of memory").
            self.ctx.reallocate("bucket_list", graph.nbytes())
            self.ctx.reallocate("partition", 8 * graph.capacity)
            ledger.charge_h2d(graph.nbytes())
        seconds = ledger.model.seconds(ledger.total.diff(before))

        partition = np.full(graph.capacity, UNASSIGNED, dtype=np.int64)
        partition[: self.initial_csr.num_vertices] = result.partition
        self.install(graph, partition)
        return FullPartitionReport(
            seconds=seconds,
            cut=result.cut,
            balanced=result.balanced,
            num_levels=result.num_levels,
        )

    # -- stage 2: incremental partitioning --------------------------------------

    def apply(
        self, batch: Sequence[Modifier], transactional: bool = True
    ) -> IterationReport:
        """Apply one modifier batch and incrementally refine (Figure 2).

        By default the batch runs inside a transaction: if any modifier
        fails (``ModifierError``, ``CapacityError``, ...) the bucket-list
        graph and partition state are rolled back bit-identically to
        their pre-batch values before the error propagates, so a bad
        batch can never leave the partitioner corrupted.  Pass
        ``transactional=False`` to skip the undo machinery (callers that
        already validated the batch and manage their own recovery).
        """
        graph, state = self._require_partitioned()
        if not transactional:
            return self._apply_inner(batch)
        with transaction(
            graph,
            state,
            ctx=self.ctx,
            verify_digest=self.verify_rollback_digest,
        ):
            return self._apply_inner(batch)

    def _apply_inner(self, batch: Sequence[Modifier]) -> IterationReport:
        graph, state = self._require_partitioned()
        ledger = self.ctx.ledger

        with span("apply.batch"):
            before_mod = ledger.snapshot()
            with ledger.section("modification"), span("modifiers"):
                ops = expand_modifiers(graph, batch)
                # Fold the arcs the walk changed only once every kernel
                # has committed: a failed batch folds nothing.
                added, removed = apply_ops(
                    self.ctx, graph, ops, mode=self.config.mode
                )
                state.cut_acc.fold_arcs(state.partition, added, removed)
            mod_seconds = ledger.model.seconds(
                ledger.total.diff(before_mod)
            )

            before_part = ledger.snapshot()
            with ledger.section("partitioning"):
                with span("balance"):
                    buffer, balance_stats = balance_partition(
                        self.ctx, graph, state, ops, mode=self.config.mode
                    )
                with span("refine"):
                    refine_stats = refine_pseudo(
                        self.ctx,
                        graph,
                        state,
                        buffer,
                        mode=self.config.mode,
                        max_rounds=self.config.max_incremental_rounds,
                    )
                with span("bookkeeping"):
                    charge_boundary_bookkeeping(self.ctx, graph)
            part_seconds = ledger.model.seconds(
                ledger.total.diff(before_part)
            )

            before_cut = ledger.snapshot()
            with ledger.section("cut_maintenance"), span("cut-size"):
                cut = self.cut_size()
                self._charge_cut_maintenance()
            cut_seconds = ledger.model.seconds(
                ledger.total.diff(before_cut)
            )
            if self.verify_cut_scan:
                with span("verify-cut"):
                    verify_cut(graph, state)
        self.iterations_applied += 1
        return IterationReport(
            modification_seconds=mod_seconds,
            partitioning_seconds=part_seconds,
            cut=cut,
            balanced=state.balanced(),
            balance_stats=balance_stats,
            refine_stats=refine_stats,
            applied_modifiers=len(batch),
            cut_maintenance_seconds=cut_seconds,
        )

    def _charge_cut_maintenance(self) -> None:
        """Charge the modeled device cost of the batch's cut updates.

        One atomic scatter-add per touched arc direction, 32 arcs per
        warp — work proportional to what the batch moved or modified,
        never to the pool.  Drains the accumulator's touched-arc
        counter, so each arc is charged exactly once even when reads
        and batches interleave.
        """
        _graph, state = self._require_partitioned()
        arcs = state.cut_acc.take_touched()
        if arcs == 0:
            return
        ledger = self.ctx.ledger
        with ledger.kernel("cut-update"):
            self.ctx.charge_wavefront(
                math.ceil(arcs / 32),
                instructions_per_warp=4,
                transactions_per_warp=2,
            )
            ledger.charge_atomics(arcs)

    def settle_cut_maintenance(self) -> None:
        """Charge any not-yet-drained cut-update work (checkpoint barrier).

        Checkpoints omit the cut accumulator (loading bootstraps a
        fresh one), which silently drops its touched-arc charge
        liability.  Draining it immediately before serialization makes
        the checkpoint a charge boundary: the cycles land on the live run's
        pre-checkpoint side, and a recovered replay — whose restored
        accumulator starts with zero touched arcs — re-derives exactly
        the post-checkpoint remainder.
        """
        self._charge_cut_maintenance()

    # -- queries --------------------------------------------------------------------

    @property
    def partition(self) -> np.ndarray:
        """Current per-vertex labels (UNASSIGNED for deleted vertices)."""
        _graph, state = self._require_partitioned()
        return state.partition

    def cut_size(self) -> int:
        """Exact weighted cut of the current (modified) graph.

        O(k^2) from the incrementally maintained cut matrix, which
        every installed partition bootstraps (:meth:`install`); no read
        scans the pool.
        """
        _graph, state = self._require_partitioned()
        return state.cut_acc.cut_size()

    def cut_matrix(self) -> np.ndarray:
        """``k x k`` inter-partition cut-weight matrix (O(k^2) read)."""
        _graph, state = self._require_partitioned()
        return state.cut_acc.cut_matrix()

    def validate(self) -> None:
        """Check graph and partition invariants (tests / debugging)."""
        graph, state = self._require_partitioned()
        graph.validate()
        active = np.zeros(graph.capacity, dtype=bool)
        active[graph.active_vertices()] = True
        state.validate(active_mask=active)

    def _require_partitioned(
        self,
    ) -> tuple[BucketListGraph, PartitionState]:
        if self.graph is None or self.state is None:
            raise PartitionError(
                "call full_partition() before applying modifiers"
            )
        return self.graph, self.state
