"""The streaming partition service: one live, recoverable session.

``StreamSession`` turns the repo's batch-replay partitioner into a
*service*: producers push modifiers through a bounded ingest queue; the
coalescer collapses redundant work; the scheduler flushes well-sized
batches into :class:`~repro.core.adaptive.AdaptiveIGKway` (so the
paper's volume/quality fallback is driven by the stream, not the
caller); and an optional journal makes the whole pipeline crash
recoverable — ``StreamSession.recover(path)`` lands bit-identical to
the uninterrupted run.

A producer's request is ingested in one pass by :meth:`submit_many`:
every modifier is sequenced, counted and charged exactly as if it were
submitted alone, but the journal gets one write per request (one more
before each flush the request triggers).

Quickstart::

    from repro.stream import StreamSession
    from repro.graph import circuit_graph, EdgeInsert
    from repro import PartitionConfig

    session = StreamSession(
        circuit_graph(5_000, 1.3, seed=1),
        PartitionConfig(k=4),
        journal_dir="run/journal",
    )
    session.start()
    session.submit(EdgeInsert(3, 77))     # queued, journaled
    session.submit_many(mods)             # one journal write for all
    ...                                    # scheduler flushes adaptively
    session.drain()                        # force everything through
    print(session.metrics()["cut_drift"])
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Collection, List, Optional, Sequence, Tuple

from repro.core.adaptive import AdaptiveIGKway, AdaptiveReport
from repro.core.igkway import FullPartitionReport
from repro.gpusim.context import GpuContext
from repro.graph.csr import CSRGraph
from repro.graph.modifiers import Modifier, ModifierBatch
from repro.obs import MetricsRegistry, span
from repro.partition.config import PartitionConfig
from repro.stream.coalescer import Coalescer
from repro.stream.ingest import IngestQueue, SequencedModifier
from repro.stream.journal import StreamJournal
from repro.stream.quarantine import Quarantine
from repro.stream.scheduler import (
    BatchScheduler,
    SchedulerConfig,
    ledger_cycles,
)
from repro.stream.telemetry import StreamTelemetry
from repro.utils.errors import (
    BackpressureError,
    CapacityError,
    JournalError,
    ModifierError,
    StreamError,
)

#: (seq, modifier, error message) for a modifier pulled out of a window.
PoisonEntry = Tuple[int, Modifier, str]


@dataclass(frozen=True)
class StreamBatchReport:
    """Outcome of one flushed window."""

    first_seq: int
    last_seq: int
    reason: str
    raw_count: int
    applied_count: int
    coalesce_stats: dict
    cut: int
    used_fallback: bool
    fallback_reason: Optional[str]
    modeled_seconds: float
    #: Poison modifiers this window parked for retry.
    quarantined_count: int = 0
    #: Poison modifiers permanently rejected (quarantine overflow).
    dead_lettered_count: int = 0
    #: Previously quarantined modifiers that re-applied cleanly after
    #: this window.
    recovered_count: int = 0
    #: True when any failure handling ran (poison isolation, quarantine
    #: traffic, or an escalation rebuild).
    degraded: bool = False


class StreamSession:
    """Coalescing, adaptively scheduled, checkpointed partition stream.

    Args:
        csr: Initial graph.
        config: Partitioning configuration.
        ctx: Optional shared GPU context.
        journal_dir: Directory for the recovery journal; None disables
            durability (no checkpoints, no crash recovery).  A
            directory that holds a checkpoint is refused with
            :class:`JournalError`: it belongs to another session, which
            :meth:`recover` revives.
        queue_capacity / policy: Ingest bound and backpressure policy
            (``"block"`` flushes on the producer's behalf; ``"reject"``
            raises :class:`BackpressureError`).
        scheduler: Flush policy (:class:`SchedulerConfig`); the default
            derives the size trigger from the adaptive batch threshold.
        checkpoint_every: Checkpoint after this many flushes (0
            disables periodic checkpoints; the initial one is always
            written when a journal is configured).
        volume_threshold / batch_threshold / drift_threshold: Fallback
            triggers, forwarded to :class:`AdaptiveIGKway`.
        max_quarantine: Bound on simultaneously quarantined poison
            modifiers; overflow is dead-lettered immediately.
        quarantine_max_attempts / quarantine_backoff_cycles: Retry
            budget and base backoff delay for quarantined modifiers.
        escalate_after: Consecutive failing windows before the session
            escalates to a full device-structure rebuild
            (:meth:`AdaptiveIGKway.repartition` with ``compact=True``).

    Scheduler deadlines and quarantine backoff read the session's own
    cost ledger (:func:`~repro.stream.scheduler.ledger_cycles`), so
    nothing depends on wall time or on another session's ledger.
    """

    def __init__(
        self,
        csr: CSRGraph,
        config: PartitionConfig,
        ctx: GpuContext | None = None,
        journal_dir: "str | Path | None" = None,
        queue_capacity: int = 4096,
        policy: str = "block",
        scheduler: SchedulerConfig | None = None,
        checkpoint_every: int = 8,
        volume_threshold: float = 0.5,
        batch_threshold: float = 0.1,
        drift_threshold: float = 2.0,
        max_quarantine: int = 64,
        quarantine_max_attempts: int = 4,
        quarantine_backoff_cycles: float = 1e6,
        escalate_after: int = 3,
    ):
        journal = (
            StreamJournal(journal_dir) if journal_dir is not None else None
        )
        if journal is not None and journal.exists():
            raise JournalError(
                f"{journal_dir} holds the checkpoint of another session: "
                "revive it with StreamSession.recover, or start in an "
                "empty directory"
            )
        partitioner = AdaptiveIGKway(
            csr,
            config,
            ctx=ctx,
            volume_threshold=volume_threshold,
            batch_threshold=batch_threshold,
            drift_threshold=drift_threshold,
        )
        self._init_parts(
            partitioner,
            journal,
            IngestQueue(capacity=queue_capacity, policy=policy),
            scheduler,
            checkpoint_every,
            Quarantine(
                capacity=max_quarantine,
                max_attempts=quarantine_max_attempts,
                backoff_cycles=quarantine_backoff_cycles,
            ),
            escalate_after,
        )

    def _init_parts(
        self,
        partitioner: AdaptiveIGKway,
        journal: Optional[StreamJournal],
        queue: IngestQueue,
        scheduler: SchedulerConfig | None,
        checkpoint_every: int,
        quarantine: Quarantine,
        escalate_after: int,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if escalate_after < 1:
            raise ValueError("escalate_after must be >= 1")
        self.partitioner = partitioner
        self.queue = queue
        self.coalescer = Coalescer()
        self.scheduler = BatchScheduler(scheduler)
        self.journal = journal
        self.checkpoint_every = checkpoint_every
        self.telemetry = StreamTelemetry()
        #: Session-scoped metrics registry: telemetry snapshots,
        #: scheduler trigger counts, quarantine depth and batch-latency
        #: histograms all land here.  Export with :meth:`prometheus`
        #: (text exposition) or ``session.obs.as_dict()`` (flat JSON).
        self.obs = MetricsRegistry()
        self.scheduler.bind_metrics(self.obs)
        self._batch_seconds = self.obs.histogram(
            "stream_batch_modeled_seconds",
            "modeled GPU seconds per flushed window",
            buckets=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0),
        )
        self.quarantine = quarantine
        self.quarantine.bind_metrics(self.obs)
        self.escalate_after = escalate_after
        #: Called at every checkpoint, just before the write; the
        #: JSON-able dict it returns is saved in that checkpoint's
        #: stream metadata, so it always matches the checkpoint cursor
        #: (a checkpoint can fire mid-flush via ``checkpoint_every``,
        #: which an after-the-op observer cannot see).  The serve
        #: registry keeps there what it must know of a session after a
        #: crash.
        self.on_checkpoint: Optional[Callable[[], dict]] = None
        #: The ``on_checkpoint`` dict of the checkpoint :meth:`recover`
        #: loaded (empty for a session that was not recovered, or whose
        #: checkpoint had no hook).
        self.host_meta: dict = {}
        self.applied_seq = -1
        self._consecutive_failures = 0
        self._flushes_since_checkpoint = 0
        self._window_opened_cycles: Optional[float] = None
        self._started = False
        self._suspended = False

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> FullPartitionReport:
        """Run the initial full partitioning; write the first checkpoint."""
        if self._started:
            raise StreamError("session already started")
        report = self.partitioner.full_partition()
        self._started = True
        self.telemetry.record_full_partition(report.cut, report.seconds)
        if self.journal is not None:
            self.checkpoint()
        return report

    def suspend(self) -> None:
        """Checkpoint and park the session so it can leave memory.

        The cheap half of eviction: everything the engine needs lands in
        the journal (checkpoint + the logged-but-unflushed suffix), the
        journal's file handle is released, and the object refuses
        further streaming calls.  Unlike :meth:`close`, the pending
        queue is *not* drained — the queued suffix is replayed by
        :meth:`recover`, so a suspended-and-recovered session flushes
        the exact same windows an uninterrupted one would have.
        """
        if self.journal is None:
            raise StreamError(
                "cannot suspend a session without a journal"
            )
        self._require_started()
        self.checkpoint()
        self.journal.close()
        self._suspended = True

    def close(self) -> Optional[StreamBatchReport]:
        """Flush everything pending, checkpoint, release the journal."""
        last = None
        if self._started:
            for report in self.drain():
                last = report
            if self.journal is not None:
                self.checkpoint()
        if self.journal is not None:
            self.journal.close()
        return last

    def __enter__(self) -> "StreamSession":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif self.journal is not None:
            self.journal.close()

    # -- ingest --------------------------------------------------------------------

    def submit(self, modifier: Modifier) -> int:
        """Accept one modifier; returns its journal sequence number."""
        return self.submit_many([modifier])[0]

    def submit_many(self, modifiers: Sequence[Modifier]) -> List[int]:
        """Accept modifiers in order; returns their sequence numbers.

        Exactly equivalent to submitting them one at a time — the same
        sequence numbers, flush points, telemetry, ledger counters and
        journal bytes — but the records accepted between two flush
        triggers reach the journal in one write, and the ingest host
        ops (one per modifier) are charged in bulk before anything
        reads the clock or flushes.

        May synchronously flush (backpressure under the ``"block"``
        policy, or a scheduler trigger firing).  Raises
        :class:`BackpressureError` when full under ``"reject"``; the
        modifiers accepted before that one stay queued and journaled.
        """
        self._require_started()
        queue = self.queue
        ledger = self.partitioner.ctx.ledger
        has_deadline = self.scheduler.config.max_latency_cycles is not None
        accepted: List[Tuple[int, Modifier]] = []
        # Accepted modifiers are charged (one host op each) before
        # anything reads the clock or flushes, and journaled before any
        # flush, error or return: the ledger and the log then read as
        # if each modifier had been submitted alone.
        charged = journaled = 0

        def charge() -> None:
            nonlocal charged
            if len(accepted) > charged:
                with ledger.section("stream_ingest"):
                    ledger.charge_host_ops(len(accepted) - charged)
                charged = len(accepted)

        def log() -> None:
            nonlocal journaled
            charge()
            entries = accepted[journaled:]
            journaled = len(accepted)
            if entries and self.journal is not None:
                self.journal.log_modifiers(entries)

        # The size target reads the live vertex count, which only an
        # applied window changes: compute it once, and again after a
        # flush.
        target: Optional[int] = None
        try:
            for modifier in modifiers:
                if queue.is_full():
                    if queue.policy != "block":
                        self.telemetry.record_reject()
                        raise BackpressureError(
                            f"ingest queue full "
                            f"({queue.capacity} pending modifiers)"
                        )
                    log()
                    self.flush(reason="backpressure")
                    target = None
                was_empty = queue.is_empty()
                seq = queue.offer(modifier)
                accepted.append((seq, modifier))
                self.telemetry.record_ingest(queue.depth)
                if was_empty:
                    charge()
                    self._window_opened_cycles = self._clock()
                if target is None:
                    target = self.scheduler.size_target(self.partitioner)
                if queue.depth < target and not has_deadline:
                    continue  # should_flush would return None
                charge()
                while True:
                    reason = self.scheduler.should_flush(
                        self.partitioner,
                        queue.depth,
                        self._window_opened_cycles,
                        self._clock(),
                    )
                    if reason is None:
                        break
                    log()
                    self.flush(reason=reason)
                    target = None
        finally:
            log()
        return [seq for seq, _modifier in accepted]

    # -- flushing ------------------------------------------------------------------

    def flush(self, reason: str = "explicit") -> Optional[StreamBatchReport]:
        """Coalesce and apply one window (at most the size target).

        Returns None when nothing is pending.  Use :meth:`drain` to
        force the entire backlog through.
        """
        self._require_started()
        window = self.queue.drain(
            self.scheduler.size_target(self.partitioner)
        )
        if not window:
            return None
        return self._apply_window(window, reason)

    def drain(self) -> List[StreamBatchReport]:
        """Flush until the queue is empty; returns the batch reports."""
        reports = []
        while not self.queue.is_empty():
            report = self.flush(reason="explicit")
            if report is not None:
                reports.append(report)
        return reports

    def _apply_window(
        self,
        window: List[SequencedModifier],
        reason: str,
        excluded: Collection[int] = (),
    ) -> StreamBatchReport:
        with span("stream.apply-window", batch=window[0].seq):
            return self._apply_window_inner(window, reason, excluded)

    def _apply_window_inner(
        self,
        window: List[SequencedModifier],
        reason: str,
        excluded: Collection[int],
    ) -> StreamBatchReport:
        result = self.coalescer.collapse(window)
        applied_count = 0
        poison: List[PoisonEntry] = []
        if len(result.batch):
            entries = list(zip(result.seqs, result.batch))
            if excluded:
                # A replayed window: the survivors its flush record
                # excludes were found poison when it was journaled, so
                # they take the poison path without re-running the
                # failed attempts.
                poison = [
                    (seq, modifier, "re-quarantined during replay")
                    for seq, modifier in entries
                    if seq in excluded
                ]
                entries = [e for e in entries if e[0] not in excluded]
            applied_count, reports, found = self._apply_entries(entries)
            poison += found
            if reports:
                cut = reports[-1].iteration.cut
                used_fallback = any(r.used_fallback for r in reports)
                fallback_reason = next(
                    (
                        r.fallback_reason
                        for r in reversed(reports)
                        if r.fallback_reason
                    ),
                    None,
                )
                seconds = sum(
                    r.iteration.modification_seconds
                    + r.iteration.partitioning_seconds
                    for r in reports
                )
            else:
                # Every survivor was poison; the graph is untouched
                # (transactional rollback), so the cut is unchanged.
                cut = self.partitioner.cut_size()
                used_fallback = False
                fallback_reason = None
                seconds = 0.0
        else:
            # The whole window coalesced away: nothing reaches the GPU.
            cut = (
                self.telemetry.last_cut
                if self.telemetry.last_cut is not None
                else self.partitioner.cut_size()
            )
            used_fallback = False
            fallback_reason = None
            seconds = 0.0

        dead_lettered = 0
        if poison:
            self.telemetry.record_batch_failure()
            self._consecutive_failures += 1
            now = self._clock()
            for seq, modifier, error in poison:
                if self.quarantine.add(seq, modifier, error, now):
                    self.telemetry.record_quarantined()
                else:
                    self._dead_letter(seq, modifier, error)
                    dead_lettered += 1
        elif len(result.batch):
            self._consecutive_failures = 0

        self.applied_seq = result.last_seq
        self._window_opened_cycles = (
            self._clock() if not self.queue.is_empty() else None
        )
        self.telemetry.record_batch(
            reason=reason,
            raw_count=result.raw_count,
            applied_count=applied_count,
            cut=cut,
            used_fallback=used_fallback,
            modeled_seconds=seconds,
            queue_depth=self.queue.depth,
            removed_count=len(poison),
        )
        self._batch_seconds.observe(seconds)
        self.telemetry.publish_to(self.obs)
        self._flushes_since_checkpoint += 1
        if self.journal is not None:
            self.journal.log_flush(
                result.first_seq,
                result.last_seq,
                reason,
                excluded=[seq for seq, _m, _e in poison],
            )
        # Degraded windows are checkpoint barriers: recovery must never
        # re-run the failure, only its outcome.
        if poison or (
            self.checkpoint_every
            and self._flushes_since_checkpoint >= self.checkpoint_every
        ):
            self._reach_checkpoint()

        escalated = False
        if poison and self._consecutive_failures >= self.escalate_after:
            self._escalate()
            escalated = True
        recovered = 0
        if len(self.quarantine):
            recovered = self.retry_quarantine(force=escalated)
        return StreamBatchReport(
            first_seq=result.first_seq,
            last_seq=result.last_seq,
            reason=reason,
            raw_count=result.raw_count,
            applied_count=applied_count,
            coalesce_stats=result.stats,
            cut=cut,
            used_fallback=used_fallback,
            fallback_reason=fallback_reason,
            modeled_seconds=seconds,
            quarantined_count=len(poison) - dead_lettered,
            dead_lettered_count=dead_lettered,
            recovered_count=recovered,
            degraded=bool(poison) or escalated or recovered > 0,
        )

    # -- failure handling ----------------------------------------------------------

    def _apply_entries(
        self, entries: List[Tuple[int, Modifier]]
    ) -> Tuple[int, List[AdaptiveReport], List[PoisonEntry]]:
        """Apply ``(seq, modifier)`` entries, isolating poison modifiers.

        The happy path is a single transactional
        :meth:`AdaptiveIGKway.apply` of the whole batch.  On failure the
        partitioner has already rolled back; the poison is then isolated
        and the healthy remainder re-applied:

        * **fast path** — when the error carries ``modifier_index``
          (every expansion-level rejection does), that one modifier is
          removed and the rest retried in a loop;
        * **bisection** — an unindexed mid-batch failure (capacity
          exhaustion, injected aborts) splits the batch into contiguous
          halves, recursing until the poison is singled out.  Submission
          order is preserved throughout (left half before right).

        Returns ``(applied_count, adaptive_reports, poison_entries)``.
        No healthy modifier is ever dropped: every entry ends up either
        applied or in the poison list.
        """
        applied = 0
        reports: List[AdaptiveReport] = []
        poison: List[PoisonEntry] = []
        remaining = list(entries)
        while remaining:
            batch = ModifierBatch([m for _seq, m in remaining])
            try:
                report = self.partitioner.apply(batch)
            except (ModifierError, CapacityError) as err:
                index = getattr(err, "modifier_index", None)
                if index is not None and 0 <= index < len(remaining):
                    seq, modifier = remaining.pop(index)
                    poison.append((seq, modifier, str(err)))
                    continue
                if len(remaining) == 1:
                    seq, modifier = remaining[0]
                    poison.append((seq, modifier, str(err)))
                    break
                self.telemetry.record_bisection()
                mid = len(remaining) // 2
                a1, r1, p1 = self._apply_entries(remaining[:mid])
                a2, r2, p2 = self._apply_entries(remaining[mid:])
                applied += a1 + a2
                reports.extend(r1 + r2)
                poison.extend(p1 + p2)
                break
            else:
                applied += len(remaining)
                reports.append(report)
                break
        return applied, reports, poison

    def _dead_letter(self, seq: int, modifier: Modifier, error: str) -> None:
        """Permanently reject a modifier, leaving a durable trace."""
        if self.journal is not None:
            self.journal.log_dead_letter(seq, modifier, error)
        self.telemetry.record_dead_letter()

    def retry_quarantine(self, force: bool = False) -> int:
        """Retry quarantined modifiers whose backoff has elapsed.

        Each success re-applies the modifier (counted as a
        ``quarantine_retry`` batch); each failure doubles the entry's
        backoff until its attempt budget runs out and it is
        dead-lettered.  ``force`` retries everything regardless of
        backoff — used right after an escalation rebuild.  Any change
        to the quarantine is made durable immediately (quarantine
        transitions are checkpoint barriers).  Returns the number of
        recovered modifiers.
        """
        recovered = 0
        changed = False
        for entry in self.quarantine.due(self._clock(), force=force):
            try:
                report = self.partitioner.apply(
                    ModifierBatch([entry.modifier])
                )
            except (ModifierError, CapacityError) as err:
                changed = True
                if self.quarantine.record_failure(
                    entry, str(err), self._clock()
                ):
                    self.quarantine.remove(entry.seq)
                    self._dead_letter(entry.seq, entry.modifier, str(err))
            else:
                changed = True
                self.quarantine.remove(entry.seq)
                recovered += 1
                self.telemetry.record_quarantine_recovered()
                self.telemetry.record_batch(
                    reason="quarantine_retry",
                    raw_count=1,
                    applied_count=1,
                    cut=report.iteration.cut,
                    used_fallback=report.used_fallback,
                    modeled_seconds=(
                        report.iteration.modification_seconds
                        + report.iteration.partitioning_seconds
                    ),
                    queue_depth=self.queue.depth,
                )
        if changed:
            self._reach_checkpoint()
        return recovered

    def _escalate(self) -> None:
        """Full device-structure rebuild after repeated window failures.

        :meth:`AdaptiveIGKway.repartition` with ``compact=True``
        constructs a fresh bucket list (new pool) and re-runs FGP — the
        only recovery that fixes structural causes like an exhausted
        bucket pool.
        """
        self.telemetry.record_escalation()
        report = self.partitioner.repartition(compact=True)
        self.telemetry.record_full_partition(report.cut, report.seconds)
        self._consecutive_failures = 0
        self._reach_checkpoint()

    # -- durability ----------------------------------------------------------------

    def _reach_checkpoint(self) -> None:
        """Checkpoint where a journaled run must.  Without a journal
        (also in a replay, which runs detached from it) only restart
        the count toward ``checkpoint_every``, as that checkpoint did."""
        if self.journal is not None:
            self.checkpoint()
        else:
            self._flushes_since_checkpoint = 0

    def checkpoint(self) -> None:
        """Write a durable checkpoint and compact the journal."""
        if self.journal is None:
            raise StreamError("session has no journal configured")
        self._require_started()
        with span("stream.checkpoint"):
            self._checkpoint_now()

    def _checkpoint_now(self) -> None:
        # Charge boundary: drain the cut accumulator's pending work so
        # the ledger reading at this cursor is exactly reproducible by
        # checkpoint-load + replay (the accumulator itself is not
        # serialized).
        self.partitioner.inner.settle_cut_maintenance()
        # The checkpoint's own telemetry counts it; the live counter
        # does once it is written.
        telemetry = self.telemetry.as_dict()
        telemetry["checkpoints_written"] += 1
        meta = {
            "applied_seq": self.applied_seq,
            "next_seq": self.queue.next_seq,
            "adaptive": self.partitioner.as_meta(),
            "scheduler": asdict(self.scheduler.config),
            # IngestQueue's parameter names, for IngestQueue(**...).
            "queue": {
                "capacity": self.queue.capacity,
                "policy": self.queue.policy,
            },
            "checkpoint_every": self.checkpoint_every,
            "telemetry": telemetry,
            "resilience": {
                "quarantine": self.quarantine.as_meta(self._clock()),
                "consecutive_failures": self._consecutive_failures,
                "escalate_after": self.escalate_after,
            },
        }
        if self.on_checkpoint is not None:
            meta["host"] = self.on_checkpoint()
        self.journal.write_checkpoint(self.partitioner.inner, meta)
        self.telemetry.checkpoints_written += 1
        self._flushes_since_checkpoint = 0

    @classmethod
    def recover(
        cls, journal_dir: "str | Path", ctx: GpuContext | None = None
    ) -> "StreamSession":
        """Rebuild a session from its journal after a crash.

        Loads the last checkpoint, replays exactly the flush windows the
        journal recorded past the cursor through the live window path
        (re-coalescing each raw window, then the poison path, failure
        streak, escalation and quarantine retry — deterministic, hence
        bit-identical to the uninterrupted run), and re-enqueues the
        logged-but-unflushed suffix.  Only a window's failed forward
        attempts are not re-run: its flush record carries their
        outcome.  Session parameters (thresholds, scheduler, queue
        bound) are restored from the checkpoint metadata, and the
        ``on_checkpoint`` dict saved with the loaded checkpoint becomes
        :attr:`host_meta`.
        """
        with span("stream.recover"):
            return cls._recover_impl(journal_dir, ctx=ctx)

    @classmethod
    def _recover_impl(
        cls, journal_dir: "str | Path", ctx: GpuContext | None = None
    ) -> "StreamSession":
        journal = StreamJournal(journal_dir)
        state = journal.load(ctx=ctx)
        meta = state.meta
        partitioner = AdaptiveIGKway.restore(
            state.partitioner, meta.get("adaptive", {})
        )
        # A logged modifier at or past the checkpoint's next_seq was
        # ingested by the crashed process after its last checkpoint —
        # both its ledger cost (one host op each, here) and its
        # telemetry count (below) are re-applied so a recovered ledger
        # reads identically to the uninterrupted one.  The ones below
        # it were queued when the checkpoint was written, which already
        # counts them.
        next_seq = int(meta.get("next_seq", 0))
        ingested = sum(1 for seq in state.modifiers if seq >= next_seq)
        if ingested:
            ledger = partitioner.ctx.ledger
            with ledger.section("stream_ingest"):
                ledger.charge_host_ops(ingested)
        resilience = meta["resilience"]

        session = cls.__new__(cls)
        # The journal that loaded the state knows its checkpoints'
        # cursors, so the first checkpoint after recovery compacts.
        session._init_parts(
            partitioner,
            journal,
            IngestQueue(**meta["queue"]),
            SchedulerConfig(**meta["scheduler"]),
            meta["checkpoint_every"],
            # Backoff deadlines were persisted relative to the
            # checkpoint clock; re-anchor them to this (fresh) ledger's
            # clock.
            Quarantine.restore(
                resilience.get("quarantine", {}),
                now=ledger_cycles(partitioner.ctx.ledger),
            ),
            int(resilience["escalate_after"]),
        )
        session._started = True
        session.applied_seq = state.applied_seq
        session.host_meta = meta.get("host") or {}
        session.telemetry = StreamTelemetry.restore(
            meta.get("telemetry", {})
        )
        session.telemetry.ingested += ingested
        session.telemetry.recoveries += 1
        session._consecutive_failures = int(
            resilience.get("consecutive_failures", 0)
        )

        # Replay each recorded window through the live window path,
        # detached from the journal, which already holds everything the
        # replay would write.  A flush record's excluded seqs go down
        # the poison path without re-running their failed attempts.
        live_journal, session.journal = session.journal, None
        for first, last, reason, excluded in state.flushes:
            window = [
                SequencedModifier(seq, state.modifiers.pop(seq))
                for seq in range(first, last + 1)
            ]
            session._apply_window(window, reason, frozenset(excluded))
        session.journal = live_journal

        # Re-enqueue the unflushed suffix in original order.
        for seq in sorted(state.modifiers):
            session.queue.requeue(seq, state.modifiers[seq])
        session.queue.reserve_seq(
            max(
                next_seq,
                state.max_logged_seq + 1,
                session.applied_seq + 1,
            )
        )
        session.telemetry.queue_depth = session.queue.depth
        if not session.queue.is_empty():
            session._window_opened_cycles = session._clock()
        return session

    # -- queries -------------------------------------------------------------------

    def cut_size(self) -> int:
        return self.partitioner.cut_size()

    @property
    def partition(self):
        return self.partitioner.partition

    def metrics(self) -> dict:
        """The structured telemetry dict (issue: consumable by eval)."""
        self.telemetry.publish_to(self.obs)
        out = self.telemetry.as_dict()
        out.update(
            {
                "applied_seq": self.applied_seq,
                "next_seq": self.queue.next_seq,
                "queue_depth": self.queue.depth,
                "queue_capacity": self.queue.capacity,
                "size_target": self.scheduler.size_target(
                    self.partitioner
                ),
                "simulated_cycles": self._clock(),
                "fallbacks_taken": self.partitioner.fallbacks_taken,
                "quarantine_pending": len(self.quarantine),
            }
        )
        return out

    def prometheus(self) -> str:
        """The session's metrics registry in Prometheus text format."""
        self.telemetry.publish_to(self.obs)
        return self.obs.to_prometheus()

    # -- internals -----------------------------------------------------------------

    def _clock(self) -> float:
        return ledger_cycles(self.partitioner.ctx.ledger)

    def _require_started(self) -> None:
        if self._suspended:
            raise StreamError(
                "session is suspended; resume it with "
                "StreamSession.recover(journal_dir)"
            )
        if not self._started:
            raise StreamError("call start() before streaming modifiers")
