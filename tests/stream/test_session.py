"""StreamSession: the full pipeline, including crash recovery.

The acceptance bar for the subsystem: kill a journaled session
mid-stream, recover it, finish the trace — final cut AND partition
vector must equal the uninterrupted run's exactly.
"""

import shutil

import numpy as np
import pytest

from repro.core.serialize import load_checkpoint, save_partitioner
from repro.eval.workloads import TraceConfig, generate_trace
from repro.graph import EdgeDelete, EdgeInsert, HostGraph
from repro.graph.generators import circuit_graph
from repro.partition import PartitionConfig
from repro.serve.registry import partition_sha256
from repro.stream import SchedulerConfig, StreamJournal, StreamSession
from repro.stream.cli import main as stream_cli
from repro.stream.journal import LOG_NAMES, SLOT_NAMES
from repro.utils import BackpressureError, JournalError, StreamError
from repro.utils.seeding import make_rng

#: Edge inserts that are healthy on ``small_circuit``, in any order.
_FRESH_EDGES = [EdgeInsert(u, 250 + u) for u in range(5)]


def _churn_stream(csr, seed=5, iterations=6, modifiers=25, flip=0.3):
    """Flat modifier stream with redundancy (edge-insert flip-flops)."""
    trace = generate_trace(
        csr,
        TraceConfig(
            iterations=iterations,
            modifiers_per_iteration=modifiers,
            seed=seed,
        ),
    )
    rng = make_rng(seed, "session-churn")
    stream = []
    for batch in trace:
        for mod in batch:
            stream.append(mod)
            if isinstance(mod, EdgeInsert) and rng.random() < flip:
                stream.append(EdgeDelete(mod.u, mod.v))
                stream.append(mod)
    return stream


def _tree(root):
    """Every path under ``root``, with its bytes (None for a directory)."""
    return {
        path: path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


def _to_pre_slot_layout(directory):
    """Rewrite a journal directory in the layout from before checkpoint
    slots: ``checkpoint.npz`` the newest checkpoint and
    ``checkpoint.prev.npz`` the previous one, neither naming a
    generation or a log, and ``journal.log`` the live log."""
    journal = StreamJournal(directory)
    checkpoints = [
        load_checkpoint(path, slack=True)
        for path in (journal.checkpoint_path, journal.prev_checkpoint_path)
    ]
    log = journal.log_path.read_bytes().rstrip(b"\0")
    for name in SLOT_NAMES + LOG_NAMES:
        (directory / name).unlink(missing_ok=True)
    for (partitioner, meta), name in zip(
        checkpoints, ("checkpoint.npz", "checkpoint.prev.npz")
    ):
        del meta["generation"], meta["log"]
        save_partitioner(partitioner, directory / name, stream_meta=meta)
    (directory / "journal.log").write_bytes(log)


def _session(csr, tmp_path=None, target=16, **kwargs):
    journal_dir = None if tmp_path is None else str(tmp_path / "j")
    return StreamSession(
        csr,
        PartitionConfig(k=2, seed=2),
        journal_dir=journal_dir,
        scheduler=SchedulerConfig(target_batch_size=target),
        **kwargs,
    )


class TestLifecycle:
    def test_submit_before_start_rejected(self, small_circuit):
        session = _session(small_circuit)
        with pytest.raises(StreamError, match="start"):
            session.submit(EdgeInsert(0, 250))

    def test_double_start_rejected(self, small_circuit):
        session = _session(small_circuit)
        session.start()
        with pytest.raises(StreamError, match="already started"):
            session.start()

    def test_context_manager_starts_and_drains(self, small_circuit):
        with _session(small_circuit) as session:
            session.submit(EdgeInsert(0, 250))
        assert session.queue.is_empty()
        assert session.telemetry.applied_modifiers == 1

    def test_flush_on_empty_queue_returns_none(self, small_circuit):
        session = _session(small_circuit)
        session.start()
        assert session.flush() is None

    def test_checkpoint_without_journal_rejected(self, small_circuit):
        session = _session(small_circuit)
        session.start()
        with pytest.raises(StreamError, match="journal"):
            session.checkpoint()


class TestScheduling:
    def test_size_trigger_bounds_queue_depth(self, small_circuit):
        session = _session(small_circuit, target=8)
        session.start()
        for mod in _churn_stream(small_circuit)[:40]:
            session.submit(mod)
            assert session.queue.depth < 8
        assert session.telemetry.flushes_by_reason.get("size", 0) >= 4

    def test_reports_cover_contiguous_seq_ranges(self, small_circuit):
        session = _session(small_circuit, target=1000)
        session.start()
        stream = _churn_stream(small_circuit)[:40]
        reports = []
        for i, mod in enumerate(stream):
            session.submit(mod)
            if i % 7 == 6:  # irregular window boundaries
                reports.append(session.flush())
        reports.extend(session.drain())
        # Walk every applied window: no gaps, no overlaps.
        next_seq = 0
        for report in reports:
            assert report.first_seq == next_seq
            assert report.last_seq >= report.first_seq
            next_seq = report.last_seq + 1
        assert next_seq == len(stream)
        assert session.applied_seq == session.queue.next_seq - 1

    def test_deadline_trigger_fires_from_ingest_clock(
        self, small_circuit
    ):
        # Ingest charges host ops, so the modeled clock advances even
        # without GPU work; a tiny deadline must fire on the next
        # submission after the window opens.
        session = StreamSession(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            scheduler=SchedulerConfig(
                target_batch_size=1000, max_latency_cycles=1.0
            ),
        )
        session.start()
        session.submit(EdgeInsert(0, 250))
        session.submit(EdgeInsert(0, 251))
        assert session.telemetry.flushes_by_reason.get("deadline", 0) >= 1

    def test_explicit_flush_reason_recorded(self, small_circuit):
        session = _session(small_circuit)
        session.start()
        session.submit(EdgeInsert(0, 250))
        report = session.flush()
        assert report.reason == "explicit"
        assert session.telemetry.flushes_by_reason == {"explicit": 1}


class TestBackpressure:
    def test_reject_policy_raises_and_counts(self, small_circuit):
        session = _session(
            small_circuit,
            target=1000,  # never auto-flush
            queue_capacity=4,
            policy="reject",
        )
        session.start()
        for i in range(4):
            session.submit(EdgeInsert(0, 250 + i))
        with pytest.raises(BackpressureError):
            session.submit(EdgeInsert(0, 299))
        assert session.telemetry.rejected == 1

    def test_block_policy_flushes_for_the_producer(self, small_circuit):
        session = _session(
            small_circuit,
            target=1000,
            queue_capacity=4,
            policy="block",
        )
        session.start()
        for i in range(9):
            session.submit(EdgeInsert(0, 250 + i))
        assert session.telemetry.rejected == 0
        assert (
            session.telemetry.flushes_by_reason.get("backpressure", 0)
            >= 2
        )


class TestGraphEquivalence:
    def test_streamed_graph_matches_reference(self, small_circuit):
        # Coalescing + scheduling never change the net graph: the
        # session's final adjacency equals a plain HostGraph replay of
        # the raw stream.
        stream = _churn_stream(small_circuit)
        session = _session(small_circuit, target=12)
        session.start()
        for mod in stream:
            session.submit(mod)
        session.drain()

        reference = HostGraph.from_csr(small_circuit)
        reference.apply_batch(stream)
        streamed = session.partitioner.graph.to_host_graph()
        assert streamed.adj == reference.adj
        assert streamed.active == reference.active
        assert session.telemetry.coalesced_dropped > 0


class TestTelemetry:
    def test_counters_add_up(self, small_circuit):
        stream = _churn_stream(small_circuit)
        session = _session(small_circuit, target=10)
        session.start()
        for mod in stream:
            session.submit(mod)
        session.drain()
        t = session.telemetry
        assert t.ingested == len(stream)
        assert t.applied_modifiers + t.coalesced_dropped == len(stream)
        assert 0.0 < t.coalescing_ratio < 1.0
        assert t.last_cut == session.cut_size()
        metrics = session.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["simulated_cycles"] > 0

    def test_fallback_events_surface(self, small_circuit):
        session = StreamSession(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            scheduler=SchedulerConfig(target_batch_size=40),
            batch_threshold=0.05,  # 15 modifiers on 300 vertices
        )
        session.start()
        for mod in _churn_stream(small_circuit)[:40]:
            session.submit(mod)
        session.drain()
        assert session.telemetry.fallback_events >= 1
        assert session.partitioner.fallbacks_taken >= 1


class TestCrashRecovery:
    def _run_uninterrupted(self, csr, stream):
        session = _session(csr, target=12)
        session.start()
        for mod in stream:
            session.submit(mod)
        session.drain()
        return session

    def test_recover_replays_to_identical_state(
        self, small_circuit, tmp_path
    ):
        stream = _churn_stream(small_circuit)
        crash_at = int(len(stream) * 0.6)
        reference = self._run_uninterrupted(small_circuit, stream)

        # The journal as this release writes it, then as the release
        # before checkpoint slots left it.
        for layout in ("slots", "pre-slot"):
            directory = tmp_path / layout
            crashed = _session(
                small_circuit, directory, target=12, checkpoint_every=3
            )
            crashed.start()
            for mod in stream[:crash_at]:
                crashed.submit(mod)
            # Crash: no close(), no final checkpoint.  The journal holds
            # a stale checkpoint plus the logged suffix.
            backlog_at_crash = crashed.queue.depth
            crashed.journal.close()
            if layout == "pre-slot":
                _to_pre_slot_layout(directory / "j")

            recovered = StreamSession.recover(directory / "j")
            assert recovered.queue.depth == backlog_at_crash
            for mod in stream[crash_at:]:
                recovered.submit(mod)
            recovered.drain()

            assert recovered.cut_size() == reference.cut_size(), layout
            assert np.array_equal(
                recovered.partition, reference.partition
            )
            assert recovered.telemetry.recoveries == 1
            assert recovered.telemetry.ingested == len(stream)
            recovered.close()

    def test_record_cut_before_its_newline_stays_out(
        self, small_circuit, tmp_path
    ):
        # A crash cuts only the newline of the last of three logged
        # modifiers: recovery and the next append agree it was never
        # committed, so the flush after it logs no window naming it.
        crashed = _session(small_circuit, tmp_path, checkpoint_every=0)
        crashed.start()
        crashed.submit_many(_FRESH_EDGES[:3])
        crashed.journal.close()
        log = tmp_path / "j" / "journal.log"
        log.write_bytes(log.read_bytes()[:-1])

        recovered = StreamSession.recover(tmp_path / "j")
        assert recovered.queue.depth == 2
        assert recovered.queue.next_seq == 2
        recovered.submit(_FRESH_EDGES[3])
        recovered.flush()
        recovered.journal.close()  # the second crash

        revived = StreamSession.recover(tmp_path / "j")
        reference = _session(small_circuit, checkpoint_every=0)
        reference.start()
        reference.submit_many(_FRESH_EDGES[:2] + [_FRESH_EDGES[3]])
        reference.flush()
        assert revived.applied_seq == reference.applied_seq == 2
        assert partition_sha256(revived.partition) == partition_sha256(
            reference.partition
        )
        revived.close()

    @pytest.mark.parametrize("killed_after", [6, 8])
    def test_recovered_run_checkpoints_after_the_same_flushes(
        self, small_circuit, tmp_path, killed_after
    ):
        # Replayed flushes count toward checkpoint_every as the live
        # ones did.  Windows are 12 modifiers; with checkpoint_every=4,
        # a kill after flush 6's record lands between two periodic
        # checkpoints, one after flush 8's before its checkpoint.
        stream = _churn_stream(small_circuit)
        session = _session(
            small_circuit, tmp_path, target=12, checkpoint_every=4
        )
        session.start()
        log_flush = session.journal.log_flush

        def logged(*args, **kwargs):
            log_flush(*args, **kwargs)
            if session.telemetry.batches == killed_after:
                shutil.copytree(tmp_path / "j", tmp_path / "killed")

        session.journal.log_flush = logged
        cut = 12 * killed_after
        for mod in stream[:cut]:
            session.submit(mod)
        # The session itself runs on uncrashed.
        recovered = StreamSession.recover(tmp_path / "killed")

        def checkpoint_marks(run):
            marks = []
            run.on_checkpoint = lambda: marks.append(run.applied_seq)
            return marks

        expected = checkpoint_marks(session)
        marks = checkpoint_marks(recovered)
        for mod in stream[cut:]:
            session.submit(mod)
            recovered.submit(mod)
        assert marks == expected
        assert len(marks) >= 1
        session.close()
        recovered.close()

    def test_recover_after_clean_close_matches(
        self, small_circuit, tmp_path
    ):
        stream = _churn_stream(small_circuit)[:60]
        session = _session(
            small_circuit, tmp_path, target=12, checkpoint_every=4
        )
        session.start()
        for mod in stream:
            session.submit(mod)
        session.drain()
        session.close()

        recovered = StreamSession.recover(tmp_path / "j")
        assert recovered.queue.is_empty()
        assert recovered.cut_size() == session.cut_size()
        assert np.array_equal(recovered.partition, session.partition)
        recovered.close()

    def test_recover_restores_session_parameters(
        self, small_circuit, tmp_path
    ):
        session = StreamSession(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            journal_dir=str(tmp_path / "j"),
            queue_capacity=77,
            scheduler=SchedulerConfig(target_batch_size=9),
            checkpoint_every=5,
            batch_threshold=0.2,
        )
        session.start()
        session.close()

        recovered = StreamSession.recover(tmp_path / "j")
        assert recovered.queue.capacity == 77
        assert recovered.scheduler.config.target_batch_size == 9
        assert recovered.checkpoint_every == 5
        assert recovered.partitioner.batch_threshold == 0.2
        recovered.close()

    def test_recovered_session_continues_streaming(
        self, small_circuit, tmp_path
    ):
        stream = _churn_stream(small_circuit)
        session = _session(small_circuit, tmp_path, target=12)
        session.start()
        for mod in stream[:30]:
            session.submit(mod)
        session.close()

        recovered = StreamSession.recover(tmp_path / "j")
        for mod in stream[30:60]:
            recovered.submit(mod)
        recovered.drain()
        assert recovered.telemetry.ingested == 60
        # The combined graph equals a straight replay of the prefix.
        reference = HostGraph.from_csr(small_circuit)
        reference.apply_batch(stream[:60])
        streamed = recovered.partitioner.graph.to_host_graph()
        assert streamed.adj == reference.adj
        recovered.close()


class TestJournalDirectory:
    def test_start_over_another_sessions_journal_refused(
        self, small_circuit, tmp_path
    ):
        crashed = _session(small_circuit, tmp_path)
        crashed.start()
        crashed.submit_many(_FRESH_EDGES)
        crashed.journal.close()  # the crash: no checkpoint
        tree = _tree(tmp_path)

        with pytest.raises(JournalError, match="recover"):
            _session(small_circuit, tmp_path)
        assert stream_cli(
            ["run", "--vertices", "300", "--iterations", "1",
             "--modifiers", "5", "--journal", str(tmp_path / "j")]
        ) == 1
        assert _tree(tmp_path) == tree

        recovered = StreamSession.recover(tmp_path / "j")
        assert recovered.queue.depth == 5
        assert recovered.queue.next_seq == 5
        recovered.close()

    def test_reading_a_missing_journal_creates_nothing(self, tmp_path):
        missing = tmp_path / "x" / "y" / "journal"
        with pytest.raises(JournalError, match="no checkpoint"):
            StreamSession.recover(missing)
        assert stream_cli(["inspect", str(missing)]) == 1
        assert stream_cli(["recover", str(missing)]) == 1
        assert list(tmp_path.iterdir()) == []


class TestInjectableClock:
    """Deadlines and backoff read the session's own ledger cycles."""

    def test_default_clock_still_ledger_cycles(self, small_circuit):
        session = StreamSession(small_circuit, PartitionConfig(k=2, seed=2))
        session.start()
        before = session._clock()
        session.submit(EdgeInsert(0, 250))
        assert session._clock() >= before



class TestSuspend:
    def test_suspend_requires_journal(self, small_circuit):
        session = _session(small_circuit)
        session.start()
        with pytest.raises(StreamError, match="without a journal"):
            session.suspend()

    def test_suspended_session_rejects_streaming_calls(
        self, small_circuit, tmp_path
    ):
        session = _session(small_circuit, tmp_path)
        session.start()
        session.submit(EdgeInsert(0, 250))
        session.suspend()
        with pytest.raises(StreamError, match="suspended"):
            session.submit(EdgeInsert(0, 251))
        with pytest.raises(StreamError, match="suspended"):
            session.flush()

    def test_suspend_preserves_queued_suffix_bit_identically(
        self, small_circuit, tmp_path
    ):
        stream = _churn_stream(small_circuit)
        # Interrupted: suspend with a queued (unflushed) suffix, then
        # recover and finish.
        session = _session(small_circuit, tmp_path, target=16)
        session.start()
        for mod in stream[:40]:
            session.submit(mod)
        assert session.queue.depth > 0  # a genuine suffix is pending
        session.suspend()
        recovered = StreamSession.recover(tmp_path / "j")
        for mod in stream[40:80]:
            recovered.submit(mod)
        recovered.drain()

        # Uninterrupted reference.
        reference = _session(
            small_circuit, tmp_path / "ref", target=16
        )
        reference.start()
        for mod in stream[:80]:
            reference.submit(mod)
        reference.drain()

        assert np.array_equal(
            recovered.partitioner.partition, reference.partitioner.partition
        )
        assert (
            recovered.partitioner.cut_size()
            == reference.partitioner.cut_size()
        )
        recovered.close()
        reference.close()

    def test_evict_reattach_churn_keeps_the_log_bounded(self, tmp_path):
        # The journal that recovered a session knows its checkpoints'
        # cursors, so the evict's checkpoint compacts; a fresh journal
        # kept every record, and the log grew ~820 bytes a cycle.
        csr = circuit_graph(1200, edge_ratio=1.4, seed=7)
        batches = iter(
            generate_trace(
                csr,
                TraceConfig(iterations=90, modifiers_per_iteration=5, seed=4),
            )
        )
        directory = tmp_path / "j"
        session = StreamSession(
            csr, PartitionConfig(k=4, seed=1), journal_dir=directory
        )
        session.start()
        session.suspend()
        sizes = []
        for _cycle in range(30):
            session = StreamSession.recover(directory)
            for _flush in range(3):
                session.submit_many(list(next(batches)))
                session.flush()
            session.suspend()
            log = StreamJournal(directory).log_path
            sizes.append(len(log.read_bytes().rstrip(b"\0")))
        assert max(sizes) < 2 * min(sizes)
