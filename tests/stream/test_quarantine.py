"""Quarantine lifecycle, the session's graceful-degradation path, and
the ledger a recovery replays after a re-partition."""

import math
import shutil

import numpy as np
import pytest

from repro import PartitionConfig
from repro.graph import EdgeInsert, VertexInsert
from repro.graph.generators import circuit_graph
from repro.partition.metrics import cut_size_bucketlist
from repro.stream import StreamSession
from repro.stream.journal import StreamJournal
from repro.stream.quarantine import Quarantine
from repro.stream.scheduler import SchedulerConfig, ledger_cycles
from repro.utils import FaultInjector


class TestQuarantineUnit:
    def test_add_and_due(self):
        q = Quarantine(capacity=4, backoff_cycles=10.0)
        assert q.add(3, EdgeInsert(0, 1), "bad", now=0.0)
        assert len(q) == 1
        assert q.due(now=5.0) == []  # backoff not yet elapsed
        assert [e.seq for e in q.due(now=10.0)] == [3]
        assert [e.seq for e in q.due(now=0.0, force=True)] == [3]

    def test_overflow_refused(self):
        q = Quarantine(capacity=1)
        assert q.add(0, EdgeInsert(0, 1), "bad", now=0.0)
        assert not q.add(1, EdgeInsert(0, 2), "bad", now=0.0)
        assert q.is_full

    def test_duplicate_seq_is_idempotent(self):
        q = Quarantine(capacity=1)
        assert q.add(0, EdgeInsert(0, 1), "bad", now=0.0)
        assert q.add(0, EdgeInsert(0, 1), "bad again", now=0.0)
        assert len(q) == 1

    def test_failure_backoff_doubles_until_exhausted(self):
        q = Quarantine(capacity=4, max_attempts=3, backoff_cycles=10.0)
        q.add(0, EdgeInsert(0, 1), "bad", now=0.0)
        (entry,) = q.due(now=10.0)
        assert not q.record_failure(entry, "still bad", now=10.0)
        assert entry.attempts == 1
        assert entry.next_retry_cycles == 10.0 + 20.0
        assert not q.record_failure(entry, "still bad", now=30.0)
        assert q.record_failure(entry, "still bad", now=70.0)

    def test_meta_roundtrip_reanchors_backoff(self):
        q = Quarantine(capacity=4, max_attempts=5, backoff_cycles=7.0)
        q.add(2, EdgeInsert(1, 9), "bad", now=100.0)
        (entry,) = q.due(now=200.0, force=True)
        q.record_failure(entry, "still bad", now=200.0)
        meta = q.as_meta(now=205.0)
        restored = Quarantine.restore(meta, now=1000.0)
        (back,) = restored.due(now=10_000.0)
        assert back.seq == 2
        assert back.modifier == EdgeInsert(1, 9)
        assert back.attempts == 1
        # Persisted as a *relative* delay, re-anchored to the new clock.
        assert back.next_retry_cycles == pytest.approx(
            1000.0 + (214.0 - 205.0)
        )


def fresh_edges(graph, rng, count, taken):
    active = graph.active_vertices()
    mods = []
    while len(mods) < count:
        u = int(active[rng.integers(len(active))])
        v = int(active[rng.integers(len(active))])
        if u != v and (u, v) not in taken and not graph.has_edge(u, v):
            taken.add((u, v))
            taken.add((v, u))
            mods.append(EdgeInsert(u, v))
    return mods


def crash_after_next_flush_record(session, snapshot):
    """Copy the session's journal directory to ``snapshot`` right after
    its next flush record: what a kill before that window's barrier
    checkpoint leaves on disk."""
    journal = session.journal
    log_flush = journal.log_flush

    def logged(*args, **kwargs):
        log_flush(*args, **kwargs)
        journal.log_flush = log_flush
        shutil.copytree(journal.directory, snapshot)

    journal.log_flush = logged


def relative_quarantine(session):
    """(seq, attempts, relative retry deadline) of each entry."""
    now = ledger_cycles(session.partitioner.ctx.ledger)
    return [
        (e["s"], e["a"], e["d"])
        for e in session.quarantine.as_meta(now)["entries"]
    ]


def make_session(tmp_path=None, **overrides):
    csr = circuit_graph(300, edge_ratio=1.4, seed=11)
    kwargs = dict(
        scheduler=SchedulerConfig(target_batch_size=10),
        checkpoint_every=2,
        quarantine_backoff_cycles=1.0,
        escalate_after=3,
    )
    kwargs.update(overrides)
    session = StreamSession(
        csr,
        PartitionConfig(k=2, seed=11),
        journal_dir=None if tmp_path is None else tmp_path / "journal",
        **kwargs,
    )
    session.start()
    return session


class TestSessionDegradation:
    def test_poison_is_quarantined_and_healthy_applied(self):
        session = make_session()
        injector = FaultInjector(seed=5)
        rng = np.random.default_rng(6)
        graph = session.partitioner.graph
        poison = injector.duplicate_edge(graph)
        healthy = fresh_edges(graph, rng, 6, set())
        for mod in healthy[:3]:
            session.submit(mod)
        poison_seq = session.submit(poison)
        for mod in healthy[3:]:
            session.submit(mod)
        reports = session.drain()
        assert any(r.degraded for r in reports)
        assert any(r.quarantined_count for r in reports)
        for mod in healthy:
            assert session.partitioner.graph.has_edge(mod.u, mod.v)
        assert [e.seq for e in session.quarantine.entries.values()] == [
            poison_seq
        ]
        metrics = session.metrics()
        assert metrics["batch_failures"] >= 1
        assert metrics["quarantine_pending"] == 1

    @pytest.mark.parametrize("weight", [0, -50])
    @pytest.mark.parametrize("kind", ["edge", "vertex"])
    def test_insert_weighing_below_one_is_quarantined(self, kind, weight):
        """The expansion gate rejects an edge or vertex insert whose
        weight is below 1, so it is quarantined like any poison: once
        applied, a negative edge weight would skew the reported cut."""
        session = make_session()
        rng = np.random.default_rng(6)
        graph = session.partitioner.graph
        healthy = fresh_edges(graph, rng, 7, set())
        edge = healthy.pop()
        num_vertices = graph.num_vertices
        if kind == "edge":
            poison = EdgeInsert(edge.u, edge.v, weight)
        else:
            poison = VertexInsert(num_vertices, weight)
        for mod in healthy[:3]:
            session.submit(mod)
        poison_seq = session.submit(poison)
        for mod in healthy[3:]:
            session.submit(mod)
        session.drain()
        assert [e.seq for e in session.quarantine.entries.values()] == [
            poison_seq
        ]
        graph = session.partitioner.graph
        for mod in healthy:
            assert graph.has_edge(mod.u, mod.v)
        assert not graph.has_edge(edge.u, edge.v)
        assert graph.num_vertices == num_vertices
        session.partitioner.validate()
        assert session.cut_size() == cut_size_bucketlist(
            graph, session.partitioner.partition
        )

    def test_accounting_identity_holds_under_failures(self):
        session = make_session()
        injector = FaultInjector(seed=5)
        rng = np.random.default_rng(6)
        graph = session.partitioner.graph
        taken = set()
        for i in range(30):
            session.submit(fresh_edges(graph, rng, 1, taken)[0])
            if i % 7 == 3:
                session.submit(injector.missing_edge(graph))
        session.drain()
        m = session.metrics()
        assert m["ingested"] == (
            m["applied_modifiers"]
            + m["coalesced_dropped"]
            + m["dead_lettered"]
            + m["quarantine_pending"]
            + m["queue_depth"]
        )

    def test_exhausted_attempts_become_dead_letters(self, tmp_path):
        session = make_session(
            tmp_path, quarantine_max_attempts=1
        )
        injector = FaultInjector(seed=5)
        rng = np.random.default_rng(6)
        graph = session.partitioner.graph
        poison_seq = session.submit(injector.duplicate_edge(graph))
        taken = set()
        for _ in range(3):  # later flushes trigger the retries
            for mod in fresh_edges(graph, rng, 10, taken):
                session.submit(mod)
            session.drain()
        assert len(session.quarantine) == 0
        assert session.metrics()["dead_lettered"] == 1
        session.close()
        state = StreamJournal(tmp_path / "journal").load()
        assert list(state.dead_letters) == [poison_seq]

    def test_capacity_starved_modifiers_recover_after_pool_returns(self):
        session = make_session(quarantine_max_attempts=10)
        injector = FaultInjector(seed=5)
        rng = np.random.default_rng(6)
        graph = session.partitioner.graph
        active = graph.active_vertices()
        u = int(active[0])
        from repro.graph.bucketlist import EMPTY

        spare = int((graph.slots(u) == EMPTY).sum())
        overflow = []
        for v in active[1:]:
            v = int(v)
            if v != u and not graph.has_edge(u, v):
                overflow.append(EdgeInsert(u, v))
            if len(overflow) > spare:
                break
        with injector.pool_exhaustion(graph):
            for mod in overflow:
                session.submit(mod)
            session.drain()
        assert len(session.quarantine) > 0
        # Pool restored: the next flush retries and recovers them.
        for mod in fresh_edges(graph, rng, 3, set()):
            session.submit(mod)
        session.drain()
        assert len(session.quarantine) == 0
        assert session.metrics()["quarantine_recovered"] > 0
        for mod in overflow:
            assert session.partitioner.graph.has_edge(mod.u, mod.v)
        session.partitioner.validate()

    def test_repeated_failures_escalate_to_rebuild(self):
        session = make_session(escalate_after=2)
        injector = FaultInjector(seed=5)
        rng = np.random.default_rng(6)
        graph = session.partitioner.graph
        taken = set()
        for _ in range(3):
            for mod in fresh_edges(graph, rng, 9, taken):
                session.submit(mod)
            session.submit(injector.dead_vertex_op(graph))
            session.drain()
        metrics = session.metrics()
        assert metrics["escalations"] >= 1
        assert session.partitioner.fallbacks_taken >= 1  # the rebuild
        session.partitioner.validate()


class TestRecoveryLedger:
    """A replayed window charges the ledger cycles the live one did,
    also when it is the first window after a re-partition."""

    def test_replay_after_fallback_charges_live_cycles(self, tmp_path):
        session = make_session(
            tmp_path, scheduler=SchedulerConfig(target_batch_size=200)
        )
        graph = session.partitioner.graph
        rng = np.random.default_rng(6)
        taken = set()
        # 40 modifiers >= batch_threshold (10%) of the 300 vertices.
        session.submit_many(fresh_edges(graph, rng, 40, taken))
        assert session.flush().used_fallback
        session.checkpoint()
        ledger = session.partitioner.ctx.ledger
        at_checkpoint = ledger_cycles(ledger)
        session.submit_many(fresh_edges(graph, rng, 10, taken))
        assert not session.flush().used_fallback
        live = ledger_cycles(ledger) - at_checkpoint
        session.journal.close()  # crash: no close(), no final checkpoint

        recovered = StreamSession.recover(tmp_path / "journal")
        assert np.array_equal(recovered.partition, session.partition)
        assert math.isclose(
            ledger_cycles(recovered.partitioner.ctx.ledger),
            live,
            rel_tol=1e-9,
        )
        recovered.close()

    def test_replay_after_escalation_charges_live_cycles(self, tmp_path):
        # Driven like test_repeated_failures_escalate_to_rebuild; the
        # long backoff keeps quarantine retries (and the checkpoints
        # they write) out of the window after the rebuild.
        session = make_session(
            tmp_path, escalate_after=2, quarantine_backoff_cycles=1e12
        )
        ledger = session.partitioner.ctx.ledger
        marks = []
        session.on_checkpoint = lambda: marks.append(ledger_cycles(ledger))
        injector = FaultInjector(seed=5)
        rng = np.random.default_rng(6)
        graph = session.partitioner.graph
        taken = set()
        for _ in range(2):
            for mod in fresh_edges(graph, rng, 9, taken):
                session.submit(mod)
            session.submit(injector.dead_vertex_op(graph))
            session.drain()
        assert session.metrics()["escalations"] == 1
        graph = session.partitioner.graph  # the rebuild's fresh pool
        checkpoints = len(marks)
        for mod in fresh_edges(graph, rng, 10, taken):
            session.submit(mod)
        session.drain()
        assert len(marks) == checkpoints  # the window is journal-only
        live = ledger_cycles(ledger) - marks[-1]
        session.journal.close()  # crash: no close(), no final checkpoint

        recovered = StreamSession.recover(tmp_path / "journal")
        assert np.array_equal(recovered.partition, session.partition)
        assert math.isclose(
            ledger_cycles(recovered.partitioner.ctx.ledger),
            live,
            rel_tol=1e-9,
        )
        recovered.close()


class TestDegradedRecovery:
    def test_recovery_restores_quarantine_and_streak(self, tmp_path):
        session = make_session(tmp_path, quarantine_backoff_cycles=1e12)
        injector = FaultInjector(seed=5)
        rng = np.random.default_rng(6)
        graph = session.partitioner.graph
        taken = set()
        for mod in fresh_edges(graph, rng, 8, taken):
            session.submit(mod)
        poison_seq = session.submit(injector.duplicate_edge(graph))
        for mod in fresh_edges(graph, rng, 8, taken):
            session.submit(mod)
        session.drain()
        live = session.metrics()
        assert live["quarantine_pending"] == 1
        # Crash without close(): the degraded window forced a
        # checkpoint, so recovery starts from its outcome.
        session.journal.close()

        recovered = StreamSession.recover(tmp_path / "journal")
        assert [
            e.seq for e in recovered.quarantine.entries.values()
        ] == [poison_seq]
        assert recovered._consecutive_failures == (
            session._consecutive_failures
        )
        assert np.array_equal(
            recovered.partition, session.partition
        )
        metrics = recovered.metrics()
        assert metrics["quarantine_pending"] == 1
        assert metrics["ingested"] == (
            metrics["applied_modifiers"]
            + metrics["coalesced_dropped"]
            + metrics["dead_lettered"]
            + metrics["quarantine_pending"]
            + metrics["queue_depth"]
        )
        recovered.close()

    def _killed_before_barrier(self, tmp_path, copies):
        """(live session, recovery of a kill between its degraded
        window's flush record and barrier checkpoint); the window holds
        ``copies`` of one poison insert among healthy ones."""
        session = make_session(tmp_path, quarantine_backoff_cycles=1e6)
        crash_after_next_flush_record(session, tmp_path / "killed")
        injector = FaultInjector(seed=5)
        rng = np.random.default_rng(6)
        graph = session.partitioner.graph
        poison = injector.duplicate_edge(graph)
        taken = set()
        for mod in fresh_edges(graph, rng, 3, taken):
            session.submit(mod)
        for _ in range(copies):
            session.submit(poison)
        for mod in fresh_edges(graph, rng, 3, taken):
            session.submit(mod)
        (report,) = session.drain()
        assert report.quarantined_count == 1
        recovered = StreamSession.recover(tmp_path / "killed")
        assert np.array_equal(recovered.partition, session.partition)
        return session, recovered

    def test_kill_before_barrier_checkpoint_keeps_live_deadlines(
        self, tmp_path
    ):
        # The replayed window re-quarantines its poison at the clock
        # read after the apply, as the live window did.
        session, recovered = self._killed_before_barrier(tmp_path, 1)
        live = relative_quarantine(session)
        replayed = relative_quarantine(recovered)
        assert [e[:2] for e in replayed] == [e[:2] for e in live]
        assert [e[2] for e in replayed] == pytest.approx(
            [e[2] for e in live], rel=1e-9
        )
        recovered.close()

    def test_poison_submitted_twice_in_one_window_replays_once(
        self, tmp_path
    ):
        # Coalescing folds the second copy away; replay must not apply
        # it after excluding the first.
        session, recovered = self._killed_before_barrier(tmp_path, 2)
        assert sorted(recovered.quarantine.entries) == sorted(
            session.quarantine.entries
        )
        for key in ("quarantined", "batch_failures"):
            assert recovered.metrics()[key] == session.metrics()[key]
        assert recovered._consecutive_failures == (
            session._consecutive_failures
        )
        recovered.close()
