"""Trace continuity across restarts and failover.

A session's *originating* trace id (the ``client.create`` trace) is
saved with each of its checkpoints, so every journal replay the session
ever undergoes — boot recovery after a crash, failover off a dead worker —
re-attaches to that trace.  Querying the create's trace id therefore
shows the session's whole afterlife.
"""

import pytest

from repro.obs.distrib import TraceRecorder, make_trace_id
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve.registry import SessionRegistry

SPEC = {
    "generator": "circuit",
    "args": {"num_vertices": 96, "edge_ratio": 1.3, "seed": 11},
}


def _create_trace_ids(recorder):
    """Trace id of every ``client.create`` root span, by session."""
    return {
        event.trace["id"]
        for event in recorder.events
        if event.name == "client.create"
    }


def _replay_spans(recorder, name):
    return [e for e in recorder.events if e.name == name]


class TestRecoveryReplayTrace:
    def test_boot_recovery_reattaches_origin_trace(self, tmp_path, clean_mods):
        data_dir = str(tmp_path / "d")
        first = TraceRecorder(session="run-1")
        with ServerThread(
            ServerConfig(
                workers=2, data_dir=data_dir, trace_recorder=first
            )
        ) as thread:
            with ServeClient(
                "127.0.0.1",
                thread.tcp_port,
                tenant="acme",
                trace_recorder=first,
            ) as client:
                client.create("s", SPEC, k=3, seed=4)
                client.submit("s", clean_mods(SPEC, 12))
                client.flush("s")
        origins = _create_trace_ids(first)
        assert len(origins) == 1

        second = TraceRecorder(session="run-2")
        with ServerThread(
            ServerConfig(
                workers=2,
                data_dir=data_dir,
                recover=True,
                trace_recorder=second,
            )
        ):
            pass
        replays = _replay_spans(second, "serve.recover.replay")
        assert len(replays) == 1
        (replay,) = replays
        # The replay joins the create's trace, on a fresh recorder
        # that never saw the original run.
        assert replay.trace["id"] in origins
        assert replay.trace["tenant"] == "acme"
        assert replay.trace["op"] == "replay"
        assert "worker" in replay.trace

    def test_recovered_session_groups_with_its_create(
        self, tmp_path, clean_mods
    ):
        """With ONE recorder across both runs, traces() puts the
        create and its recovery replay in the same group."""
        data_dir = str(tmp_path / "d")
        recorder = TraceRecorder(session="both-runs")
        with ServerThread(
            ServerConfig(
                workers=1, data_dir=data_dir, trace_recorder=recorder
            )
        ) as thread:
            with ServeClient(
                "127.0.0.1",
                thread.tcp_port,
                tenant="acme",
                trace_recorder=recorder,
            ) as client:
                client.create("s", SPEC, k=2, seed=9)
                client.submit("s", clean_mods(SPEC, 8))
                client.flush("s")
        with ServerThread(
            ServerConfig(
                workers=1,
                data_dir=data_dir,
                recover=True,
                trace_recorder=recorder,
            )
        ):
            pass
        (origin,) = _create_trace_ids(recorder)
        group = recorder.traces()[origin]
        names = [event.name for event in group]
        assert "client.create" in names
        assert "serve.recover.replay" in names


class TestFailoverReplayTrace:
    def test_failover_replays_under_origin_traces(self, tmp_path, clean_mods):
        recorder = TraceRecorder(session="failover")
        config = ServerConfig(
            workers=2,
            data_dir=str(tmp_path / "d"),
            enable_chaos=True,
            trace_recorder=recorder,
        )
        with ServerThread(config) as thread:
            with ServeClient(
                "127.0.0.1",
                thread.tcp_port,
                tenant="acme",
                trace_recorder=recorder,
            ) as client:
                # Two sessions; with two workers at least one lives
                # on worker 0.
                client.create("a", SPEC, k=3, seed=1)
                client.create("b", SPEC, k=3, seed=2)
                client.submit("a", clean_mods(SPEC, 10))
                client.submit("b", clean_mods(SPEC, 10, start=40))
                client.flush("a")
                client.flush("b")
                before_a = client.digest("a")["sha256"]
                before_b = client.digest("b")["sha256"]
                client.kill_worker(0, reason="trace continuity")
                # Failover is synchronous with the kill ack: the
                # replay spans already exist.
                replays = _replay_spans(
                    recorder, "serve.failover.replay"
                )
                origins = _create_trace_ids(recorder)
                assert len(replays) >= 1
                assert all(
                    r.trace["id"] in origins for r in replays
                )
                assert all(
                    r.trace["op"] == "replay" for r in replays
                )
                # State survives the failover bit-exactly.
                assert client.digest("a")["sha256"] == before_a
                assert client.digest("b")["sha256"] == before_b


class TestOriginTracePersistence:
    def test_untraced_create_falls_back_to_counter_zero(
        self, tmp_path, clean_mods
    ):
        """Sessions created without a client trace (untraced clients)
        still replay under a deterministic id."""
        data_dir = tmp_path / "d"
        registry = SessionRegistry(data_dir, workers=1)
        entry = registry.create("acme", "s", SPEC, k=2, seed=3)
        for mod in clean_mods(SPEC, 6):
            entry.session.submit(mod)
        entry.session.drain()
        registry.settle_cycles(entry)
        assert entry.origin_trace is None

        recorder = TraceRecorder(session="fallback")
        with ServerThread(
            ServerConfig(
                workers=1,
                data_dir=str(data_dir),
                recover=True,
                trace_recorder=recorder,
            )
        ):
            pass
        (replay,) = _replay_spans(recorder, "serve.recover.replay")
        assert replay.trace["id"] == make_trace_id("acme", "s", 0)


class TestEvictAndReattachTrace:
    def test_evict_and_reattach_record_their_stream_spans(
        self, tmp_path, clean_mods
    ):
        """The evict's checkpoint and the journal recovery of the next
        request to the evicted session fold under those requests' op
        spans."""
        recorder = TraceRecorder(session="run")
        with ServerThread(
            ServerConfig(
                workers=1,
                data_dir=str(tmp_path / "d"),
                trace_recorder=recorder,
            )
        ) as thread:
            with ServeClient(
                "127.0.0.1",
                thread.tcp_port,
                tenant="acme",
                trace_recorder=recorder,
            ) as client:
                client.create("s", SPEC, k=3, seed=4)
                client.submit("s", clean_mods(SPEC, 12))
                client.evict("s")
                client.digest("s")
        by_id = {event.span_id: event for event in recorder.events}

        def parents(name):
            return sorted(
                (by_id[e.parent].name, e.trace["op"])
                for e in recorder.events
                if e.name == name
            )

        assert ("serve.evict", "evict") in parents("stream.checkpoint")
        assert parents("stream.recover") == [("serve.digest", "digest")]
