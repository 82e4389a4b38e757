"""Server faults answered typed, on a connection that stays open.

A failure inside an op, whether a typed rejection, a malformed field or
an error the file system raises, is answered with an error response
and counted like any other request; the connection keeps serving.  A
session whose journal directory cannot be written or read fails only
its own requests: not the idle sweep, a failover or the shutdown.
"""

import shutil
import threading

import pytest

from repro.graph.modifiers import EdgeInsert
from repro.serve import ServeClient, ServerConfig, ServerThread, TenantQuota
from repro.utils.errors import ServeError

SPEC = {
    "generator": "circuit",
    "args": {"num_vertices": 150, "edge_ratio": 1.3, "seed": 7},
}


def _replace_with_file(path):
    """Put a regular file where a directory is expected."""
    if path.exists():
        shutil.rmtree(path)
    path.write_text("not a directory\n")


def _counts(client, op):
    """``(serve_rejected_total, this tenant's <op> latency count)``."""
    server_metrics = client.stats()["server_metrics"]
    tenant_metrics = client.metrics()["metrics"]
    return (
        server_metrics["serve_rejected_total"],
        tenant_metrics[f"serve_tenant_op_latency_seconds_{op}_count"],
    )


@pytest.fixture
def served(tmp_path):
    """A one-worker server on ``tmp_path`` and a client of tenant t."""
    with ServerThread(
        ServerConfig(data_dir=str(tmp_path), workers=1)
    ) as thread:
        with ServeClient("127.0.0.1", thread.tcp_port, tenant="t") as c:
            yield c


class TestFileSystemFaults:
    def test_create_under_unwritable_tenant_dir_answers_internal(
        self, served, tmp_path
    ):
        _replace_with_file(tmp_path / "t")
        before = _counts(served, "create")
        with pytest.raises(ServeError) as exc:
            served.create("s", SPEC, k=3)
        assert exc.value.code == "internal"
        assert exc.value.retryable is False
        assert "NotADirectoryError" in str(exc.value)
        assert served.hello()["ok"] is True
        assert _counts(served, "create") == (before[0] + 1, before[1] + 1)

    def test_evict_of_unwritable_session_answers_internal(
        self, served, tmp_path
    ):
        served.create("s", SPEC, k=3)
        _replace_with_file(tmp_path / "t" / "s")
        before = _counts(served, "evict")
        with pytest.raises(ServeError) as exc:
            served.evict("s")
        assert exc.value.code == "internal"
        assert exc.value.retryable is False
        assert served.hello()["ok"] is True
        assert _counts(served, "evict") == (before[0] + 1, before[1] + 1)


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "fields",
        [
            {"seed": "x"},
            {"seed": 1.5},
            {"queue_capacity": "many"},
            {"queue_capacity": 0},
            {"queue_capacity": -3},
            {"policy": "drop"},
        ],
    )
    def test_create_field_rejected_typed(self, served, fields):
        with pytest.raises(ServeError) as exc:
            served.call("create", session="s", graph=SPEC, k=3, **fields)
        assert exc.value.code == "bad-request"
        assert next(iter(fields)) in str(exc.value)
        assert served.hello()["ok"] is True
        assert served.stats()["sessions"] == 0

    @pytest.mark.parametrize("op", [[1], {"name": "hello"}])
    def test_unhashable_op_answers_unknown_op(self, served, op):
        with pytest.raises(ServeError) as exc:
            served.call(op)
        assert exc.value.code == "unknown-op"
        assert served.hello()["ok"] is True


def test_session_quota_reject_rings_one_flight_event():
    config = ServerConfig(
        default_quota=TenantQuota(max_sessions=1), flight_capacity=64
    )
    with ServerThread(config) as thread:
        with ServeClient("127.0.0.1", thread.tcp_port, tenant="t") as c:
            c.create("s0", SPEC, k=2)
            with pytest.raises(ServeError) as exc:
                c.create("s1", SPEC, k=2)
            assert exc.value.code == "quota-sessions"
            rejects = [
                record
                for record in thread.server.flight.snapshot()
                if record["kind"] == "reject"
            ]
    assert [(r["op"], r["tenant"], r["code"]) for r in rejects] == [
        ("create", "t", "quota-sessions")
    ]


class TestOneBadJournal:
    def test_idle_sweep_and_stop_skip_an_unwritable_session(
        self, tmp_path, monkeypatch
    ):
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        config = ServerConfig(
            data_dir=str(tmp_path), workers=1, idle_evict_after_ops=3
        )
        thread = ServerThread(config).start()
        loop = thread._loop
        try:
            with ServeClient(
                "127.0.0.1", thread.tcp_port, tenant="t"
            ) as client:
                client.create("s", SPEC, k=3)
                client.create("s2", SPEC, k=3)
                # Leaves s's journal log open for append.
                client.submit("s", [EdgeInsert(u=1, v=100)])
                _replace_with_file(tmp_path / "t" / "s")
                # s falls idle at the third digest; every sweep from
                # then on fails to suspend it and must leave it live.
                digests = {client.digest("s2")["sha256"] for _ in range(10)}
                assert len(digests) == 1
                stats = client.stats()
                assert stats["server_metrics"]["serve_evictions_total"] == 0
                # A checkpoint that failed is not counted as written.
                telemetry = thread.server.registry.get("t", "s").session.telemetry
                assert telemetry.checkpoints_written == 1
        finally:
            thread.stop()
        assert thread_errors == []
        assert loop.is_closed()

    def test_failover_restores_the_sessions_whose_journals_load(
        self, tmp_path
    ):
        config = ServerConfig(data_dir=str(tmp_path), workers=2)
        with ServerThread(config) as thread:
            with ServeClient(
                "127.0.0.1", thread.tcp_port, tenant="t"
            ) as client:
                placed = [
                    client.create(name, SPEC, k=3)["worker"]
                    for name in ("s0", "s1", "s2")
                ]
                assert placed == [0, 1, 0]
                digest = client.digest("s2")["sha256"]
                _replace_with_file(tmp_path / "t" / "s0")
                # The checkpoint raises an OSError on worker 0, which
                # fail-stops it; s0's journal then cannot be replayed.
                with pytest.raises(ServeError) as exc:
                    client.checkpoint("s0")
                assert exc.value.code == "worker-failed"
                assert exc.value.retryable is True
                # s2 was failed over before that answer left.
                stats = client.stats()
                assert stats["supervisor"]["workers_dead"] == 1
                assert stats["server_metrics"][
                    "serve_recovery_sessions_total"
                ] == 1
                info = client.attach("s2")
                assert (info["worker"], info["recoveries"]) == (1, 1)
                assert client.digest("s2")["sha256"] == digest
                with pytest.raises(ServeError) as exc:
                    client.digest("s0")
                assert exc.value.code == "internal"
                assert "JournalError" in str(exc.value)
                assert client.hello()["ok"] is True
