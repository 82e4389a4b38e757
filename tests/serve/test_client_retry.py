"""Client retry loop: seeded backoff, timeouts, next_seq resync."""

import socket

import pytest

from repro.graph.modifiers import EdgeInsert
from repro.serve import ServerConfig, ServerThread
from repro.serve.client import ServeClient
from repro.utils.errors import ServeError, ServeTimeout


@pytest.fixture
def silent_port():
    """A listener that accepts connections but never answers."""
    listener = socket.create_server(("127.0.0.1", 0))
    yield listener.getsockname()[1]
    listener.close()


def _client(port, **kwargs):
    kwargs.setdefault("retry_seed", 3)
    kwargs.setdefault("sleep", lambda _d: None)
    return ServeClient("127.0.0.1", port, tenant="t", **kwargs)


def _mods(n):
    return [EdgeInsert(u=i, v=i + 1) for i in range(n)]


class TestBackoff:
    def test_schedule_is_seeded_and_bounded(self, silent_port):
        schedules = []
        for _ in range(2):
            slept = []
            client = _client(
                silent_port,
                retry_seed=11,
                sleep=slept.append,
                backoff_base=0.01,
                backoff_max=0.04,
            )
            for attempt in range(6):
                client._backoff(attempt)
            client.close()
            schedules.append(slept)
        # Same seed -> identical jitter; different delays per attempt.
        assert schedules[0] == schedules[1]
        assert len(set(schedules[0])) == len(schedules[0])
        for attempt, delay in enumerate(schedules[0]):
            ceiling = min(0.04, 0.01 * 2**attempt)
            assert ceiling * 0.5 <= delay <= ceiling
        # The envelope caps: late attempts never exceed backoff_max.
        assert max(schedules[0]) <= 0.04

    def test_different_seeds_decorrelate(self, silent_port):
        slept = {}
        for seed in (1, 2):
            record = []
            client = _client(
                silent_port, retry_seed=seed, sleep=record.append
            )
            for attempt in range(4):
                client._backoff(attempt)
            client.close()
            slept[seed] = record
        assert slept[1] != slept[2]

    def test_invalid_envelope_rejected(self, silent_port):
        with pytest.raises(ValueError, match="envelope"):
            _client(silent_port, backoff_base=0.0)


class TestCallFailures:
    def test_timeout_is_typed_and_poisons_socket(self, silent_port):
        client = _client(silent_port, timeout=0.2)
        with pytest.raises(ServeTimeout) as exc:
            client.call("hello")
        assert exc.value.code == "timeout"
        assert exc.value.retryable
        # The socket is gone: a late response must not desync framing.
        assert client._sock is None
        with pytest.raises(ServeError, match="closed"):
            client.call("hello")

    def test_per_call_timeout_overrides_default(self, silent_port):
        client = _client(silent_port, timeout=None)
        with pytest.raises(ServeTimeout):
            client.call("hello", timeout=0.2)
        client.close()

    def test_server_eof_is_retryable(self, silent_port):
        listener = socket.create_server(("127.0.0.1", 0))
        client = _client(listener.getsockname()[1], timeout=2.0)
        conn, _ = listener.accept()
        conn.close()  # server "drops" the connection
        with pytest.raises(ServeError) as exc:
            client.call("hello")
        assert exc.value.retryable
        listener.close()


class _Scripted:
    """Drives submit_with_retry against scripted submit outcomes."""

    def __init__(self, client, outcomes, next_seqs):
        self.submits = []
        self.flushes = 0
        self._outcomes = list(outcomes)
        self._next_seqs = list(next_seqs)
        self._seq = next_seqs[0] if next_seqs else 0
        client.submit = self._submit
        client.attach = self._attach
        client.flush = self._flush
        client.reconnect = lambda: None

    def _submit(self, session, modifiers, timeout=None):
        self.submits.append(list(modifiers))
        outcome = self._outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        first = self._seq
        self._seq += len(modifiers)
        return {
            "ok": True,
            "accepted": len(modifiers),
            "first_seq": first,
            "last_seq": self._seq - 1,
        }

    def _attach(self, session):
        # The reported cursor is the truth: landed-but-unacked
        # modifiers moved it, so future accepts start there.
        self._seq = self._next_seqs.pop(0)
        return {"next_seq": self._seq}

    def _flush(self, session, drain=True):
        self.flushes += 1
        return {"ok": True}


class TestSubmitWithRetry:
    def test_typed_reject_flushes_then_resubmits(self, silent_port):
        client = _client(silent_port)
        shed = ServeError("busy", code="shed-overload", retryable=True)
        script = _Scripted(
            client, [shed, shed, None], next_seqs=[7]
        )
        responses = client.submit_with_retry("s", _mods(4))
        assert [len(b) for b in script.submits] == [4, 4, 4]
        assert script.flushes == 2  # drain is what clears backlog
        assert [r["accepted"] for r in responses] == [4]
        assert responses[0]["first_seq"] == 7
        client.close()

    def test_non_retryable_raises_immediately(self, silent_port):
        client = _client(silent_port)
        script = _Scripted(
            client,
            [ServeError("bad", code="bad-request")],
            next_seqs=[0],
        )
        with pytest.raises(ServeError, match="bad"):
            client.submit_with_retry("s", _mods(3))
        assert len(script.submits) == 1
        client.close()

    def test_bounded_attempts(self, silent_port):
        client = _client(silent_port)
        shed = ServeError("busy", code="shed-overload", retryable=True)
        script = _Scripted(client, [shed] * 3, next_seqs=[0])
        with pytest.raises(ServeError, match="busy"):
            client.submit_with_retry("s", _mods(2), max_attempts=3)
        assert len(script.submits) == 3
        client.close()

    def test_ambiguous_fully_landed_synthesizes(self, silent_port):
        client = _client(silent_port)
        lost = ServeTimeout("fate unknown")
        # Baseline next_seq 10; after the "lost" submit the server
        # reports 15: all five landed, nothing to resubmit.
        script = _Scripted(client, [lost], next_seqs=[10, 15])
        responses = client.submit_with_retry("s", _mods(5))
        assert len(script.submits) == 1
        assert script.flushes == 0  # resync, not drain
        assert responses == [
            {
                "ok": True,
                "accepted": 5,
                "first_seq": 10,
                "last_seq": 14,
                "resynced": True,
            }
        ]
        client.close()

    def test_ambiguous_partial_resubmits_suffix(self, silent_port):
        client = _client(silent_port)
        lost = ServeTimeout("fate unknown")
        # Baseline 10; only 2 of 5 landed before the loss.
        script = _Scripted(client, [lost, None], next_seqs=[10, 12])
        responses = client.submit_with_retry("s", _mods(5))
        assert [len(b) for b in script.submits] == [5, 3]
        assert sum(r["accepted"] for r in responses) == 5
        # The synthesized prefix and the real suffix are contiguous.
        assert responses[0]["last_seq"] + 1 == responses[1]["first_seq"]
        client.close()

    def test_ambiguous_nothing_landed_resubmits_all(self, silent_port):
        client = _client(silent_port)
        lost = ServeError(
            "conn lost", code="internal", retryable=True
        )
        script = _Scripted(client, [lost, None], next_seqs=[10, 10])
        responses = client.submit_with_retry("s", _mods(4))
        assert [len(b) for b in script.submits] == [4, 4]
        assert [r["accepted"] for r in responses] == [4]
        client.close()

    def test_chunking_splits_batches(self, silent_port):
        client = _client(silent_port)
        script = _Scripted(client, [None, None, None], next_seqs=[0])
        responses = client.submit_with_retry("s", _mods(7), chunk=3)
        assert [len(b) for b in script.submits] == [3, 3, 1]
        assert sum(r["accepted"] for r in responses) == 7
        client.close()

    def test_empty_batch_is_noop(self, silent_port):
        client = _client(silent_port)
        script = _Scripted(client, [], next_seqs=[])
        assert client.submit_with_retry("s", []) == []
        assert script.submits == []
        client.close()

    def test_bad_chunk_rejected(self, silent_port):
        client = _client(silent_port)
        with pytest.raises(ValueError, match="chunk"):
            client.submit_with_retry("s", _mods(2), chunk=0)
        client.close()


class TestBackpressurePrefix:
    SPEC = {
        "generator": "circuit",
        "args": {"num_vertices": 150, "edge_ratio": 1.3, "seed": 7},
    }

    @pytest.mark.parametrize("chunk", [6, None])
    def test_accepted_prefix_is_not_resubmitted(self, chunk, clean_mods):
        """A ``"reject"`` session whose queue fills partway through a
        submit keeps and journals the modifiers before the full one,
        then answers ``backpressure``: the retry resends only the
        rest, so every modifier lands exactly once."""
        with ServerThread(ServerConfig(workers=1)) as server:
            client = _client(server.tcp_port)
            client.create(
                "s", self.SPEC, k=2, target_batch_size=1000,
                queue_capacity=8,
            )
            before = client.attach("s")["next_seq"]
            responses = client.submit_with_retry(
                "s", clean_mods(self.SPEC, 20), chunk=chunk
            )
            after = client.attach("s")["next_seq"]
            client.close()
        assert sum(r["accepted"] for r in responses) == 20
        assert after - before == 20
