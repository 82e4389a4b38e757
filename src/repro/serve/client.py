"""Blocking client for the partition server.

:class:`ServeClient` is intentionally boring: one stdlib TCP socket,
one request/response frame at a time, typed errors surfaced as
:class:`~repro.utils.errors.ServeError` with the server's error code
attached.  It exists so examples, gates, and benchmarks can drive a
:class:`~repro.serve.server.PartitionServer` without touching asyncio —
including from the same process, against a
:class:`~repro.serve.server.ServerThread`.

Failure handling, in three tiers:

* **Typed rejections** (:data:`~repro.serve.protocol.RETRYABLE_CODES`)
  — quota windows, load shedding, ingest backpressure — clear on their
  own.  :meth:`ServeClient.submit_with_retry` backs off (bounded
  exponential delay with *seeded* jitter, so two identical runs retry
  identically), asks the server to flush the session (draining is what
  actually lowers backlog in the simulated-time world), and resubmits
  the slice.  A backpressure reject can follow a queued prefix of the
  slice, so the loop first resyncs as for an ambiguous failure (below)
  and resubmits only the rest.
* **Timeouts** — every request runs under a per-call deadline; when it
  elapses the socket is poisoned (a late response would desynchronize
  the framing), so the client closes it and raises the typed
  :class:`~repro.utils.errors.ServeTimeout`.
* **Ambiguous failures** (:data:`~repro.serve.protocol.
  AMBIGUOUS_CODES`: timeouts, connections lost mid-request, worker
  faults) — the request may have executed before the response was
  lost.  The retry loop reconnects, re-attaches, and compares the
  session's ``next_seq`` against the last acknowledged sequence to
  learn exactly how much of the in-flight slice landed, then resubmits
  only the remainder — exactly-once submission over an at-least-once
  transport.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Callable, List, Optional, Sequence

from repro.graph.modifiers import Modifier
from repro.obs.distrib import TraceRecorder, make_trace_id, wire_trace
from repro.serve.protocol import (
    AMBIGUOUS_CODES,
    E_BACKPRESSURE,
    E_INTERNAL,
    RETRYABLE_CODES,
    encode_frame,
    raise_for_response,
    read_frame,
)
from repro.stream.journal import encode_modifier
from repro.utils.errors import ServeError, ServeTimeout


class ServeClient:
    """Synchronous framed-JSON client bound to one tenant.

    Usable as a context manager; the connection closes on exit.

    Args:
        host / port / tenant: Where and who.
        timeout: Default per-request deadline in seconds (None
            disables it); individual calls may override via their
            ``timeout=`` keyword.
        retry_seed: Seeds the backoff jitter, making retry schedules
            reproducible run-to-run.
        backoff_base / backoff_max: Exponential backoff envelope for
            :meth:`submit_with_retry` (seconds).
        sleep: Injectable sleep for tests (defaults to
            :func:`time.sleep`).
        trace_recorder: Optional :class:`~repro.obs.distrib.
            TraceRecorder`.  When set, every request is stamped with a
            deterministic ``trace`` context (id = per-client op
            counter, never a clock) carried in the wire frame, and the
            client records one ``client.<op>`` root span per call —
            retry attempts of one logical submit share a trace id and
            are distinguished by their ``attempt`` number.  Share the
            recorder with an in-process server (``ServerConfig.
            trace_recorder``) and the server's op/worker/engine spans
            join the same trace under the client root.  None (the
            default) keeps the request path trace-free at the cost of
            one attribute read per call.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        timeout: Optional[float] = 30.0,
        retry_seed: int = 0,
        backoff_base: float = 0.002,
        backoff_max: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
        trace_recorder: Optional[TraceRecorder] = None,
    ):
        if backoff_base <= 0 or backoff_max <= 0:
            raise ValueError("backoff envelope must be positive")
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._rng = random.Random(retry_seed)
        self._sleep = sleep
        self._trace_recorder = trace_recorder
        #: Per-client request counter: the deterministic trace-id
        #: source (two seeded runs number their requests identically).
        self._trace_counter = 0
        self._sock: Optional[socket.socket] = None
        self.reconnect()

    def reconnect(self) -> None:
        """(Re)open the TCP connection, dropping any poisoned socket."""
        self.close()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request plumbing ----------------------------------------------------------

    def call(
        self,
        op: str,
        timeout: Optional[float] = None,
        trace_ctx: Optional[dict] = None,
        **fields,
    ) -> dict:
        """One request/response; raises typed :class:`ServeError` on a
        failure response, :class:`ServeTimeout` when the per-call
        deadline (``timeout`` here, else the constructor default)
        elapses.  Timeouts and mid-request disconnects poison the
        socket — the next call must :meth:`reconnect` first (the retry
        loop does this automatically).

        ``trace_ctx`` (``{"id": ..., "attempt": ...}``) pins this call
        to an existing trace — the retry loop uses it so every attempt
        of one logical submit, plus its resync attaches, shares one
        trace id.  Without it a traced call mints a fresh id from the
        client's request counter.
        """
        if self._sock is None:
            raise ServeError("client is closed")
        request = {"op": op, "tenant": self.tenant}
        request.update(fields)
        recorder = self._trace_recorder
        if recorder is None:
            return self._roundtrip(op, request, timeout)
        if trace_ctx is None:
            trace_id = make_trace_id(
                self.tenant, op, self._trace_counter
            )
            self._trace_counter += 1
            attempt = 0
        else:
            trace_id = trace_ctx["id"]
            attempt = int(trace_ctx.get("attempt", 0))
        span_id = recorder.next_span_id()
        request["trace"] = wire_trace(
            trace_id, parent_span=span_id, attempt=attempt
        )
        start = recorder.now()
        try:
            return self._roundtrip(op, request, timeout)
        finally:
            # Recorded even when the call fails: a timed-out or
            # rejected attempt is exactly what the trace must show.
            recorder.record_span(
                f"client.{op}",
                trace={
                    "id": trace_id,
                    "tenant": self.tenant,
                    "op": op,
                    "attempt": attempt,
                },
                span_id=span_id,
                parent=None,
                depth=0,
                start=start,
                duration=recorder.now() - start,
            )

    def _roundtrip(
        self, op: str, request: dict, timeout: Optional[float]
    ) -> dict:
        """Encode, send, and await one framed request/response."""
        # Encode before touching the socket: an unencodable request
        # (e.g. over MAX_FRAME) is a caller bug, not a transport fault,
        # and must not poison the connection or read as retryable.
        frame = encode_frame(request)
        deadline = self.timeout if timeout is None else timeout
        self._sock.settimeout(deadline)
        try:
            self._sock.sendall(frame)
            response = read_frame(self._sock)
        except socket.timeout:
            self.close()
            raise ServeTimeout(
                f"no response to {op!r} within {deadline}s "
                "(request fate unknown)"
            ) from None
        except (ConnectionResetError, BrokenPipeError) as err:
            self.close()
            raise ServeError(
                f"connection lost during {op!r}: {err}",
                code=E_INTERNAL,
                retryable=True,
            ) from err
        except ServeError as err:
            # Frame-level failure (torn frame, mid-frame EOF): the
            # request was delivered but its answer is unreadable —
            # ambiguous and retryable, on a fresh connection (the
            # stream position of this one is unknowable).
            self.close()
            raise ServeError(
                f"response to {op!r} lost mid-frame: {err}",
                code=E_INTERNAL,
                retryable=True,
            ) from err
        if response is None:
            self.close()
            raise ServeError(
                f"server closed the connection after {op!r} "
                "(response lost)",
                code=E_INTERNAL,
                retryable=True,
            )
        return raise_for_response(response)

    # -- convenience wrappers ------------------------------------------------------

    def hello(self) -> dict:
        return self.call("hello")

    def create(
        self,
        session: str,
        graph: dict,
        k: int,
        seed: int = 0,
        target_batch_size: Optional[int] = None,
        **extra,
    ) -> dict:
        fields = dict(
            session=session, graph=graph, k=k, seed=seed, **extra
        )
        if target_batch_size is not None:
            fields["target_batch_size"] = target_batch_size
        return self.call("create", **fields)

    def attach(
        self, session: str, trace_ctx: Optional[dict] = None
    ) -> dict:
        return self.call("attach", session=session, trace_ctx=trace_ctx)

    def submit(
        self,
        session: str,
        modifiers: Sequence[Modifier],
        timeout: Optional[float] = None,
        trace_ctx: Optional[dict] = None,
    ) -> dict:
        return self.call(
            "submit",
            session=session,
            timeout=timeout,
            trace_ctx=trace_ctx,
            modifiers=[encode_modifier(m) for m in modifiers],
        )

    def flush(
        self,
        session: str,
        drain: bool = True,
        trace_ctx: Optional[dict] = None,
    ) -> dict:
        return self.call(
            "flush", session=session, drain=drain, trace_ctx=trace_ctx
        )

    def checkpoint(self, session: str) -> dict:
        return self.call("checkpoint", session=session)

    def evict(self, session: str) -> dict:
        return self.call("evict", session=session)

    def digest(self, session: str) -> dict:
        return self.call("digest", session=session)

    def metrics(self) -> dict:
        return self.call("metrics")

    def stats(self) -> dict:
        return self.call("stats")

    def kill_worker(self, index: int, reason: str = "chaos") -> dict:
        """Chaos op (server must run with ``enable_chaos``)."""
        return self.call("kill-worker", worker=index, reason=reason)

    # -- retry loop ----------------------------------------------------------------

    def _backoff(self, attempt: int) -> None:
        """Sleep the bounded-exponential, seeded-jitter delay for
        ``attempt`` (0-based).  Jitter draws from the client's seeded
        RNG, so a rerun with the same seed backs off identically."""
        ceiling = min(
            self.backoff_max, self.backoff_base * (2**attempt)
        )
        self._sleep(ceiling * (0.5 + 0.5 * self._rng.random()))

    def submit_with_retry(
        self,
        session: str,
        modifiers: Sequence[Modifier],
        max_attempts: int = 16,
        chunk: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[dict]:
        """Submit exactly-once through retryable failures.

        Submits ``modifiers`` (in ``chunk``-sized slices when given)
        with ``max_attempts`` bounded attempts per slice and jittered
        exponential backoff between attempts.  Four recovery paths:

        * pre-engine rejections (shed / quota): flush the session — the
          act that drains backlog in simulated time — and resubmit the
          same slice;
        * backpressure: the reject comes mid-execution, after the
          session may already have queued and journaled a prefix of
          the slice, so resync on ``next_seq`` (as below), then flush
          and resubmit only the unlanded suffix;
        * ambiguous failures (timeout, lost connection, worker fault):
          reconnect, re-attach, and resync on the session's
          ``next_seq`` so only the unlanded suffix is resubmitted —
          never a duplicate, never a gap;
        * non-retryable errors propagate immediately.

        A resynced slice that turns out to have fully landed yields a
        synthesized response with ``"resynced": True`` so accepted
        counts still sum to ``len(modifiers)``.

        With a trace recorder attached, each slice gets one trace id;
        every attempt (and each attempt's resync attach or recovery
        flush) carries that id with an increasing ``attempt`` number,
        so the exported trace links the whole retry history of one
        logical submit.
        """
        responses: List[dict] = []
        pending = list(modifiers)
        if not pending:
            return responses
        size = len(pending) if chunk is None else chunk
        if size < 1:
            raise ValueError("chunk must be >= 1")
        # Sequence baseline for ambiguity resolution: everything below
        # next_seq at this instant is previous traffic, not ours.
        next_seq = self.attach(session).get("next_seq")
        while pending:
            batch, rest = pending[:size], pending[size:]
            slice_trace: Optional[dict] = None
            if self._trace_recorder is not None:
                slice_trace = {
                    "id": make_trace_id(
                        self.tenant, "submit", self._trace_counter
                    )
                }
                self._trace_counter += 1
            for attempt in range(max_attempts):
                # Only supply trace_ctx when tracing is on: untraced
                # calls keep the pre-tracing signature.
                traced = (
                    {}
                    if slice_trace is None
                    else {
                        "trace_ctx": {
                            "id": slice_trace["id"],
                            "attempt": attempt,
                        }
                    }
                )
                trace_ctx = traced.get("trace_ctx")
                try:
                    response = self.submit(
                        session, batch, timeout=timeout, **traced
                    )
                    responses.append(response)
                    next_seq = response["last_seq"] + 1
                    break
                except ServeError as err:
                    retryable = (
                        err.retryable or err.code in RETRYABLE_CODES
                    )
                    if not retryable or attempt == max_attempts - 1:
                        raise
                    self._backoff(attempt)
                    if self._sock is None:
                        self.reconnect()
                    if err.code in AMBIGUOUS_CODES or err.code == E_BACKPRESSURE:
                        # Backpressure can follow a queued, journaled
                        # prefix of the slice: keep only the rest.
                        batch, next_seq, landed = self._resync(
                            session, batch, next_seq, trace_ctx
                        )
                        if landed is not None:
                            responses.append(landed)
                        if not batch:
                            break
                    if err.code not in AMBIGUOUS_CODES:
                        # Typed reject: drain, then retry.
                        self.flush(session, drain=True, **traced)
            pending = rest
        return responses

    def _resync(
        self,
        session: str,
        batch: List[Modifier],
        expected_next: Optional[int],
        trace_ctx: Optional[dict] = None,
    ):
        """Resolve an ambiguous failure: how much of ``batch`` landed?

        Re-attaches (which also rides out a failover — the restored
        session answers) and compares the server's ``next_seq`` to the
        last acknowledged one.  Returns the unlanded suffix, the new
        baseline, and a synthesized response covering the landed prefix
        (None when nothing landed).
        """
        if trace_ctx is None:
            info = self.attach(session)
        else:
            info = self.attach(session, trace_ctx=trace_ctx)
        observed = info.get("next_seq")
        if expected_next is None or observed is None:
            return batch, observed, None
        landed = min(max(observed - expected_next, 0), len(batch))
        if landed == 0:
            return batch, observed, None
        synthesized = {
            "ok": True,
            "accepted": landed,
            "first_seq": expected_next,
            "last_seq": expected_next + landed - 1,
            "resynced": True,
        }
        return batch[landed:], observed, synthesized
