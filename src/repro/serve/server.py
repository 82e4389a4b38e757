"""The multi-tenant partition server (asyncio front-end).

``PartitionServer`` hosts many tenants, each owning journaled
:class:`~repro.stream.session.StreamSession`\\ s multiplexed over a
shared pool of simulated devices (:class:`~repro.serve.registry.
DeviceWorker`).  Two listeners:

* a TCP listener speaking the framed JSON protocol of
  :mod:`repro.serve.protocol` (one request/response per frame,
  pipelined per connection);
* an HTTP listener with ``GET /metrics`` (Prometheus text format
  0.0.4, every per-tenant series carrying a ``tenant`` label) and
  ``GET /healthz``.

Request path, in order — each stage rejects with a *typed* code before
any later stage runs, so a rejected request never touches engine state:

1. **parse** — malformed frames and unknown ops (``bad-request`` /
   ``unknown-op``);
2. **shed** — global backlog hysteresis (``shed-overload``), submits
   only: drains always pass;
3. **admit** — per-tenant quotas (``quota-sessions`` /
   ``quota-queue`` / ``quota-cycles``);
4. **execute** — on the session's device worker; the ledger cycle
   delta is charged to ``(worker, tenant)``.

Every op runs start to finish on the event loop thread: only frame I/O
awaits, so one op never interleaves with another.  That is the
faithful model of the shared device, which executes one kernel stream
at a time, and it needs no lock; keeping the engine loop-confined also
means no cross-thread ledger races.  Any failure an op raises is
answered with a typed error on the same connection.

The server never calls wall-clock time: idle eviction uses the
registry's op counter, budget windows use worker cycle clocks, and the
scheduler deadline stays disabled unless a session opts in — which is
what makes hosted runs bit-identical to standalone ones.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, Optional

from repro.obs.dashboard import render_dashboard
from repro.obs.distrib import (
    FlightRecorder,
    TraceRecorder,
    make_trace_id,
    parse_wire_trace,
)
from repro.obs.metrics import (
    MetricsRegistry,
    merge_into,
    to_prometheus_labeled,
)
from repro.obs.tracer import Tracer, span
from repro.serve.protocol import (
    E_BACKPRESSURE,
    E_BAD_REQUEST,
    E_INTERNAL,
    E_SHED_OVERLOAD,
    E_UNKNOWN_OP,
    E_UNKNOWN_TENANT,
    encode_frame,
    error_response,
    ok_response,
    read_frame_async,
    write_frame_async,
)
from repro.serve.quotas import (
    SERVE_LATENCY_OPS,
    TenantAccount,
    TenantQuota,
)
from repro.serve.registry import (
    SessionEntry,
    SessionRegistry,
    check_name,
    partition_sha256,
)
from repro.serve.shedding import LoadShedder, ShedPolicy
from repro.serve.supervision import WorkerSupervisor
from repro.stream.ingest import POLICIES
from repro.stream.journal import decode_modifier
from repro.utils.errors import (
    BackpressureError,
    ReproError,
    ServeError,
    WorkerFault,
)
from repro.utils.faultinject import ServeFaultPlan

#: Protocol/server version reported by the ``hello`` op.
SERVE_PROTOCOL_VERSION = 1


@dataclass
class _RequestTrace:
    """Per-request distributed-trace bookkeeping.

    Held by the server for the one op in flight: ops run to completion
    on the loop thread, so no other request can see it.
    """

    trace_id: str
    op: str
    tenant: str
    attempt: int = 0
    #: The client span id carried on the wire (this op span's parent).
    parent: Optional[int] = None
    #: This request's op span id (None when only the flight ring is on).
    span_id: Optional[int] = None
    depth: int = 0
    start: float = 0.0
    #: Settled ledger cycles accumulated while handling this request.
    cycles: float = 0.0
    worker: Optional[int] = None

    def context(self, worker: Optional[int] = None) -> dict:
        """The ``trace`` dict stamped on every span of this request."""
        out: dict = {
            "id": self.trace_id,
            "op": self.op,
            "attempt": self.attempt,
        }
        if self.tenant:
            out["tenant"] = self.tenant
        index = worker if worker is not None else self.worker
        if index is not None:
            out["worker"] = index
        return out


@dataclass(frozen=True)
class ServerConfig:
    """Everything a :class:`PartitionServer` needs to boot.

    Attributes:
        host: Bind address for both listeners.
        port / http_port: TCP ports (0 = ephemeral; read the bound
            ports off ``server.tcp_port`` / ``server.http_port``).
        data_dir: Root for per-session journals
            (``<data_dir>/<tenant>/<session>/``); None uses a
            process-lifetime temporary directory.
        workers: Simulated devices in the shared pool.
        default_quota: Quota for tenants not named in ``quotas``.
        quotas: Per-tenant quota overrides.
        shed: Global load-shedding policy.
        idle_evict_after_ops: Evict sessions untouched for this many
            registry operations (0 disables idle eviction).
        auto_register_tenants: Unknown tenants get an account with
            ``default_quota`` on first use; when False they are
            rejected with ``unknown-tenant``.
        recover: Re-materialize every session ``data_dir`` holds a
            checkpoint of before the listeners open (the
            disaster-recovery path; requires a persistent
            ``data_dir``).
        enable_chaos: Accept the ``kill-worker`` chaos op and honor an
            injected ``fault_plan``.  Off by default — a production
            server must not expose a remote kill switch.
        fault_plan: Armed :class:`~repro.utils.faultinject.
            ServeFaultPlan` whose faults fire at the execute/response
            stages (ignored unless ``enable_chaos``).
        trace_recorder: Shared :class:`~repro.obs.distrib.
            TraceRecorder` joining server/worker/engine spans to the
            client's; None (the default) disables tracing — every
            trace branch then costs one attribute read.
        flight_capacity: Ring size of the crash flight recorder; 0
            (the default) disables it.  When on, the ring is dumped to
            ``data_dir/flightrec-*.jsonl`` on chaos faults, worker
            death, and unclean shutdown.
    """

    host: str = "127.0.0.1"
    port: int = 0
    http_port: int = 0
    data_dir: Optional[str] = None
    workers: int = 1
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: Optional[Dict[str, TenantQuota]] = None
    shed: ShedPolicy = field(default_factory=ShedPolicy)
    idle_evict_after_ops: int = 0
    auto_register_tenants: bool = True
    recover: bool = False
    enable_chaos: bool = False
    fault_plan: Optional[ServeFaultPlan] = None
    trace_recorder: Optional[TraceRecorder] = None
    flight_capacity: int = 0


class PartitionServer:
    """Multi-tenant streaming partition service over shared devices."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig()
        if self.config.data_dir is not None:
            self._tmpdir: Optional[TemporaryDirectory] = None
            data_dir = Path(self.config.data_dir)
        else:
            self._tmpdir = TemporaryDirectory(prefix="repro-serve-")
            data_dir = Path(self._tmpdir.name)
        self.registry = SessionRegistry(
            data_dir,
            workers=self.config.workers,
            idle_evict_after_ops=self.config.idle_evict_after_ops,
        )
        self.tenants: Dict[str, TenantAccount] = {}
        for name in sorted(self.config.quotas or {}):
            self.tenants[name] = TenantAccount(
                name, self.config.quotas[name]
            )
        self.metrics = MetricsRegistry()
        self.shedder = LoadShedder(self.config.shed, self.metrics)
        self._connections = self.metrics.counter(
            "serve_connections_total", "TCP protocol connections accepted"
        )
        self._requests = self.metrics.counter(
            "serve_requests_total", "protocol requests handled"
        )
        self._rejected = self.metrics.counter(
            "serve_rejected_total", "requests rejected with a typed error"
        )
        self._evictions = self.metrics.counter(
            "serve_evictions_total", "session evictions (explicit + idle)"
        )
        self._scrapes = self.metrics.counter(
            "serve_http_scrapes_total", "GET /metrics requests served"
        )
        self._sessions_gauge = self.metrics.gauge(
            "serve_sessions_live", "live sessions across all tenants"
        )
        self.supervisor = WorkerSupervisor(
            self.registry,
            self.metrics,
            shedder=self.shedder,
            on_recovery=self._on_recovery,
            on_worker_dead=self._on_worker_dead,
        )
        self.fault_plan = (
            self.config.fault_plan if self.config.enable_chaos else None
        )
        self.recorder = self.config.trace_recorder
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder(
                capacity=self.config.flight_capacity, session="serve"
            )
            if self.config.flight_capacity > 0
            else None
        )
        self._flight_dumps = self.metrics.counter(
            "serve_flight_dumps_total",
            "flight-recorder dumps written on faults/crashes",
        )
        #: Server-minted trace ids for untraced requests (a counter,
        #: never wall clock, so seeded runs stay bit-identical).
        self._trace_counter = 0
        #: Set by :meth:`_crash`: the process "died" — shutdown must
        #: skip every graceful-close step so the journals are left
        #: exactly as a real crash would.
        self.crashed = False
        self._op_in_flight: Optional[str] = None
        #: The in-flight request's trace context (None when untraced).
        self._tctx: Optional[_RequestTrace] = None
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        self._http_server: Optional[asyncio.base_events.Server] = None
        #: Open connections' writers and their handler tasks, ended by
        #: :meth:`stop`.
        self._handlers: Dict[asyncio.StreamWriter, asyncio.Task] = {}

    # -- lifecycle -----------------------------------------------------------------

    @property
    def tcp_port(self) -> int:
        if self._tcp_server is None:
            raise ServeError("server is not started")
        return self._tcp_server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> int:
        if self._http_server is None:
            raise ServeError("server is not started")
        return self._http_server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        cfg = self.config
        if cfg.recover:
            self.recover_sessions()
        self._tcp_server = await asyncio.start_server(
            self._handle_protocol, host=cfg.host, port=cfg.port
        )
        self._http_server = await asyncio.start_server(
            self._handle_http, host=cfg.host, port=cfg.http_port
        )

    def recover_sessions(self) -> list:
        """Re-materialize every checkpointed session (crash recovery).

        Runs before the listeners open, so the first request a client
        sends after restart already sees its sessions.  Each session
        rebuilt from a journal counts as a per-tenant recovery, with the
        replay's ledger cycles attributed as recovery cost.
        """
        recovered = self.registry.recover_entries()
        for entry in recovered:
            account = self.tenant(entry.tenant)
            if entry.recoveries > 0:
                # charged_cycles on the fresh post-recover ledger is
                # exactly the journal replay's cost.
                account.record_recovery(entry.charged_cycles)
            account.charge_cycles(entry.charged_cycles)
            self._record_replay(
                "serve.recover.replay", entry, entry.charged_cycles
            )
        return recovered

    def _on_recovery(
        self, entry: SessionEntry, replay_cycles: float
    ) -> None:
        """Supervisor callback: attribute a failover to its tenant."""
        account = self.tenant(entry.tenant)
        account.record_recovery(replay_cycles)
        account.charge_cycles(replay_cycles)
        self._record_replay(
            "serve.failover.replay", entry, replay_cycles
        )

    def _record_replay(
        self, name: str, entry: SessionEntry, replay_cycles: float
    ) -> None:
        """Trace + flight-record one journal replay (boot recovery or
        failover), re-attached under the session's *originating* trace
        so a trace query for the create shows its afterlife too."""
        trace_id = entry.origin_trace or make_trace_id(
            entry.tenant, entry.name, 0
        )
        recorder = self.recorder
        if recorder is not None:
            recorder.record_span(
                name,
                trace={
                    "id": trace_id,
                    "tenant": entry.tenant,
                    "op": "replay",
                    "worker": entry.worker.index,
                },
                start=recorder.now(),
                duration=0.0,
                device_cycles=replay_cycles,
            )
        if self.flight is not None:
            self.flight.record(
                "recovery",
                name=name,
                tenant=entry.tenant,
                session=entry.name,
                trace=trace_id,
                replay_cycles=replay_cycles,
            )

    def _on_worker_dead(self, worker) -> None:
        """Supervisor callback: a dead worker is about to be drained —
        dump the flight ring so the black box survives the failover."""
        if self.flight is None:
            return
        self.flight.record(
            "worker_dead", worker=worker.index, fault=worker.fault
        )
        self._dump_flight(f"worker-{worker.index}-dead")

    def _dump_flight(self, reason: str) -> Optional[Path]:
        """Write the flight ring into the data dir (None when off)."""
        flight = self.flight
        if flight is None:
            return None
        path = flight.dump(self.registry.data_dir, reason)
        self._flight_dumps.inc()
        return path

    def _crash(self) -> None:
        """Simulate a process kill: listeners vanish, nothing is
        flushed, suspended, or closed gracefully."""
        if self.flight is not None:
            self.flight.record("crash", reason="crash_after_wal")
            self._dump_flight("crash")
        self.crashed = True
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        self._tcp_server = None
        self._http_server = None
        asyncio.get_running_loop().stop()

    async def stop(self) -> None:
        servers = [
            s for s in (self._tcp_server, self._http_server) if s is not None
        ]
        for server in servers:
            server.close()
        # End the connections first: from Python 3.12, wait_closed() also
        # waits for every accepted connection to close, so a client still
        # connected would hold it forever.  Each handler then reads EOF
        # and returns; awaiting it leaves nothing to cancel.
        handlers = list(self._handlers.values())
        for writer in list(self._handlers):
            writer.close()
        await asyncio.gather(*handlers, return_exceptions=True)
        for server in servers:
            await server.wait_closed()
        self._tcp_server = None
        self._http_server = None
        self.registry.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # -- tenant accounts -----------------------------------------------------------

    def tenant(self, name: str) -> TenantAccount:
        account = self.tenants.get(name)
        if account is None:
            check_name("tenant", name)
            if not self.config.auto_register_tenants:
                raise ServeError(
                    f"unknown tenant {name!r}", code=E_UNKNOWN_TENANT
                )
            account = TenantAccount(name, self.config.default_quota)
            self.tenants[name] = account
        return account

    def _publish_usage(self) -> None:
        """Refresh the usage and resilience gauges; every reader of
        them (``metrics``, ``stats``, the scrape) calls this first."""
        live_total = 0
        for name in sorted(self.tenants):
            account = self.tenants[name]
            entries = self.registry.entries_for(name)
            live = self.registry.live_session_count(name)
            account.publish_usage(
                live, self.registry.queued_modifiers(name)
            )
            account.publish_resilience(
                sum(e.quarantined for e in entries),
                sum(e.dead_lettered for e in entries),
            )
            live_total += live
        self._sessions_gauge.set(live_total)

    # -- protocol listener ---------------------------------------------------------

    async def _handle_protocol(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._connections.inc()
        self._handlers[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await read_frame_async(reader)
                except ServeError as err:
                    await write_frame_async(
                        writer, error_response(err.code, str(err))
                    )
                    break
                if request is None:
                    break
                response = self._dispatch(request)
                if await self._send_response(writer, request, response):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished; nothing to answer
        finally:
            del self._handlers[writer]
            writer.close()

    async def _send_response(
        self,
        writer: asyncio.StreamWriter,
        request: dict,
        response: dict,
    ) -> bool:
        """Write one response frame, honoring any armed response-stage
        fault.  Returns True when the connection must close.

        Every fault here fires *after* the op executed and journaled —
        the state is durable, only the ack is lost — which is exactly
        the ambiguity window retrying clients must survive.
        """
        plan = self.fault_plan
        fault = (
            plan.take("response", request.get("op"))
            if plan is not None
            else None
        )
        if fault is None:
            await write_frame_async(writer, response)
            return False
        if self.flight is not None:
            self.flight.record(
                "fault",
                stage="response",
                fault=fault.kind,
                op=request.get("op"),
            )
            if fault.kind != "crash_after_wal":
                # crash_after_wal dumps inside _crash, with the crash
                # event ringed after the fault event.
                self._dump_flight(f"fault-{fault.kind}")
        if fault.kind == "delay_response":
            await asyncio.sleep(fault.delay)
            await write_frame_async(writer, response)
            return False
        if fault.kind == "drop_connection":
            return True
        if fault.kind == "torn_response":
            frame = encode_frame(response)
            writer.write(frame[: plan.torn_length(fault, len(frame))])
            await writer.drain()
            return True
        # crash_after_wal: the whole process dies between the durable
        # write and the ack.
        self._crash()
        return True

    def _dispatch(self, request: dict) -> dict:
        self._requests.inc()
        op = request.get("op")
        handler = _OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            self._rejected.inc()
            if self.flight is not None:
                self.flight.record(
                    "reject", op=str(op), code=E_UNKNOWN_OP
                )
            return error_response(
                E_UNKNOWN_OP, f"unknown op {op!r}"
            )
        self._op_in_flight = op
        started = time.perf_counter()
        try:
            tctx = self._trace_begin(request, op)
        except ValueError as err:
            self._rejected.inc()
            self._op_in_flight = None
            return error_response(
                E_BAD_REQUEST, f"malformed trace context: {err}"
            )
        self._tctx = tctx
        try:
            response = handler(self, request)
        except ServeError as err:
            self._rejected.inc()
            tenant = request.get("tenant")
            if isinstance(tenant, str) and tenant in self.tenants:
                self.tenants[tenant].record_reject()
            if self.flight is not None:
                self.flight.record(
                    "reject", op=op, tenant=tenant, code=err.code
                )
            response = error_response(err.code, str(err))
        except BackpressureError as err:
            self._rejected.inc()
            response = error_response(E_BACKPRESSURE, str(err))
        except Exception as err:
            self._rejected.inc()
            # Answered, so the loop never sees it: report the traceback
            # as asyncio would have reported it.
            asyncio.get_running_loop().call_exception_handler(
                {"message": f"op {op!r} failed", "exception": err}
            )
            response = error_response(
                E_INTERNAL, f"{type(err).__name__}: {err}"
            )
        finally:
            self._tctx = None
            self._op_in_flight = None
        self._finish_request(
            tctx, op, request, response, time.perf_counter() - started
        )
        # Supervision before the response leaves: a worker that died
        # during this op has its sessions restored on survivors *now*,
        # so the client's retry of the failed (retryable) request finds
        # the session already failed over.
        try:
            self.supervisor.sweep()
        except ServeError:
            # Every worker is dead: nothing to drain onto.  The pool
            # stays degraded (healthz 503) and execution ops keep
            # failing typed until a restart recovers from journals.
            pass
        evicted = self.registry.sweep_idle()
        if evicted:
            self._evictions.inc(len(evicted))
        return response

    # -- request tracing -----------------------------------------------------------

    def _trace_begin(
        self, request: dict, op
    ) -> Optional[_RequestTrace]:
        """Open the request's trace context (None when tracing and the
        flight ring are both off — the zero-cost path).

        A malformed wire ``trace`` raises ``ValueError``, which dispatch
        maps to a typed ``bad-request``: a corrupt trace header must
        never be silently treated as an untraced request.
        """
        recorder = self.recorder
        flight = self.flight
        if recorder is None and flight is None:
            return None
        wire = parse_wire_trace(request)
        tenant = request.get("tenant")
        tenant = tenant if isinstance(tenant, str) else ""
        if wire is not None:
            trace_id = wire["id"]
            parent = wire["parent"]
            attempt = wire["attempt"]
        else:
            # Untraced client: mint a server-side id so the request's
            # spans still group (a counter, never clock or RNG).
            trace_id = make_trace_id(
                tenant or "-", str(op), self._trace_counter
            )
            self._trace_counter += 1
            parent = None
            attempt = 0
        tctx = _RequestTrace(
            trace_id=trace_id,
            op=str(op),
            tenant=tenant,
            attempt=attempt,
            parent=parent,
        )
        if recorder is not None:
            tctx.span_id = recorder.next_span_id()
            tctx.depth = 1 if parent is not None else 0
            tctx.start = recorder.now()
        if flight is not None:
            flight.record(
                "request",
                op=str(op),
                tenant=tenant,
                trace=trace_id,
                attempt=attempt,
            )
        return tctx

    def _finish_request(
        self,
        tctx: Optional[_RequestTrace],
        op,
        request: dict,
        response: dict,
        elapsed: float,
    ) -> None:
        """Close out one dispatched request: latency histogram, op
        span (with its settled cycle attribution), flight records."""
        if isinstance(op, str) and op in SERVE_LATENCY_OPS:
            tenant = request.get("tenant")
            account = (
                self.tenants.get(tenant)
                if isinstance(tenant, str)
                else None
            )
            if account is not None:
                account.observe_op_latency(op, elapsed)
        if tctx is None:
            return
        recorder = self.recorder
        event = None
        if recorder is not None:
            event = recorder.record_span(
                f"serve.{tctx.op}",
                trace=tctx.context(),
                span_id=tctx.span_id,
                parent=tctx.parent,
                depth=tctx.depth,
                start=tctx.start,
                duration=recorder.now() - tctx.start,
                device_cycles=tctx.cycles,
            )
        flight = self.flight
        if flight is not None:
            if event is not None:
                flight.note_span(event)
            flight.record(
                "response",
                op=tctx.op,
                ok=bool(response.get("ok")),
                code=response.get("code"),
                trace=tctx.trace_id,
            )

    def _charge(
        self, entry: SessionEntry, account: TenantAccount
    ) -> float:
        """Settle the entry's ledger delta onto worker + tenant,
        mirroring it into the in-flight request's trace context —
        the same float, so op-span attribution is bit-exact against
        ``serve_tenant_device_cycles_total``."""
        delta = self.registry.settle_cycles(entry)
        account.charge_cycles(delta)
        tctx = self._tctx
        if tctx is not None:
            tctx.cycles += delta
            tctx.worker = entry.worker.index
        return delta

    def _traced(self, fn, entry: Optional[SessionEntry] = None):
        """Run ``fn()`` with an engine tracer active and fold its spans
        under the in-flight request's op span (plain ``fn()`` when the
        request is not traced).

        With ``entry``, ``fn`` is the session's execute stage: it runs
        in a ``serve.worker.execute`` span whose tracer reads the
        session's ledger, and its spans carry the worker index.
        Without one it is registry work (session construction,
        re-attach, eviction), whose cycles settle through
        :meth:`_charge`, so the tracer carries no ledger.
        """
        recorder = self.recorder
        tctx = self._tctx
        if recorder is None or tctx is None:
            return fn()
        ledger = worker = None
        if entry is not None:
            ledger = entry.session.partitioner.ctx.ledger
            worker = entry.worker.index
        tracer = Tracer(ledger=ledger, session=tctx.trace_id)
        offset = recorder.now()
        try:
            with tracer.activate():
                if entry is None:
                    return fn()
                with span("serve.worker.execute"):
                    return fn()
        finally:
            # Fold even on failure: a faulted execute keeps its partial
            # engine spans, which is what the post-mortem wants.
            recorder.fold(
                tracer.events,
                trace=tctx.context(worker=worker),
                parent=tctx.span_id,
                base_depth=tctx.depth + 1,
                start_offset=offset,
            )

    # -- op helpers ----------------------------------------------------------------

    @staticmethod
    def _require_str(request: dict, key: str) -> str:
        value = request.get(key)
        if not isinstance(value, str) or not value:
            raise ServeError(
                f"request is missing string field {key!r}",
                code=E_BAD_REQUEST,
            )
        return value

    def _entry_for(self, request: dict) -> SessionEntry:
        """Resolve (tenant, session), transparently re-attaching; the
        journal recovery of a re-attach is traced under the request."""
        tenant = self._require_str(request, "tenant")
        name = self._require_str(request, "session")
        self.tenant(tenant)  # registers or rejects
        # A revive records its own span: StreamSession.recover's.
        return self._traced(lambda: self.registry.attach(tenant, name))

    def _run_on_worker(
        self, entry: SessionEntry, account: TenantAccount, fn
    ):
        """Execute ``fn()`` on the session's device worker, then settle
        the ledger delta onto both the worker (attribution) and the
        tenant account (metrics + window budget).

        Worker faults surface here: an injected ``worker_abort`` kills
        the worker *before* the op touches session state, and any
        non-library exception from the engine is treated as a device
        loss (fail-stop) — both raise the retryable
        :class:`~repro.utils.errors.WorkerFault`, and the dispatch
        loop's supervisor sweep restores the lost sessions before the
        error response is sent.
        """
        if not entry.worker.alive:
            raise WorkerFault(
                f"device worker {entry.worker.index} is dead "
                f"({entry.worker.fault})"
            )
        plan = self.fault_plan
        fault = (
            plan.take("execute", self._op_in_flight)
            if plan is not None
            else None
        )
        if fault is not None:
            entry.worker.fail(f"injected {fault.kind}")
            if self.flight is not None:
                self.flight.record(
                    "fault",
                    stage="execute",
                    fault=fault.kind,
                    op=self._op_in_flight,
                    worker=entry.worker.index,
                )
                self._dump_flight(f"fault-{fault.kind}")
            raise WorkerFault(
                f"device worker {entry.worker.index} aborted "
                "(injected fault)"
            )
        try:
            return self._traced(fn, entry)
        except ReproError:
            raise
        except Exception as err:
            entry.worker.fail(f"{type(err).__name__}: {err}")
            raise WorkerFault(
                f"device worker {entry.worker.index} faulted: "
                f"{type(err).__name__}: {err}"
            ) from err
        finally:
            self._charge(entry, account)

    def _settle(
        self, entry: SessionEntry, account: TenantAccount
    ) -> None:
        self._run_on_worker(entry, account, lambda: None)

    # -- ops -----------------------------------------------------------------------

    def _op_hello(self, request: dict) -> dict:
        return ok_response(
            server="repro-serve",
            protocol=SERVE_PROTOCOL_VERSION,
            workers=len(self.registry.workers),
        )

    def _op_create(self, request: dict) -> dict:
        tenant_name = self._require_str(request, "tenant")
        session_name = self._require_str(request, "session")
        account = self.tenant(tenant_name)
        account.record_request()
        code = account.admit_session(
            self.registry.live_session_count(tenant_name)
        )
        if code is not None:
            raise ServeError(
                f"tenant {tenant_name!r} is at its session quota "
                f"({account.quota.max_sessions})",
                code=code,
            )
        graph_spec = request.get("graph")
        k = request.get("k")
        if not isinstance(k, int) or k < 2:
            raise ServeError(
                "create needs an integer k >= 2", code=E_BAD_REQUEST
            )
        target = request.get("target_batch_size")
        if target is not None and (
            not isinstance(target, int) or target < 1
        ):
            raise ServeError(
                "target_batch_size must be a positive integer",
                code=E_BAD_REQUEST,
            )
        seed = request.get("seed", 0)
        if not isinstance(seed, int):
            raise ServeError("seed must be an integer", code=E_BAD_REQUEST)
        capacity = request.get("queue_capacity", 4096)
        if not isinstance(capacity, int) or capacity < 1:
            raise ServeError(
                "queue_capacity must be a positive integer",
                code=E_BAD_REQUEST,
            )
        policy = request.get("policy", "reject")
        if policy not in POLICIES:
            raise ServeError(
                f"policy must be one of {POLICIES}", code=E_BAD_REQUEST
            )
        tctx = self._tctx

        def construct():
            with span("serve.registry.create"):
                return self.registry.create(
                    tenant_name,
                    session_name,
                    graph_spec,
                    k=k,
                    seed=seed,
                    target_batch_size=target,
                    queue_capacity=capacity,
                    policy=policy,
                    origin_trace=(
                        tctx.trace_id if tctx is not None else None
                    ),
                )

        # Construction runs before the session has a worker, so it is
        # traced as registry work; its cycles settle via _settle.
        entry = self._traced(construct)
        self._settle(entry, account)
        return ok_response(
            cut=entry.session.cut_size(),
            worker=entry.worker.index,
        )

    def _op_attach(self, request: dict) -> dict:
        tenant_name = self._require_str(request, "tenant")
        account = self.tenant(tenant_name)
        account.record_request()
        entry = self._entry_for(request)
        self._settle(entry, account)
        return ok_response(**self.registry.info(entry))

    def _op_submit(self, request: dict) -> dict:
        tenant_name = self._require_str(request, "tenant")
        account = self.tenant(tenant_name)
        account.record_request()
        raw = request.get("modifiers")
        if not isinstance(raw, list) or not raw:
            raise ServeError(
                "submit needs a non-empty modifiers list",
                code=E_BAD_REQUEST,
            )
        try:
            modifiers = [decode_modifier(record) for record in raw]
        except (ReproError, TypeError, KeyError) as err:
            raise ServeError(
                f"undecodable modifier: {err}", code=E_BAD_REQUEST
            ) from err
        # Stage 2: global shedding — before the session is even
        # attached, so an evicted session is not re-hydrated just to
        # have its submit shed.
        if self.shedder.should_shed_submit(
            self.registry.queued_modifiers()
        ):
            account.record_shed()
            raise ServeError(
                "server is shedding submits under backlog pressure "
                "(back off and resubmit)",
                code=E_SHED_OVERLOAD,
            )
        entry = self._entry_for(request)
        # Stage 3: tenant quotas.
        code = account.admit_submit(
            self.registry.queued_modifiers(tenant_name),
            len(modifiers),
            entry.worker.total_cycles,
        )
        if code is not None:
            raise ServeError(
                f"tenant {tenant_name!r} quota {code} rejected a "
                f"{len(modifiers)}-modifier submit",
                code=code,
            )

        def work():
            return entry.session.submit_many(modifiers)

        seqs = self._run_on_worker(entry, account, work)
        return ok_response(
            accepted=len(seqs),
            first_seq=seqs[0],
            last_seq=seqs[-1],
            queue_depth=entry.session.queue.depth,
            applied_seq=entry.session.applied_seq,
        )

    def _op_flush(self, request: dict) -> dict:
        tenant_name = self._require_str(request, "tenant")
        account = self.tenant(tenant_name)
        account.record_request()
        entry = self._entry_for(request)
        drain = bool(request.get("drain", True))

        def work():
            if drain:
                return entry.session.drain()
            report = entry.session.flush()
            return [report] if report is not None else []

        reports = self._run_on_worker(entry, account, work)
        return ok_response(
            flushed_windows=len(reports),
            applied=sum(r.applied_count for r in reports),
            cut=entry.session.cut_size(),
            queue_depth=entry.session.queue.depth,
            applied_seq=entry.session.applied_seq,
        )

    def _op_checkpoint(self, request: dict) -> dict:
        tenant_name = self._require_str(request, "tenant")
        account = self.tenant(tenant_name)
        account.record_request()
        entry = self._entry_for(request)

        def work():
            entry.session.checkpoint()
            return None

        self._run_on_worker(entry, account, work)
        return ok_response(
            checkpoints=entry.session.telemetry.checkpoints_written
        )

    def _op_evict(self, request: dict) -> dict:
        tenant_name = self._require_str(request, "tenant")
        account = self.tenant(tenant_name)
        account.record_request()
        name = self._require_str(request, "session")
        entry = self.registry.get(tenant_name, name)
        was_live = entry.live
        self._charge(entry, account)
        # The evict's checkpoint is traced as stream.checkpoint.
        self._traced(lambda: self.registry.evict(tenant_name, name))
        if was_live:
            self._evictions.inc()
        return ok_response(evicted=was_live)

    def _op_digest(self, request: dict) -> dict:
        tenant_name = self._require_str(request, "tenant")
        account = self.tenant(tenant_name)
        account.record_request()
        entry = self._entry_for(request)
        digest = self._run_on_worker(
            entry,
            account,
            lambda: partition_sha256(entry.session.partition),
        )
        return ok_response(
            sha256=digest,
            cut=entry.session.cut_size(),
            applied_seq=entry.session.applied_seq,
        )

    def _op_metrics(self, request: dict) -> dict:
        tenant_name = self._require_str(request, "tenant")
        account = self.tenant(tenant_name)
        account.record_request()
        self._publish_usage()
        return ok_response(
            metrics=self._tenant_registry(tenant_name).as_dict()
        )

    def _op_stats(self, request: dict) -> dict:
        self._publish_usage()
        return ok_response(
            sessions=len(self.registry),
            op_counter=self.registry.op_counter,
            tenants=sorted(self.tenants),
            shedding=self.shedder.shedding,
            backlog=self.registry.queued_modifiers(),
            workers=[w.as_dict() for w in self.registry.workers],
            supervisor=self.supervisor.status(),
            server_metrics=self.metrics.as_dict(),
        )

    def _op_kill_worker(self, request: dict) -> dict:
        """Chaos op: declare a device worker dead and fail over.

        Gated behind ``enable_chaos`` — a production server must not
        expose a remote kill switch.  Refuses to kill the last alive
        worker: with no survivor to drain onto, failover is impossible
        and only a process restart could recover.
        """
        if not self.config.enable_chaos:
            raise ServeError(
                "kill-worker requires enable_chaos",
                code=E_UNKNOWN_OP,
            )
        index = request.get("worker")
        if not isinstance(index, int) or not (
            0 <= index < len(self.registry.workers)
        ):
            raise ServeError(
                "kill-worker needs a valid integer worker index",
                code=E_BAD_REQUEST,
            )
        alive = self.supervisor.alive_workers
        if len(alive) <= 1 and self.registry.workers[index].alive:
            raise ServeError(
                "refusing to kill the last alive worker",
                code=E_BAD_REQUEST,
            )
        restored = self.supervisor.fail_worker(
            index, str(request.get("reason", "chaos kill-worker"))
        )
        return ok_response(
            killed=index,
            restored=[
                {"tenant": e.tenant, "session": e.name}
                for e in restored
            ],
            degraded=self.supervisor.degraded,
        )

    # -- metrics aggregation --------------------------------------------------------

    def _tenant_registry(self, tenant_name: str) -> MetricsRegistry:
        """One merged registry per tenant: account counters plus the
        sum of the tenant's live sessions' ``obs`` registries."""
        merged = MetricsRegistry()
        account = self.tenants.get(tenant_name)
        if account is not None:
            merge_into(merged, account.registry)
        for entry in self.registry.entries_for(tenant_name):
            if entry.live:
                entry.session.telemetry.publish_to(entry.session.obs)
                merge_into(merged, entry.session.obs)
        return merged

    def prometheus(self) -> str:
        """The full scrape: labeled per-tenant series + server series."""
        self._publish_usage()
        labeled = to_prometheus_labeled(
            {
                name: self._tenant_registry(name)
                for name in sorted(self.tenants)
            },
            label="tenant",
        )
        return labeled + self.metrics.to_prometheus()

    # -- HTTP listener ---------------------------------------------------------------

    async def _handle_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._handlers[writer] = asyncio.current_task()
        try:
            request_line = await reader.readline()
            # Drain headers until the blank line; we only route on path.
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else ""
            if path.split("?")[0] == "/metrics":
                self._scrapes.inc()
                body = self.prometheus().encode("utf-8")
                content_type = (
                    "text/plain; version=0.0.4; charset=utf-8"
                )
                status = "200 OK"
            elif path.split("?")[0] == "/debug/dashboard":
                body = render_dashboard(
                    self.prometheus(),
                    title="repro-serve live dashboard",
                ).encode("utf-8")
                content_type = "text/html; charset=utf-8"
                status = "200 OK"
            elif path.split("?")[0] == "/healthz":
                if self.supervisor.degraded:
                    body = (
                        json.dumps(
                            self.supervisor.status(), sort_keys=True
                        ).encode("utf-8")
                        + b"\n"
                    )
                    content_type = "application/json; charset=utf-8"
                    status = "503 Service Unavailable"
                else:
                    body = b"ok\n"
                    content_type = "text/plain; charset=utf-8"
                    status = "200 OK"
            else:
                body = b"not found\n"
                content_type = "text/plain; charset=utf-8"
                status = "404 Not Found"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # scraper vanished mid-response
        finally:
            del self._handlers[writer]
            writer.close()


#: Dispatch table: wire op name -> handler.
_OPS = {
    "hello": PartitionServer._op_hello,
    "create": PartitionServer._op_create,
    "attach": PartitionServer._op_attach,
    "submit": PartitionServer._op_submit,
    "flush": PartitionServer._op_flush,
    "checkpoint": PartitionServer._op_checkpoint,
    "evict": PartitionServer._op_evict,
    "digest": PartitionServer._op_digest,
    "metrics": PartitionServer._op_metrics,
    "stats": PartitionServer._op_stats,
    "kill-worker": PartitionServer._op_kill_worker,
}


class ServerThread:
    """Run a :class:`PartitionServer` on a background event loop.

    The in-process harness the gate, tests, benchmarks, and examples
    share: boot, read the bound ports, drive it from blocking client
    code, stop.  Usable as a context manager.
    """

    def __init__(self, config: ServerConfig | None = None):
        self.server = PartitionServer(config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self.tcp_port = 0
        self.http_port = 0

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._boot_error is not None:
            raise ServeError(
                f"server failed to boot: {self._boot_error}"
            ) from self._boot_error
        if not self._started.is_set():
            raise ServeError("server did not boot within 30s")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
            self.tcp_port = self.server.tcp_port
            self.http_port = self.server.http_port
        except OSError as err:  # bind failure
            self._boot_error = err
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            if self.server.crashed:
                # Simulated kill: no graceful close, so journals stay
                # exactly as the "dying" process left them.  The
                # abandoned tasks' done-callbacks would otherwise spam
                # CancelledError tracebacks through the loop's
                # exception handler.
                self._loop.set_exception_handler(
                    lambda loop, context: None
                )
            else:
                self._loop.run_until_complete(self.server.stop())
            # Cancel and await whatever is still in flight (a crashed
            # server's connection handlers) before closing the loop: a
            # task left pending would be destroyed with a closed loop.
            # Run the loop even when nothing is pending: a handler that
            # closed its writer as the crash stopped the loop left the
            # socket's close queued, and a killed process's sockets are
            # reset at once, not when the client times out.
            pending = [
                t for t in asyncio.all_tasks(self._loop) if not t.done()
            ]
            for task in pending:
                task.cancel()
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
            self._loop.close()

    @property
    def crashed(self) -> bool:
        return self.server.crashed

    def join_crashed(self, timeout: float = 30.0) -> None:
        """Wait for an injected ``crash_after_wal`` to take the server
        down (the loop stops itself; no stop signal is sent)."""
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
