"""Distributed trace context + flight recorder for the serve layer.

The engine tracer (:mod:`repro.obs.tracer`) attributes ledger cycles
exactly, but only *inside one engine*: a request entering
:class:`~repro.serve.client.ServeClient` crosses the framed protocol,
the worker pool, journal writes, and possibly a failover with no identity
tying those hops together.  This module adds the two pieces that close
the gap:

* :class:`TraceRecorder` — a thread-safe collector of
  :class:`~repro.obs.tracer.TraceEvent` records spanning *processes
  roles* (client, server, worker, engine).  The in-process harness
  (:class:`~repro.serve.server.ServerThread` + blocking client) shares
  one recorder, so span ids allocate from a single counter and every
  parent reference resolves inside one exported JSONL file.  Requests
  carry a ``trace`` field on the wire (:func:`wire_trace` /
  :func:`parse_wire_trace`); every event the request causes — the
  client span, the server op span, the worker execute span, journal
  writes, engine spans and kernel aggregates — is stamped with the
  same deterministic ``trace_id``, so one trace file reconstructs
  client → server → worker → kernel causality, including retry
  attempts and failover replay.
* :class:`FlightRecorder` — a bounded ring buffer of recent protocol
  events and op spans, dumped to ``data_dir/flightrec-<ts>-<n>.jsonl``
  on worker failure, chaos fault, or unclean shutdown, so every
  injected fault leaves a self-describing artifact
  (``repro-flightrec-v1``; load with :func:`load_flight`, check with
  :func:`validate_flight` or ``repro-obs flightrec``).

Standing contracts, same as the engine tracer's:

* **zero cost when off** — with no recorder configured the client adds
  one attribute read per call and the server skips every trace branch
  on a single ``None`` check (``bench_serve.py`` measures the
  disabled-path cost against the obs-gate bound);
* **ledger-neutral** — recording reads the ledger, never charges it;
* **deterministic structure** — trace ids count requests (never wall
  clock or RNG), span ids allocate sequentially, and every
  device-derived field is exact, so two seeded runs differ only in
  host ``start``/``duration``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.export import write_trace_records
from repro.obs.tracer import TRACE_SCHEMA, TraceEvent

#: Flight-recorder dump schema identifier (header line).
FLIGHT_SCHEMA = "repro-flightrec-v1"

#: Closed set of keys a ``trace`` context dict may carry.
TRACE_CONTEXT_KEYS = ("attempt", "id", "op", "tenant", "worker")

#: Closed set of flight-recorder event kinds.
FLIGHT_KINDS = (
    "crash",
    "fault",
    "recovery",
    "reject",
    "request",
    "response",
    "span",
    "worker_dead",
)


def make_trace_id(tenant: str, op: str, counter: int) -> str:
    """Deterministic trace id: request counter, never clock or RNG."""
    return f"{tenant}/{op}#{counter}"


def wire_trace(
    trace_id: str,
    parent_span: Optional[int] = None,
    attempt: int = 0,
) -> dict:
    """The ``"trace"`` field a request carries on the wire."""
    out: dict = {"id": trace_id, "attempt": attempt}
    if parent_span is not None:
        out["parent"] = parent_span
    return out


def parse_wire_trace(request: dict) -> Optional[dict]:
    """Validate and return a request's ``trace`` field (None if absent).

    Raises ``ValueError`` on a malformed context — the server maps that
    to a typed ``bad-request`` so a corrupt trace header can never be
    mistaken for an untraced request.
    """
    trace = request.get("trace")
    if trace is None:
        return None
    if not isinstance(trace, dict):
        raise ValueError("trace context must be an object")
    if not isinstance(trace.get("id"), str) or not trace["id"]:
        raise ValueError("trace context needs a non-empty string id")
    parent = trace.get("parent")
    if parent is not None and (
        not isinstance(parent, int) or isinstance(parent, bool)
    ):
        raise ValueError("trace context parent must be an integer")
    attempt = trace.get("attempt", 0)
    if not isinstance(attempt, int) or isinstance(attempt, bool):
        raise ValueError("trace context attempt must be an integer")
    if attempt < 0:
        raise ValueError("trace context attempt must be >= 0")
    return {"id": trace["id"], "parent": parent, "attempt": attempt}


class TraceRecorder:
    """Thread-safe distributed-trace event collector.

    One recorder spans every role of an in-process serve harness: the
    blocking client thread and the server's event loop both allocate
    span ids from the same locked counter and append finished events,
    so exported traces have globally unique ids and resolvable parents.
    (Across real processes, export one recorder per process and join on
    the shared ``trace`` ids instead of span parents.)
    """

    def __init__(self, session: str = "serve") -> None:
        self.session = session
        self._lock = threading.Lock()
        self._events: List[TraceEvent] = []
        self._next_id = 0
        self._t_origin = time.perf_counter()

    def now(self) -> float:
        """Host seconds since recorder creation (span timestamps)."""
        return time.perf_counter() - self._t_origin

    def next_span_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def record(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def record_span(
        self,
        name: str,
        trace: Optional[dict] = None,
        parent: Optional[int] = None,
        depth: int = 0,
        span_id: Optional[int] = None,
        start: float = 0.0,
        duration: float = 0.0,
        device_cycles: float = 0.0,
        batch: Optional[int] = None,
    ) -> TraceEvent:
        """Record one finished span; allocates an id unless given one."""
        if span_id is None:
            span_id = self.next_span_id()
        event = TraceEvent(
            kind="span",
            name=name,
            span_id=span_id,
            parent=parent,
            depth=depth,
            batch=batch,
            start=start,
            duration=duration,
            device_cycles=device_cycles,
            trace=dict(trace) if trace is not None else None,
        )
        self.record(event)
        return event

    def fold(
        self,
        events: Iterable[TraceEvent],
        trace: Optional[dict] = None,
        parent: Optional[int] = None,
        base_depth: int = 0,
        start_offset: float = 0.0,
    ) -> List[TraceEvent]:
        """Graft a finished engine tracer's events into this trace.

        The engine :class:`~repro.obs.tracer.Tracer` allocates span ids
        from zero per activation; folding remaps every id through this
        recorder's counter (preserving internal parent/child links),
        re-parents the engine's roots under ``parent``, shifts depths
        by ``base_depth``, stamps the ``trace`` context, and offsets
        host timestamps by ``start_offset`` (the engine tracer's
        activation time on this recorder's clock).
        """
        events = list(events)
        grafted_events: List[TraceEvent] = []
        with self._lock:
            mapping: Dict[int, int] = {}
            for event in events:
                mapping[event.span_id] = self._next_id
                self._next_id += 1
            for event in events:
                grafted = TraceEvent(
                    kind=event.kind,
                    name=event.name,
                    span_id=mapping[event.span_id],
                    parent=(
                        mapping[event.parent]
                        if event.parent is not None
                        else parent
                    ),
                    depth=event.depth + base_depth,
                    batch=event.batch,
                    start=event.start + start_offset,
                    duration=event.duration,
                    warp_instructions=event.warp_instructions,
                    transactions=event.transactions,
                    atomic_ops=event.atomic_ops,
                    kernel_launches=event.kernel_launches,
                    device_seconds=event.device_seconds,
                    device_cycles=event.device_cycles,
                    section=event.section,
                    count=event.count,
                    trace=dict(trace) if trace is not None else None,
                )
                self._events.append(grafted)
                grafted_events.append(grafted)
        return grafted_events

    # -- results -------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of every recorded event (safe to iterate)."""
        with self._lock:
            return list(self._events)

    def header(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "session": self.session,
            "has_ledger": True,
        }

    def traces(self) -> Dict[str, List[TraceEvent]]:
        """Events grouped by trace id, in recording order.

        Events with no trace context group under ``""``.
        """
        groups: Dict[str, List[TraceEvent]] = {}
        for event in self.events:
            key = ""
            if event.trace is not None:
                key = str(event.trace.get("id", ""))
            groups.setdefault(key, []).append(event)
        return groups

    def export(self, path: "str | Path") -> Path:
        """Write the recorded trace as ``repro-trace-v1`` JSONL."""
        return write_trace_records(self.header(), self.events, path)

    def structure_digest(self) -> List[tuple]:
        """Host-time-free view of the trace, for determinism checks.

        Two seeded runs must produce identical digests: everything but
        the host ``start``/``duration`` fields, in recording order.
        """
        digest: List[tuple] = []
        for event in self.events:
            trace = event.trace
            digest.append(
                (
                    event.kind,
                    event.name,
                    event.span_id,
                    event.parent,
                    event.depth,
                    event.batch,
                    event.warp_instructions,
                    event.transactions,
                    event.atomic_ops,
                    event.kernel_launches,
                    event.device_cycles,
                    event.section,
                    event.count,
                    (
                        tuple(sorted(trace.items()))
                        if trace is not None
                        else None
                    ),
                )
            )
        return digest


class FlightRecorder:
    """Bounded ring of recent spans + protocol events, dumped on faults.

    Always-on and cheap: each record is a small dict appended to a
    ``deque(maxlen=capacity)``; nothing touches the ledger.  The server
    dumps the ring to ``<dir>/flightrec-<ts>-<n>.jsonl`` when a worker
    dies, a chaos fault fires, or the process "crashes" uncleanly —
    the dump *is* the black box for the post-mortem.
    """

    def __init__(self, capacity: int = 512, session: str = "serve"):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.session = session
        self._lock = threading.Lock()
        self._ring: Deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self._recorded = 0
        self.dumps: List[Path] = []

    def record(self, kind: str, **fields) -> None:
        """Append one event to the ring (oldest entries roll off)."""
        if kind not in FLIGHT_KINDS:
            raise ValueError(f"unknown flight event kind {kind!r}")
        with self._lock:
            record = {"kind": kind, "seq": self._seq}
            self._seq += 1
            record.update(fields)
            self._ring.append(record)
            self._recorded += 1

    def note_span(self, event: TraceEvent) -> None:
        """Ring one finished op span (compact: name/trace/cycles)."""
        self.record(
            "span",
            name=event.name,
            span_id=event.span_id,
            trace=dict(event.trace) if event.trace is not None else None,
            device_cycles=event.device_cycles,
            duration=event.duration,
        )

    def snapshot(self) -> List[dict]:
        with self._lock:
            return [dict(r) for r in self._ring]

    def dump(self, directory: "str | Path", reason: str) -> Path:
        """Write the ring to a self-describing JSONL artifact.

        The filename carries a wall timestamp plus a per-recorder dump
        counter, so several faults in one second never collide.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        path = directory / (
            f"flightrec-{stamp}-{len(self.dumps)}.jsonl"
        )
        records = self.snapshot()
        header = {
            "schema": FLIGHT_SCHEMA,
            "session": self.session,
            "reason": reason,
            "capacity": self.capacity,
            "recorded_total": self._recorded,
            "events": len(records),
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(record, sort_keys=True) for record in records
        )
        path.write_text("\n".join(lines) + "\n")
        self.dumps.append(path)
        return path


def load_flight(path: "str | Path") -> Tuple[dict, List[dict]]:
    """Read a flight-recorder dump; raises ``ValueError`` if invalid."""
    errors = validate_flight(path)
    if errors:
        raise ValueError(
            f"{path}: invalid flight dump: {errors[0]}"
            + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else "")
        )
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    header = json.loads(lines[0])
    return header, [json.loads(line) for line in lines[1:]]


def validate_flight(path: "str | Path") -> List[str]:
    """Schema-check a flight dump; returns all violations (empty = ok)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"unreadable flight dump: {exc}"]
    errors: List[str] = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["empty flight dump (missing header line)"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"line 1: header is not valid JSON: {exc}"]
    if (
        not isinstance(header, dict)
        or header.get("schema") != FLIGHT_SCHEMA
    ):
        errors.append(
            f"line 1: header schema must be {FLIGHT_SCHEMA!r}"
        )
    elif header.get("events") != len(lines) - 1:
        errors.append(
            f"line 1: header says {header.get('events')} events, "
            f"file has {len(lines) - 1}"
        )
    prev_seq: Optional[int] = None
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON: {exc}")
            continue
        if not isinstance(record, dict):
            errors.append(f"line {lineno}: event is not an object")
            continue
        kind = record.get("kind")
        if kind not in FLIGHT_KINDS:
            errors.append(
                f"line {lineno}: kind must be one of {FLIGHT_KINDS}"
            )
        seq = record.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool):
            errors.append(f"line {lineno}: seq must be an integer")
        else:
            if prev_seq is not None and seq <= prev_seq:
                errors.append(
                    f"line {lineno}: seq {seq} is not increasing"
                )
            prev_seq = seq
    return errors
