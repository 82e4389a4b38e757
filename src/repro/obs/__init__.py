"""repro.obs — unified tracing, metrics, and trace-diff attribution.

The observability layer over the whole stack (docs/ARCHITECTURE.md
section 11):

* :mod:`repro.obs.tracer` — the span tracer.  Hot paths bracket phases
  with :func:`span`; a :class:`Tracer` activated around a run attaches
  host wall time, ledger deltas (warp instructions, transactions,
  modeled device seconds/cycles) and batch/session correlation ids to
  every span, plus per-kernel aggregates via the cost ledger's
  ``obs_hook``.  Zero cost when no tracer is active (one global read —
  the same bar shadow mode meets).
* :mod:`repro.obs.metrics` — typed counters/gauges/histograms in a
  :class:`MetricsRegistry`; the streaming telemetry, scheduler,
  quarantine and the serve layer publish here.
* :mod:`repro.obs.export` — JSONL (``repro-trace-v1``), Prometheus
  text, and Chrome trace-event exporters with schema validators.
* :mod:`repro.obs.diff` — per-phase regression attribution between two
  traces (the ``repro-obs diff`` command).
* :mod:`repro.obs.distrib` — distributed trace context for the serve
  layer (:class:`TraceRecorder`, wire ``trace`` propagation) plus the
  crash :class:`FlightRecorder` (``repro-flightrec-v1`` dumps).
* :mod:`repro.obs.dashboard` — self-contained HTML dashboard rendered
  from one Prometheus scrape (``GET /debug/dashboard`` /
  ``repro-obs dashboard``).

Quickstart::

    from repro.obs import Tracer, span, write_trace

    tracer = Tracer(ledger=ig.ctx.ledger, session="sweep")
    with tracer.activate():
        for batch in trace:
            ig.apply(batch)
    write_trace(tracer, "run.jsonl")
    # then: repro-obs summary run.jsonl / repro-obs chrome run.jsonl
"""

from repro.obs.dashboard import (
    dashboard_data,
    extract_data_block,
    parse_prometheus,
    render_dashboard,
)
from repro.obs.diff import (
    PhaseAggregate,
    PhaseDelta,
    TraceDiff,
    aggregate,
    diff_traces,
    event_key,
    format_diff,
    format_summary,
    summarize,
)
from repro.obs.export import (
    chrome_trace,
    load_trace,
    validate_chrome_trace,
    validate_trace,
    write_chrome_trace,
    write_trace,
    write_trace_records,
)
from repro.obs.distrib import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    TraceRecorder,
    load_flight,
    make_trace_id,
    parse_wire_trace,
    validate_flight,
    wire_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    merge_into,
    to_prometheus_labeled,
)
from repro.obs.tracer import (
    TRACE_SCHEMA,
    TraceEvent,
    Tracer,
    span,
)

__all__ = [
    "FLIGHT_SCHEMA",
    "TRACE_SCHEMA",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseAggregate",
    "PhaseDelta",
    "TraceDiff",
    "TraceEvent",
    "TraceRecorder",
    "Tracer",
    "aggregate",
    "chrome_trace",
    "dashboard_data",
    "diff_traces",
    "event_key",
    "extract_data_block",
    "format_diff",
    "format_summary",
    "load_flight",
    "load_trace",
    "escape_label_value",
    "make_trace_id",
    "merge_into",
    "parse_prometheus",
    "parse_wire_trace",
    "render_dashboard",
    "span",
    "summarize",
    "to_prometheus_labeled",
    "validate_chrome_trace",
    "validate_flight",
    "validate_trace",
    "wire_trace",
    "write_chrome_trace",
    "write_trace",
    "write_trace_records",
]
