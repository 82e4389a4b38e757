"""Streaming-service experiment driver.

Feeds a modifier trace through :class:`repro.stream.StreamSession` one
modifier at a time — the deployment mode the batch-replay experiments
in :mod:`repro.eval.runner` cannot exercise — and reports what the
service layer adds: ingest throughput, how much pending work the
coalescer removed before it reached the simulated GPU, the flush-reason
histogram, fallback events, and cut drift.

Used by ``repro-stream run`` (the console entry point) and by
``benchmarks/bench_stream.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.eval.workloads import TraceConfig, generate_trace
from repro.graph.csr import CSRGraph
from repro.graph.generators import circuit_graph
from repro.obs import Tracer, write_trace
from repro.partition.config import PartitionConfig
from repro.stream.scheduler import SchedulerConfig
from repro.stream.session import StreamSession


@dataclass
class StreamExperiment:
    """Outcome of one streamed trace."""

    num_vertices: int
    num_edges: int
    k: int
    submitted: int
    wall_seconds: float
    initial_cut: int
    final_cut: int
    telemetry: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Host-side ingest+apply throughput in modifiers/second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.submitted / self.wall_seconds


def run_stream_experiment(
    csr: CSRGraph | None = None,
    k: int = 4,
    num_vertices: int = 2000,
    iterations: int = 40,
    modifiers_per_iteration: int = 50,
    seed: int = 0,
    target_batch_size: Optional[int] = None,
    max_latency_cycles: Optional[float] = None,
    journal_dir: "str | None" = None,
    checkpoint_every: int = 8,
    max_quarantine: int = 64,
    escalate_after: int = 3,
    trace_path: "str | None" = None,
) -> StreamExperiment:
    """Stream a synthetic trace through a session and measure it.

    The trace comes from :func:`repro.eval.workloads.generate_trace`
    (the paper's TAU-2015-style workload), but is submitted as one flat
    modifier list instead of batch by batch — the scheduler, not the
    trace, decides the batch boundaries.

    ``trace_path`` activates :mod:`repro.obs` tracing for the whole run
    and writes the span/kernel trace there as JSONL (feed it to
    ``repro-obs summary`` / ``repro-obs diff``).
    """
    if csr is None:
        csr = circuit_graph(num_vertices, edge_ratio=1.4, seed=seed)
    trace = generate_trace(
        csr,
        TraceConfig(
            iterations=iterations,
            modifiers_per_iteration=modifiers_per_iteration,
            seed=seed,
        ),
    )
    modifiers = [mod for batch in trace for mod in batch]

    session = StreamSession(
        csr,
        PartitionConfig(k=k, seed=seed),
        journal_dir=journal_dir,
        scheduler=SchedulerConfig(
            target_batch_size=target_batch_size,
            max_latency_cycles=max_latency_cycles,
        ),
        checkpoint_every=checkpoint_every,
        max_quarantine=max_quarantine,
        escalate_after=escalate_after,
    )
    tracer = (
        Tracer(
            ledger=session.partitioner.ctx.ledger,
            session=f"stream-seed{seed}",
        )
        if trace_path is not None
        else None
    )
    started = time.perf_counter()
    if tracer is not None:
        with tracer.activate():
            full = session.start()
            session.submit_many(modifiers)
            session.drain()
    else:
        full = session.start()
        session.submit_many(modifiers)
        session.drain()
    wall = time.perf_counter() - started
    if tracer is not None:
        write_trace(tracer, trace_path)
    experiment = StreamExperiment(
        num_vertices=csr.num_vertices,
        num_edges=csr.num_edges,
        k=k,
        submitted=len(modifiers),
        wall_seconds=wall,
        initial_cut=full.cut,
        final_cut=session.cut_size(),
        telemetry=session.metrics(),
    )
    session.close()
    return experiment


def format_stream_report(experiment: StreamExperiment) -> str:
    """Human-readable report of one streamed run."""
    t = experiment.telemetry
    reasons = ", ".join(
        f"{name}={count}"
        for name, count in sorted(t.get("flushes_by_reason", {}).items())
    ) or "none"
    lines = [
        "Streaming partition service "
        f"(|V|={experiment.num_vertices}, |E|={experiment.num_edges}, "
        f"k={experiment.k})",
        f"  submitted modifiers   {experiment.submitted}",
        f"  throughput            {experiment.throughput:,.0f} "
        "modifiers/s (host wall clock)",
        f"  batches applied       {t.get('batches', 0)} "
        f"(reasons: {reasons})",
        f"  coalescing ratio      {t.get('coalescing_ratio', 0.0):.1%} "
        f"({t.get('coalesced_dropped', 0)} of "
        f"{t.get('coalesced_dropped', 0) + t.get('applied_modifiers', 0)}"
        " dropped before the GPU)",
        f"  fallback events       {t.get('fallback_events', 0)}",
        f"  batch failures        {t.get('batch_failures', 0)} "
        f"(quarantined {t.get('quarantined', 0)}, "
        f"recovered {t.get('quarantine_recovered', 0)}, "
        f"dead-lettered {t.get('dead_lettered', 0)}, "
        f"escalations {t.get('escalations', 0)})",
        f"  checkpoints written   {t.get('checkpoints_written', 0)}",
        f"  cut                   {experiment.initial_cut} -> "
        f"{experiment.final_cut} "
        f"(drift {t.get('cut_drift', 1.0):.2f}x)",
        f"  modeled GPU time      {t.get('modeled_seconds', 0.0):.4f}s",
    ]
    return "\n".join(lines)

