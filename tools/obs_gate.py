"""Observability gate: the ``repro.obs`` contracts, enforced.

Runs a seeded incremental sweep under the span tracer and asserts the
guarantees the rest of the tooling builds on:

* **schema validity** — the emitted JSONL trace passes
  ``repro.obs.validate_trace`` and its Chrome trace-event rendering
  passes ``validate_chrome_trace``;
* **bit-identical attribution** — two traced runs of the same seeded
  workload produce *zero* device-cycle/instruction/transaction delta
  in ``repro-obs diff`` for every span and kernel aggregate (host
  seconds are wall clock and exempt);
* **sum-to-ledger** — depth-0 spans partition the sweep, so their
  device-cycle attributions must sum to the ledger's own total;
* **phase coverage** — the trace contains spans for modification,
  balancing, refinement and the refinement commit;
* **ledger neutrality** — a traced run's ledger counters equal an
  untraced run's exactly (spans observe cost, they never charge it);
* **zero-cost when off** — with no tracer active, ``obs.span`` is one
  module-global read; the gate times the disabled path and fails if a
  no-op span costs more than ``MAX_OFF_NS`` (generous bound so a
  loaded machine cannot flake the gate, tight enough to catch
  accidental work on the disabled path).

The traced run's artifacts are written to ``results/obs_trace.jsonl``
and ``results/obs.txt`` (consumed by ``tools/build_experiments_md.py``).

Usage::

    python tools/obs_gate.py

Exit status 0 = pass, 1 = contract violation.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from bench_common import seeded_workload  # noqa: E402

from repro.core.igkway import IGKway  # noqa: E402
from repro.gpusim.context import GpuContext  # noqa: E402
from repro.obs import (  # noqa: E402
    Tracer,
    chrome_trace,
    diff_traces,
    format_summary,
    span,
    validate_chrome_trace,
    validate_trace,
    write_trace,
)
from repro.partition.config import PartitionConfig  # noqa: E402

WORKLOAD = {"n_vertices": 1_200, "batches": 3, "seed": 7, "k": 4}

#: Spans the trace must contain (ISSUE acceptance: modification,
#: balancing, refinement and commit are all attributable).
REQUIRED_SPANS = ("modifiers", "balance", "refine", "refine.commit")

#: Relative slack for float accumulation in the sum-to-ledger check.
SUM_EPSILON = 1e-9

#: Ceiling on one disabled span() in nanoseconds: a no-op context
#: manager plus one global read is ~1µs in CPython.
MAX_OFF_NS = 5_000.0


def run_traced(workload: dict) -> tuple[Tracer, object]:
    """One seeded sweep under the tracer; returns (tracer, ledger)."""
    csr, trace = seeded_workload(
        workload["n_vertices"], workload["batches"], seed=workload["seed"]
    )
    ctx = GpuContext()
    ig = IGKway(csr, PartitionConfig(k=workload["k"]), ctx=ctx)
    tracer = Tracer(ledger=ctx.ledger, session="obs-gate")
    with tracer.activate():
        ig.full_partition()
        for batch in trace:
            ig.apply(batch)
    return tracer, ctx.ledger


def run_untraced(workload: dict) -> object:
    """The same sweep with tracing off; returns the ledger."""
    csr, trace = seeded_workload(
        workload["n_vertices"], workload["batches"], seed=workload["seed"]
    )
    ctx = GpuContext()
    ig = IGKway(csr, PartitionConfig(k=workload["k"]), ctx=ctx)
    ig.full_partition()
    for batch in trace:
        ig.apply(batch)
    return ctx.ledger


def check_schema(trace_path: Path) -> list[str]:
    errors = validate_trace(trace_path)
    return [f"trace schema: {e}" for e in errors]


def check_chrome(tracer: Tracer) -> list[str]:
    rendered = chrome_trace(tracer.header(), tracer.events)
    errors = validate_chrome_trace(rendered)
    return [f"chrome export: {e}" for e in errors]


def check_required_spans(tracer: Tracer) -> list[str]:
    names = {e.name for e in tracer.events if e.kind == "span"}
    return [
        f"required span {name!r} missing from trace "
        f"(got {sorted(names)})"
        for name in REQUIRED_SPANS
        if name not in names
    ]


def check_deterministic_attribution(
    first: Tracer, second: Tracer
) -> list[str]:
    """Two seeded runs must diff to zero on every deterministic field."""
    failures: list[str] = []
    diff = diff_traces(first.events, second.events)
    if diff.has_structural_change:
        failures.append(
            "trace structure changed between identical seeded runs: "
            f"only_before={diff.only_before} only_after={diff.only_after}"
        )
    for delta in diff.deltas:
        if (
            delta.device_cycles_delta != 0.0
            or delta.instruction_delta != 0
            or delta.transaction_delta != 0
            or delta.count_delta != 0
        ):
            failures.append(
                f"attribution for {delta.key!r} not bit-identical across "
                f"seeded runs: cycles {delta.device_cycles_delta:+g}, "
                f"instr {delta.instruction_delta:+d}, "
                f"trans {delta.transaction_delta:+d}, "
                f"count {delta.count_delta:+d}"
            )
    return failures


def check_sum_to_ledger(tracer: Tracer, ledger) -> list[str]:
    """Depth-0 spans partition the sweep: cycles must sum to the total."""
    total_seconds = ledger.model.seconds(ledger.total)
    total_cycles = total_seconds * ledger.model.device.clock_ghz * 1e9
    attributed = sum(
        e.device_cycles
        for e in tracer.events
        if e.kind == "span" and e.depth == 0
    )
    slack = SUM_EPSILON * max(1.0, abs(total_cycles))
    if abs(attributed - total_cycles) > slack:
        return [
            "depth-0 span device cycles do not sum to the ledger total: "
            f"attributed={attributed!r} ledger={total_cycles!r}"
        ]
    return []


def check_ledger_neutrality(traced_ledger, untraced_ledger) -> list[str]:
    failures = []
    for counter in ("warp_instructions", "transactions", "atomic_ops"):
        traced = getattr(traced_ledger.total, counter)
        untraced = getattr(untraced_ledger.total, counter)
        if traced != untraced:
            failures.append(
                f"tracer perturbed ledger counter {counter!r}: "
                f"traced={traced} untraced={untraced}"
            )
    return failures


def check_disabled_overhead() -> tuple[list[str], float]:
    """Time ``obs.span`` with no active tracer; must stay unmeasurable."""
    n = 200_000
    # Warm up, then measure the no-op path.
    for _ in range(1_000):
        with span("obs-gate.off"):
            pass
    t0 = time.perf_counter()
    for _ in range(n):
        with span("obs-gate.off"):
            pass
    per_call_ns = (time.perf_counter() - t0) / n * 1e9
    if per_call_ns > MAX_OFF_NS:
        return (
            [
                f"tracing-off span cost {per_call_ns:.0f}ns/call exceeds "
                f"{MAX_OFF_NS:.0f}ns — the disabled path must stay a "
                "single global read"
            ],
            per_call_ns,
        )
    return [], per_call_ns


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    first, first_ledger = run_traced(WORKLOAD)
    second, _ = run_traced(WORKLOAD)
    untraced_ledger = run_untraced(WORKLOAD)

    trace_path = REPO_ROOT / "results" / "obs_trace.jsonl"
    write_trace(first, trace_path)

    failures = check_schema(trace_path)
    failures += check_chrome(first)
    failures += check_required_spans(first)
    failures += check_deterministic_attribution(first, second)
    failures += check_sum_to_ledger(first, first_ledger)
    failures += check_ledger_neutrality(first_ledger, untraced_ledger)
    off_failures, per_call_ns = check_disabled_overhead()
    failures += off_failures

    (REPO_ROOT / "results" / "obs.txt").write_text(
        "repro.obs gate summary "
        f"(|V|={WORKLOAD['n_vertices']}, "
        f"batches={WORKLOAD['batches']}, seed={WORKLOAD['seed']}, "
        f"k={WORKLOAD['k']})\n"
        f"tracing-off span cost: {per_call_ns:.0f} ns/call\n\n"
        + format_summary(first.events)
        + "\n"
    )

    n_spans = sum(1 for e in first.events if e.kind == "span")
    n_kernels = sum(1 for e in first.events if e.kind == "kernel")
    print(
        f"obs-gate: {n_spans} spans, {n_kernels} kernel aggregates, "
        f"off-path {per_call_ns:.0f}ns/span"
    )
    if failures:
        for msg in failures:
            print(f"obs-gate FAIL: {msg}", file=sys.stderr)
        return 1
    print("obs-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
