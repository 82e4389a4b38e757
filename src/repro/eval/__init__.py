"""Experiment harness: workloads, runner, and paper table/figure reports."""

from repro.eval.runner import (
    ExperimentResult,
    IterationRecord,
    run_experiment,
)
from repro.eval.workloads import (
    DEFAULT_MIX,
    TraceConfig,
    generate_region_burst_trace,
    generate_trace,
    trace_summary,
)

__all__ = [
    "run_experiment",
    "ExperimentResult",
    "IterationRecord",
    "TraceConfig",
    "generate_trace",
    "generate_region_burst_trace",
    "trace_summary",
    "DEFAULT_MIX",
]
