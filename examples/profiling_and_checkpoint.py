#!/usr/bin/env python
"""Operational features: kernel profiling, what-if devices, checkpoints.

Three things a team adopting the library needs beyond partitioning:

1. **Profiling** — which simulated kernels dominate an incremental
   iteration (the kernel events of an obs ``Tracer``),
2. **What-if analysis** — how modeled runtimes shift on a faster or
   slower device, and why the iG-kway speedup is robust to that,
3. **Checkpointing** — park a long incremental session to disk and
   resume it bit-identically.

Run:  python examples/profiling_and_checkpoint.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import GKwayDagger, IGKway, PartitionConfig
from repro.core.serialize import load_partitioner, save_partitioner
from repro.eval.workloads import TraceConfig, generate_trace
from repro.graph import circuit_graph
from repro.gpusim import A6000, GpuContext, scale_device
from repro.obs import Tracer, span, summarize


def main() -> int:
    csr = circuit_graph(3000, edge_ratio=1.35, seed=11)
    trace = generate_trace(
        csr,
        TraceConfig(iterations=10, modifiers_per_iteration=60, seed=11),
    )

    # -- 1. profiling ---------------------------------------------------------
    ctx = GpuContext()
    ig = IGKway(csr, PartitionConfig(k=4, seed=11), ctx=ctx)
    ig.full_partition()
    # Kernel events are aggregated under the innermost open span.
    tracer = Tracer(ledger=ctx.ledger, session="profile")
    with tracer.activate(), span("example.iterations"):
        for batch in trace[:5]:
            ig.apply(batch)
    print("Hottest kernels over 5 incremental iterations:")
    kernels = [e for e in tracer.events if e.kind == "kernel"]
    print(f"{'kernel@section':<40} {'launches':>9} {'seconds':>12}")
    for key, agg in summarize(kernels, spans_only=False)[:8]:
        print(f"{key:<40} {agg.count:>9} {agg.device_seconds:>12.3e}")

    # -- 2. what-if devices ------------------------------------------------------
    print("\nDevice sensitivity (5 iterations, modeled seconds):")
    header = f"{'device':<28} {'iG-kway':>12} {'G-kway†':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for label, device in [
        ("A6000 (calibrated)", A6000),
        ("2x memory bandwidth", scale_device(A6000, memory=2.0)),
        ("4x launch latency", scale_device(A6000, launch=0.25)),
    ]:
        config = PartitionConfig(k=4, seed=11)
        a = IGKway(csr, config, ctx=GpuContext(device))
        b = GKwayDagger(csr, config, ctx=GpuContext(device))
        a.full_partition()
        b.full_partition()
        ig_s = bl_s = 0.0
        for batch in trace[:5]:
            ra = a.apply(batch)
            rb = b.apply(batch)
            ig_s += ra.partitioning_seconds
            bl_s += rb.partitioning_seconds
        print(
            f"{label:<28} {ig_s:>12.5f} {bl_s:>12.5f} "
            f"{bl_s / ig_s:>8.1f}x"
        )

    # -- 3. checkpointing ----------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.npz"
        save_partitioner(ig, path)
        resumed = load_partitioner(path)
        for batch in trace[5:]:
            ig.apply(batch)
            resumed.apply(batch)
        match = (resumed.partition == ig.partition).all()
        print(
            f"\nCheckpoint resume: {path.stat().st_size / 1024:.0f} KiB, "
            f"continued identically = {bool(match)}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
