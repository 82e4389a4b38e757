"""Hot-path phase timings for the incremental sweep (perf harness).

Runs a seeded incremental workload (``seeded_workload``) through
``IGKway`` — the initial full partition, then the incremental sweep —
and reports, per phase, both

* **host seconds** — Python wall-clock of the vectorized kernels, the
  quantity the vector fast path optimizes and ``tools/perf_gate.py``
  guards against regression, and
* **device seconds** — the simulated-GPU ledger's modeled time, which
  must stay bit-identical no matter how the host code is reorganized
  (the cost-parity contract; see docs/ARCHITECTURE.md).

Phases are measured in-tree via ``repro.obs`` spans — the pipeline is
instrumented with ``span(...)`` scopes that only collect while a tracer
is active (here a ledger-less ``Tracer``, whose ``phase_seconds`` sums
host time per span name), so production runs pay no overhead.  The
full partition is the ``full-partition`` phase; ``sweep_total`` covers
the incremental batches only.  After the sweep the final partitioner is
saved to a temporary directory and loaded back (``checkpoint-save`` and
``checkpoint-load``, also outside ``sweep_total``); the record carries
the loaded partition's digest as ``checkpoint_sha256``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --out run.json

Also collected by pytest (``pytest benchmarks/bench_hotpath.py``) as a
fast smoke test that additionally asserts warp/vector equivalence.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_common import bench_record, partition_digest, seeded_workload
from repro.core.igkway import IGKway
from repro.core.serialize import load_partitioner, save_partitioner
from repro.gpusim.context import GpuContext
from repro.obs import Tracer
from repro.partition.config import PartitionConfig

FULL_SCALE = {"n_vertices": 77_000, "batches": 10}
SMOKE_SCALE = {"n_vertices": 5_000, "batches": 5}
EQUIVALENCE_SCALE = {"n_vertices": 600, "batches": 3}


def run_hotpath(
    n_vertices: int,
    batches: int,
    seed: int = 7,
    k: int = 8,
    mode: str = "vector",
) -> dict:
    """One measured incremental sweep; returns a ``repro-bench-v1``
    record (host phase seconds + deterministic device-side outputs)."""
    csr, trace = seeded_workload(n_vertices, batches, seed=seed)
    ig = IGKway(csr, PartitionConfig(k=k, mode=mode))

    dev_mod = dev_part = dev_cut = 0.0
    tracer = Tracer()
    with tracer.activate():
        # Recorded as the "full-partition" phase, outside sweep_total.
        ig.full_partition()
        t0 = time.perf_counter()
        for batch in trace:
            report = ig.apply(batch)
            dev_mod += report.modification_seconds
            dev_part += report.partitioning_seconds
            dev_cut += report.cut_maintenance_seconds
        sweep_total = time.perf_counter() - t0

    host = dict(tracer.phase_seconds)
    host["sweep_total"] = sweep_total
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.npz"
        t0 = time.perf_counter()
        save_partitioner(ig, path)
        t1 = time.perf_counter()
        restored = load_partitioner(path)
        host["checkpoint-load"] = time.perf_counter() - t1
        host["checkpoint-save"] = t1 - t0
    ledger = ig.ctx.ledger.total
    record = bench_record(
        "hotpath",
        workload={
            "n_vertices": csr.num_vertices,
            "n_edges": int(csr.num_edges),
            "batches": batches,
            "k": k,
            "mode": mode,
            "seed": seed,
        },
        host_seconds=host,
        device_seconds={
            "modification": dev_mod,
            "partitioning": dev_part,
            "cut_maintenance": dev_cut,
        },
        ledger={
            "warp_instructions": ledger.warp_instructions,
            "transactions": ledger.transactions,
        },
        final_cut=ig.cut_size(),
        partition_sha256=partition_digest(ig.state.partition),
    )
    record["checkpoint_sha256"] = partition_digest(restored.state.partition)
    return record


def check_mode_equivalence(
    n_vertices: int = EQUIVALENCE_SCALE["n_vertices"],
    batches: int = EQUIVALENCE_SCALE["batches"],
    seed: int = 11,
    k: int = 4,
) -> dict:
    """Run the same workload in warp and vector mode; assert the
    partitions are bit-identical.

    The two modes' *ledgers* are not compared: they model some kernels
    at different fidelity (the warp path charges per-warp, the vector
    path closed-form) and have differed since the seed — the parity
    contract is identical partitions plus each mode's own ledger being
    deterministic, not cross-mode cost equality.  Both ledgers are
    returned so callers can track them over time."""
    results = {}
    for mode in ("warp", "vector"):
        csr, trace = seeded_workload(n_vertices, batches, seed=seed)
        ig = IGKway(csr, PartitionConfig(k=k, mode=mode), ctx=GpuContext())
        ig.full_partition()
        for batch in trace:
            ig.apply(batch)
        results[mode] = {
            "partition": ig.state.partition.copy(),
            "cut": ig.cut_size(),
            "warp_instructions": ig.ctx.ledger.total.warp_instructions,
            "transactions": ig.ctx.ledger.total.transactions,
        }
    warp, vector = results["warp"], results["vector"]
    assert np.array_equal(warp["partition"], vector["partition"]), (
        "warp and vector modes diverged on the equivalence workload"
    )
    assert warp["cut"] == vector["cut"]
    return {
        "n_vertices": n_vertices,
        "batches": batches,
        "cut": int(warp["cut"]),
        "partition_sha256": partition_digest(vector["partition"]),
        "ledger": {
            mode: {
                "warp_instructions": int(r["warp_instructions"]),
                "transactions": int(r["transactions"]),
            }
            for mode, r in results.items()
        },
    }


def measure_sanitizer_overhead(
    n_vertices: int = 400,
    batches: int = 2,
    seed: int = 7,
    k: int = 4,
    mode: str = "warp",
) -> dict:
    """Run the incremental sweep bare and under shadow-memory mode.

    Two contracts are asserted, not just measured:

    * **zero-cost when disabled** — the bare run's ledger must equal the
      shadowed run's ledger exactly (instrumentation never charges), and
      both runs must produce the same cut; the only price of the
      sanitizer is host wall-clock while a session is active.
    * **race-free** — the shadowed run reports zero conflicts on the
      seeded workload (the analysis gate's bar, kept visible here).
    """
    from repro.analysis.shadow import ShadowSession, ShadowTracker

    def one_run(shadowed: bool) -> tuple[float, object, int, int]:
        csr, trace = seeded_workload(n_vertices, batches, seed=seed)
        ctx = GpuContext()
        ig = IGKway(csr, PartitionConfig(k=k, mode=mode), ctx=ctx)
        ig.full_partition()
        tracker = ShadowTracker()
        t0 = time.perf_counter()
        if shadowed:
            with ShadowSession(ctx, tracker) as session:
                session.attach_graph(ig.graph)
                session.attach_state(ig.state)
                for batch in trace:
                    ig.apply(batch)
        else:
            for batch in trace:
                ig.apply(batch)
        elapsed = time.perf_counter() - t0
        return elapsed, ctx.ledger.total, ig.cut_size(), tracker.n_conflicts

    bare_seconds, bare_ledger, bare_cut, _ = one_run(shadowed=False)
    shadow_seconds, shadow_ledger, shadow_cut, races = one_run(shadowed=True)

    assert bare_ledger.warp_instructions == shadow_ledger.warp_instructions, (
        "sanitizer charged the ledger: instrumentation must be cost-free"
    )
    assert bare_ledger.transactions == shadow_ledger.transactions
    assert bare_ledger.atomic_ops == shadow_ledger.atomic_ops
    assert bare_cut == shadow_cut, "sanitizer changed the computed partition"
    assert races == 0, f"seeded workload raced under shadow mode ({races})"

    return {
        "workload": {
            "n_vertices": n_vertices,
            "batches": batches,
            "seed": seed,
            "k": k,
            "mode": mode,
        },
        "bare_seconds": bare_seconds,
        "shadow_seconds": shadow_seconds,
        "overhead_ratio": (
            shadow_seconds / bare_seconds if bare_seconds > 0 else 0.0
        ),
        "ledger_identical": True,
        "races": races,
    }


def measure_tracing_overhead(
    n_vertices: int = 400,
    batches: int = 2,
    seed: int = 7,
    k: int = 4,
    mode: str = "vector",
) -> dict:
    """Run the incremental sweep bare and under ``repro.obs`` tracing.

    Same contract as :func:`measure_sanitizer_overhead`, for the
    tracer: with a tracer active the ledger counters and the computed
    partition must be *identical* to the bare run (spans observe cost,
    they never charge it), and the only price is host wall-clock.  The
    measured ratio is recorded next to ``sanitizer_overhead`` in the
    smoke bench record, and ``tools/obs_gate.py`` asserts the
    tracing-*off* path stays unmeasurable.
    """
    from repro.obs import Tracer

    def one_run(traced: bool) -> tuple[float, object, int, int]:
        csr, trace = seeded_workload(n_vertices, batches, seed=seed)
        ctx = GpuContext()
        ig = IGKway(csr, PartitionConfig(k=k, mode=mode), ctx=ctx)
        ig.full_partition()
        n_events = 0
        t0 = time.perf_counter()
        if traced:
            tracer = Tracer(ledger=ctx.ledger, session="bench")
            with tracer.activate():
                for batch in trace:
                    ig.apply(batch)
            n_events = len(tracer.events)
        else:
            for batch in trace:
                ig.apply(batch)
        elapsed = time.perf_counter() - t0
        return elapsed, ctx.ledger.total, ig.cut_size(), n_events

    bare_seconds, bare_ledger, bare_cut, _ = one_run(traced=False)
    traced_seconds, traced_ledger, traced_cut, events = one_run(traced=True)

    assert bare_ledger.warp_instructions == traced_ledger.warp_instructions, (
        "tracer charged the ledger: span attribution must be cost-free"
    )
    assert bare_ledger.transactions == traced_ledger.transactions
    assert bare_ledger.atomic_ops == traced_ledger.atomic_ops
    assert bare_cut == traced_cut, "tracer changed the computed partition"
    assert events > 0, "traced sweep produced no span events"

    return {
        "workload": {
            "n_vertices": n_vertices,
            "batches": batches,
            "seed": seed,
            "k": k,
            "mode": mode,
        },
        "bare_seconds": bare_seconds,
        "traced_seconds": traced_seconds,
        "overhead_ratio": (
            traced_seconds / bare_seconds if bare_seconds > 0 else 0.0
        ),
        "ledger_identical": True,
        "events": events,
    }


# -- pytest smoke entry -----------------------------------------------------


def test_hotpath_smoke():
    """Tiny sweep: phases are populated and warp == vector."""
    record = run_hotpath(n_vertices=1_200, batches=3)
    assert record["host_seconds"]["sweep_total"] > 0
    for phase in ("full-partition", "modifiers", "balance", "cut-size",
                  "checkpoint-save", "checkpoint-load"):
        assert phase in record["host_seconds"]
    assert record["checkpoint_sha256"] == record["partition_sha256"]
    assert "cut_maintenance" in record["device_seconds"]
    check_mode_equivalence(n_vertices=400, batches=2)


def test_sanitizer_overhead_contracts():
    """Shadow mode is ledger-neutral and the seeded sweep is race-free."""
    result = measure_sanitizer_overhead(n_vertices=300, batches=2)
    assert result["ledger_identical"]
    assert result["races"] == 0


def test_tracing_overhead_contracts():
    """An active tracer is ledger-neutral and produces span events."""
    result = measure_tracing_overhead(n_vertices=300, batches=2)
    assert result["ledger_identical"]
    assert result["events"] > 0


# -- CLI --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload (%(default)s scale is the full sweep)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument(
        "--mode", choices=["vector", "warp"], default="vector"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSON record here (default: stdout only)",
    )
    parser.add_argument(
        "--no-equivalence",
        action="store_true",
        help="skip the warp-vs-vector equivalence check",
    )
    args = parser.parse_args(argv)

    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    record = run_hotpath(
        scale["n_vertices"],
        scale["batches"],
        seed=args.seed,
        k=args.k,
        mode=args.mode,
    )
    if not args.no_equivalence:
        record["equivalence"] = check_mode_equivalence()
    if args.smoke:
        # Shadow-mode cost check rides along at smoke scale: asserts the
        # ledger is untouched by instrumentation and reports the host
        # wall-clock factor of running under the sanitizer.
        record["sanitizer_overhead"] = measure_sanitizer_overhead()
        # Same contract for the obs tracer: ledger-identical with a
        # tracer active, overhead visible as a host wall-clock ratio.
        record["tracing_overhead"] = measure_tracing_overhead()

    text = json.dumps(record, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
