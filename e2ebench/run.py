#!/usr/bin/env python3
"""End-to-end benchmark of the iG-kway partition service.

Boots an in-process ``repro.serve.ServerThread`` and drives it with
blocking ``repro.serve.ServeClient`` callers in a closed loop with one
caller: the next request leaves when the previous reply has arrived.
Inputs come from ``--seed`` through ``inputs.EcoStream``; the server only
sees the generated requests.

Workloads, and why each exists:

Batch sizes are the program's own paper-scaled workload parameters
(``repro.eval.workloads``); see ``harness.WORKLOADS``.

* ``eco-steady`` -- one session on a 6000-cell circuit, k=8.  An
  operation is one ECO iteration: submit a TAU-2015-style batch of 3-9
  modifiers (``auto_modifier_range(6000)``), then flush it.  Exercises
  the incremental path (modifiers, balance, refine, bookkeeping, cut)
  on small affected sets, with a checkpoint every 8 flushes.
* ``eco-burst`` -- the program's ECO-burst case (``locality_study``):
  each iteration reroutes one 128-ID neighbourhood of a 3000-cell
  circuit with 100 edge changes, inserted and deleted nets both inside
  the neighbourhood.  Dense affected sets load balancing
  and refinement, and the volume trigger makes the full re-partition
  (coarsen, initial partition, uncoarsen) run about every 18
  iterations: ``latency_p98_ms`` is its latency.
* ``serve-churn`` -- 4 tenants x 3 sessions of 1200 cells, k=4, on 2
  device workers.  An operation is one request of a mix of submits,
  flushes, checkpoints, digests and evictions, so sessions keep cycling
  between live and journaled.  Loads the serving layers: protocol,
  dispatch, journal, checkpoint and WAL writes, and journal recovery on
  re-attach; engine work per request is small.

Times are scaled to a reference machine.  Every 50 ms the caller runs
a fixed calibration loop (``harness.Calibration``: interpreter and
small-array numpy work, the mix the program runs), and each measured
time is multiplied by the loop's time on the reference machine over its
median time in the second around the measurement.  On a shared machine
the same code runs up to 2x slower for spells of seconds to minutes;
the loop slows with it, so the scaled times show the program's speed,
not the machine's.  The unscaled set-up times and the loop's median go
to standard error.

End-to-end metrics (``--trace 0``; tracing off):

* ``latency_p50_ms`` / ``latency_p98_ms`` -- per operation, from the
  first request sent to the last reply read.  A run with fewer than 500
  operations (10 beyond p98) is reported incorrect;
* ``mods_per_s`` -- modifiers submitted per second of request time;
* ``cut_pct`` -- cut edges as a share of all edges, averaged over the
  first 400 flush replies: partition quality as a user of the service
  sees it, over the same stretch of the stream at any speed.  A run
  with fewer flush replies is reported incorrect;
* ``setup_s`` -- median of ten set-ups: server boot plus every
  session's ``create`` (graph build, full partition, first checkpoint).
  One is the measured server's; the measurement pauses nine times,
  evenly spaced, to time one on a throwaway server.

Per-layer metrics (``--trace 1``): the same loop with one trace recorder
shared by client and server, so each operation's client, server,
worker, stream and engine spans form one tree.  Each span's self time
counts toward one layer, so the layers add up to ``traced_ms``; see
``harness.PER_LAYER_UNITS``.  Values are means per operation, scaled by
the run's median calibration sample; ``calibration_ms`` is that median,
unscaled.

Correctness: every flush must report the whole acknowledged prefix
applied.  At the end, each session's graph must equal the stream's
reference graph, its labels must be a k-way partition of the live
vertices whose sha256 matches the server's digest, and the reported cut
must equal the cut recomputed from the reference graph.  No part may
weigh more than W_pmax of the peak live weight: incremental balancing
does not re-tighten parts when deletions lower the total, but nothing
else excuses an overweight part.  A submit that fails is resolved
against the server's next sequence number and its unlanded rest sent
again, so the reference graph stays level with the server.

Usage, from the repository root::

    python3 e2ebench/run.py --workload eco-steady --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; notes go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"


def load_program() -> None:
    """Put the checkout's ``src`` first on the import path; refuse to
    run without it (never fall back to an installed copy)."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(
            f"e2ebench: imported repro from {repro.__file__}, not {package}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from harness import SETUPS, WORKLOADS, Harness

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    harness = Harness(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        harness.setup(work_dir)
        # A traced run reports no setup_s, so it times no more set-ups.
        harness.measure(args.seconds, 0 if args.trace else SETUPS - 1)
        problems = harness.verify()
        if not args.trace:
            problems += harness.short_samples()
    finally:
        harness.shutdown()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in problems:
        print(f"e2ebench: INCORRECT {problem}", file=sys.stderr)
    print(
        f"e2ebench: {args.workload} seed={args.seed}: "
        f"{len(harness.latencies)} operations completed "
        f"({harness.failed} failed), {len(harness.cut_pct)} flush "
        f"replies, {harness.modifiers} modifiers; set-ups took "
        + " ".join(f"{s:.3f}" for s in harness.setup_seconds)
        + " s unscaled; calibration loop median "
        + f"{1e3 * statistics.median(harness.calibration.seconds):.3f} ms",
        file=sys.stderr,
    )
    if args.trace:
        metrics = harness.layers.metrics(harness.calibration)
    else:
        metrics = harness.end_to_end()
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": harness.attempted,
                "failed": harness.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
