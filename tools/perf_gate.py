"""Perf-regression gate for the vectorized hot paths.

Re-runs the smoke-scale hot-path sweep (``benchmarks/bench_hotpath.py``)
and compares it against the ``gate`` section of the checked-in
``BENCH_hotpath.json``:

* **deterministic outputs** — ledger counters, final cut, partition
  digest and simulated device-seconds must match the baseline exactly.
  A mismatch means the cost-parity or bit-identity contract broke, not
  that the machine is slow, so it always fails the gate.
* **host wall-clock** — the sweep, the initial full partition (its
  ``full-partition`` phase) and the checkpoint round trip after the
  sweep (``checkpoint-save``, ``checkpoint-load``) must each not
  regress more than ``TOLERANCE`` (20%) over the baseline, plus an
  absolute floor sized to the phase (``HOST_PHASE_FLOORS``) so jitter
  on a loaded machine cannot flake the gate.  A run that records none
  of these phases fails.
* **checkpoint round trip** — the partition loaded back from the
  checkpoint must have the live partition's sha256.
* **cut-size host fraction** — the per-batch cut read must stay an
  incremental O(k^2) lookup: its host time may not exceed
  ``CUT_HOST_FRACTION`` of the sweep (plus a jitter floor).  Before the
  incremental accumulator this phase was ~67% of the sweep; anything
  drifting back toward a pool scan fails here, and so does a sweep
  that records no ``cut-size`` phase at all.

It also prints one informational line per host phase (fresh ms next to
baseline ms), so a phase-level shift shows in ``make check`` output even
when the sweep total stays inside the tolerance.

Usage::

    python tools/perf_gate.py            # check against BENCH_hotpath.json
    python tools/perf_gate.py --update   # refresh the gate baseline in place

Exit status 0 = pass, 1 = regression or contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from bench_hotpath import run_hotpath  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_hotpath.json"
# Allowed fractional host-time regression over the baseline sweep.
TOLERANCE = 0.20
# Below this absolute slack (seconds) a wall-clock difference is noise,
# not a regression: the smoke sweep itself only takes tens of ms.
ABSOLUTE_FLOOR = 0.05
# Gated host phases and each one's absolute floor: a checkpoint save or
# load of the smoke graph takes a few ms, so its floor is a few ms too.
HOST_PHASE_FLOORS = {
    "sweep_total": ABSOLUTE_FLOOR,
    "full-partition": ABSOLUTE_FLOOR,
    "checkpoint-save": 0.005,
    "checkpoint-load": 0.005,
}
# The per-batch cut read must stay incremental: at most this fraction
# of the sweep's host time (it was ~0.67 when it re-scanned the pool),
# with an absolute floor below which timer jitter dominates.
CUT_HOST_FRACTION = 0.10
CUT_HOST_FLOOR = 0.01


def run_gate_workload(baseline_gate: dict) -> dict:
    w = baseline_gate["workload"]
    return run_hotpath(
        w["n_vertices"],
        w["batches"],
        seed=w["seed"],
        k=w["k"],
        mode=w["mode"],
    )


def compare(baseline_gate: dict, fresh: dict) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []

    for key in ("ledger", "final_cut", "partition_sha256"):
        if baseline_gate[key] != fresh[key]:
            failures.append(
                f"deterministic output {key!r} changed: "
                f"baseline={baseline_gate[key]!r} fresh={fresh[key]!r}"
            )
    for phase, base_dev in baseline_gate["device_seconds"].items():
        got = fresh["device_seconds"][phase]
        if abs(got - base_dev) > 1e-9 * max(1.0, abs(base_dev)):
            failures.append(
                f"simulated device seconds for {phase!r} changed: "
                f"baseline={base_dev} fresh={got} "
                "(cost-parity contract violation)"
            )

    if fresh.get("checkpoint_sha256") != fresh["partition_sha256"]:
        failures.append(
            "the checkpoint round trip changed the partition: loaded "
            f"sha256 {fresh.get('checkpoint_sha256')!r} != live "
            f"{fresh['partition_sha256']!r}"
        )

    for phase, floor in HOST_PHASE_FLOORS.items():
        base_host = baseline_gate["host_seconds"][phase]
        fresh_host = fresh["host_seconds"].get(phase)
        if fresh_host is None:
            failures.append(
                f"the run recorded no {phase!r} phase, so its host time "
                "cannot be checked (span renamed or lost?)"
            )
        elif fresh_host > base_host * (1.0 + TOLERANCE) + floor:
            failures.append(
                f"host {phase} regressed: {fresh_host:.3f}s > "
                f"{base_host:.3f}s * {1 + TOLERANCE:.2f} + {floor}s"
            )

    fresh_host = fresh["host_seconds"]["sweep_total"]

    cut_host = fresh["host_seconds"].get("cut-size")
    cut_limit = CUT_HOST_FRACTION * fresh_host + CUT_HOST_FLOOR
    if cut_host is None:
        failures.append(
            "the sweep recorded no 'cut-size' phase, so the cut-read "
            "fraction cannot be checked (span renamed or lost?)"
        )
    elif cut_host > cut_limit:
        failures.append(
            f"cut-size host time {cut_host:.3f}s exceeds "
            f"{CUT_HOST_FRACTION:.0%} of the {fresh_host:.3f}s sweep "
            f"(+{CUT_HOST_FLOOR}s floor) — the per-batch cut read is "
            "no longer incremental"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--update", action="store_true",
        help="re-measure and rewrite the baseline's gate section",
    )
    args = parser.parse_args(argv)

    if not BASELINE_PATH.exists():
        print(f"perf-gate: baseline {BASELINE_PATH} not found", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    gate = baseline["gate"]

    fresh = run_gate_workload(gate)

    if args.update:
        baseline["gate"] = fresh
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"perf-gate: baseline gate section updated in {BASELINE_PATH}")
        return 0

    failures = compare(gate, fresh)
    base_host = gate["host_seconds"]["sweep_total"]
    fresh_host = fresh["host_seconds"]["sweep_total"]
    print(
        f"perf-gate: host sweep {fresh_host*1e3:.1f}ms "
        f"(baseline {base_host*1e3:.1f}ms), "
        f"ledger {fresh['ledger']['warp_instructions']} instr / "
        f"{fresh['ledger']['transactions']} trans, "
        f"cut {fresh['final_cut']}"
    )
    for phase, seconds in fresh["host_seconds"].items():
        if phase == "sweep_total":
            continue
        base = gate["host_seconds"].get(phase)
        base_text = "n/a" if base is None else f"{base*1e3:.1f}ms"
        print(
            f"perf-gate:   {phase:<24} {seconds*1e3:6.1f}ms "
            f"(baseline {base_text})"
        )
    if failures:
        for msg in failures:
            print(f"perf-gate FAIL: {msg}", file=sys.stderr)
        return 1
    print("perf-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
