"""Static-analysis and sanitizer gate — the third leg of ``make check``.

Six stages, each independently pass/fail:

1. **Lint** — run the ``repro-lint`` rule pack over ``src``, ``tools``,
   ``benchmarks`` and ``examples`` (NOT ``tests`` — lint fixtures there
   violate rules on purpose).  Any finding fails; an intentional one
   is suppressed in-source with ``# repro-lint: allow[rule-id] reason``.
2. **Effects self-test** — every interprocedural invariant must fire on
   its seeded-bad fixture tree and stay silent on the corrected twin
   (see :mod:`repro.analysis.effects.fixtures`).  A checker that cannot
   re-find the seeded bugs would let stage 3 pass vacuously.
3. **Repo-wide effects** — call-graph construction + effect inference +
   invariant checking over ``src/repro``.  Any finding fails, and so
   does a pass slower than ``EFFECTS_BUDGET_SECONDS``: an analysis too
   slow for ``make check`` would get skipped, and a skipped gate is no
   gate.
4. **Sanitizer self-test** — the deliberately racy fixture kernels must
   be flagged (a silent sanitizer would let stage 5 pass vacuously) and
   the clean fixture must produce zero findings (no false positives).
5. **Sanitized sweep** — the seeded bench_common workload runs under
   shadow-memory mode twice; zero race findings and bit-identical
   access-trace digests are required.
6. **Third-party tools** — ``ruff check`` and ``mypy`` run when the
   executables exist; when they are not installed the stage is skipped
   with a notice (the container does not ship them), never failed.

A per-rule timing and finding-count summary is written to
``results/analysis.txt``, and the deterministic effects report
(call-graph stats, per-invariant timing, findings) to
``results/effects.txt``; ``tools/build_experiments_md.py`` folds both
into EXPERIMENTS.md.

Usage::

    python tools/analysis_gate.py

Exit status 0 = pass, 1 = any stage failed.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import Finding, get_rules  # noqa: E402
from repro.analysis.effects import (  # noqa: E402
    EffectsReport,
    format_report,
    run_effects_analysis,
)
from repro.analysis.lintcore import (  # noqa: E402
    iter_python_files,
    load_module,
)
from repro.analysis.effects.fixtures import (  # noqa: E402
    run_selftest as run_effects_selftest,
)
from repro.analysis.fixtures import (  # noqa: E402
    run_clean_kernel,
    run_intra_warp_racy_kernel,
    run_racy_kernel,
)
from repro.analysis.sweep import check_determinism  # noqa: E402

LINT_TARGETS = ("src", "tools", "benchmarks", "examples")
SUMMARY_PATH = REPO_ROOT / "results" / "analysis.txt"
EFFECTS_REPORT_PATH = REPO_ROOT / "results" / "effects.txt"
EFFECTS_BUDGET_SECONDS = 10.0

#: (rule id, seconds, findings) per lint rule —
#: filled by stage_lint, rendered by write_summary.
_rule_rows: list[tuple[str, float, int]] = []


def stage_lint() -> list[str]:
    targets = [REPO_ROOT / t for t in LINT_TARGETS if (REPO_ROOT / t).exists()]
    # Parse every module once, then time each rule across the parsed
    # set — findings are identical to one combined lint_paths pass
    # (rules are independent), but the summary gets per-rule wall time
    # without re-parsing the tree per rule.
    findings: list[Finding] = []
    infos = []
    for path in iter_python_files(targets):
        try:
            infos.append(load_module(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="syntax-error",
                    path=str(path),
                    line=exc.lineno or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
    for info in infos:
        findings.extend(info.pragma_findings)
    _rule_rows.clear()
    for rule in get_rules():
        start = time.perf_counter()
        rule_findings = [
            f
            for info in infos
            if rule.applies_to(info)
            for f in rule.check(info)
            if not info.is_allowed(rule.id, f.line)
        ]
        elapsed = time.perf_counter() - start
        _rule_rows.append((rule.id, elapsed, len(rule_findings)))
        findings.extend(rule_findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return [f"lint finding: {f}" for f in findings]


def stage_effects_selftest() -> list[str]:
    return [f"effects self-test: {f}" for f in run_effects_selftest()]


def stage_effects(notices: list[str]) -> list[str]:
    """The repo-wide effects pass; writes results/effects.txt."""
    findings, timing = run_effects_analysis([REPO_ROOT / "src" / "repro"])
    failures = [f"effects finding: {f}" for f in findings]
    notices.append(
        f"effects: {timing.n_functions} functions, "
        f"{len(findings)} finding(s), {timing.total_seconds:.2f}s"
    )
    if timing.total_seconds > EFFECTS_BUDGET_SECONDS:
        failures.append(
            f"performance budget exceeded: {timing.total_seconds:.2f}s "
            f"> {EFFECTS_BUDGET_SECONDS:.0f}s"
        )
    EFFECTS_REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    report = EffectsReport(findings=findings, timing=timing)
    EFFECTS_REPORT_PATH.write_text(
        format_report(report, timing.engine), encoding="utf-8"
    )
    return failures


def write_summary() -> None:
    """Write the per-rule timing/finding table to results/analysis.txt."""
    lines = ["# repro-lint gate summary"]
    lines.append(f"{'rule':24s} {'seconds':>9s} {'findings':>9s}")
    for rule_id, elapsed, count in _rule_rows:
        lines.append(f"{rule_id:24s} {round(elapsed, 4):>9} {count:>9}")
    total_s = sum(r[1] for r in _rule_rows)
    total_n = sum(r[2] for r in _rule_rows)
    lines.append(f"{'total':24s} {round(total_s, 4):>9} {total_n:>9}")
    SUMMARY_PATH.parent.mkdir(parents=True, exist_ok=True)
    SUMMARY_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")


def stage_selftest() -> list[str]:
    failures: list[str] = []
    racy = run_racy_kernel()
    if racy.n_conflicts == 0:
        failures.append(
            "sanitizer self-test: the racy fixture kernel was NOT flagged"
        )
    intra = run_intra_warp_racy_kernel()
    if not any(f.kind == "intra-warp-write" for f in intra.findings):
        failures.append(
            "sanitizer self-test: the intra-warp scatter fixture was "
            "NOT flagged"
        )
    clean = run_clean_kernel()
    if clean.n_conflicts:
        failures.append(
            "sanitizer self-test: the clean fixture kernel produced "
            f"{clean.n_conflicts} false positive(s): "
            + "; ".join(str(f) for f in clean.findings[:3])
        )
    return failures


def stage_sweep() -> list[str]:
    report, problems = check_determinism()
    failures = [f"sanitized sweep determinism: {p}" for p in problems]
    if not report.clean:
        failures.append(
            f"sanitized sweep found {report.n_conflicts} race(s): "
            + "; ".join(str(f) for f in report.findings[:5])
        )
    return failures


def stage_external(notices: list[str]) -> list[str]:
    """Run ruff/mypy when available."""
    failures: list[str] = []
    commands = {
        "ruff": ["ruff", "check", "src", "tools", "benchmarks"],
        "mypy": ["mypy", "--config-file", "pyproject.toml"],
    }
    for tool, cmd in commands.items():
        if shutil.which(tool) is None:
            notices.append(f"{tool} not installed; skipping (config-only)")
            continue
        proc = subprocess.run(
            cmd, cwd=REPO_ROOT, capture_output=True, text=True
        )
        if proc.returncode != 0:
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-15:]
            failures.append(f"{tool} failed:\n  " + "\n  ".join(tail))
    return failures


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    notices: list[str] = []
    stages: list[tuple[str, list[str]]] = [
        ("lint", stage_lint()),
        ("effects self-test", stage_effects_selftest()),
        ("repo-wide effects", stage_effects(notices)),
        ("sanitizer self-test", stage_selftest()),
        ("sanitized sweep", stage_sweep()),
        ("external tools", stage_external(notices)),
    ]
    write_summary()

    failed = False
    for name, failures in stages:
        if failures:
            failed = True
            print(f"analysis gate: {name} FAILED")
            for failure in failures:
                print(f"  {failure}")
        else:
            print(f"analysis gate: {name} ok")
    for notice in notices:
        print(f"analysis gate: note: {notice}")
    print("analysis gate:", "FAILED" if failed else "PASSED")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
