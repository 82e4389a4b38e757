"""Human-readable reporting for the effects analysis.

The gate writes :func:`format_report` output to ``results/effects.txt``
which ``tools/build_experiments_md.py`` folds into EXPERIMENTS.md, so
everything here must be deterministic: sorted keys, no wall-clock
content beyond the timing figures themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.effects.callgraph import callgraph_stats
from repro.analysis.effects.infer import EffectEngine
from repro.analysis.effects.invariants import EffectsTiming
from repro.analysis.lintcore import Finding


@dataclass
class EffectsReport:
    """Everything one whole-repo run produced."""

    findings: List[Finding] = field(default_factory=list)
    timing: Optional[EffectsTiming] = None


def format_report(
    report: EffectsReport, engine: Optional[EffectEngine] = None
) -> str:
    """Render the gate's deterministic text artifact."""
    lines: List[str] = ["# repro effects analysis"]
    if engine is not None:
        stats = callgraph_stats(engine.graph)
        lines.append(
            "callgraph: "
            + ", ".join(f"{k}={stats[k]}" for k in sorted(stats))
        )
        effectful = sum(
            1 for s in engine.signatures.values() if s.effects
        )
        lines.append(
            f"signatures: {len(engine.signatures)} functions, "
            f"{effectful} with effects"
        )
    if report.timing is not None:
        lines.append("")
        lines.append(f"{'stage':28s} {'seconds':>9s} {'findings':>9s}")
        for row in report.timing.rows():
            lines.append(
                f"{str(row['stage']):28s} "
                f"{row['seconds']:>9} "
                f"{str(row['findings']):>9}"
            )
        lines.append(
            f"{'total':28s} "
            f"{round(report.timing.total_seconds, 4):>9} "
            f"{len(report.findings):>9}"
        )
    lines.append("")
    if report.findings:
        lines.append(f"{len(report.findings)} finding(s):")
        for finding in report.findings:
            lines.append(f"  {finding}")
    else:
        lines.append("invariants: clean")
    return "\n".join(lines) + "\n"
