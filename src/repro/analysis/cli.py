"""``repro-lint`` — run the repo's AST lint pack from the command line.

Typical invocations::

    repro-lint src tools benchmarks examples
    repro-lint --rules unseeded-rng,blind-except src
    repro-lint --effects src            # lint rules + effect invariants
    repro-lint --effects-only src/repro # just the interprocedural pass
    repro-lint --json src

Exit status is 1 when any finding remains, 0 otherwise; suppress an
intentional finding in-source with ``# repro-lint: allow[rule-id]
reason``.  Also runnable as ``python -m repro.analysis.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.lintcore import Finding, lint_paths
from repro.analysis.rules import ALL_RULES, get_rules


def _findings_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "symbol": f.symbol,
                "message": f.message,
            }
            for f in findings
        ],
        indent=2,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repo-specific AST lint pack (see repro.analysis.rules).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--effects",
        action="store_true",
        help="also run the interprocedural effect-invariant pass "
        "(repro.analysis.effects) over the same paths",
    )
    parser.add_argument(
        "--effects-only",
        action="store_true",
        help="run only the effect-invariant pass, skipping the "
        "per-module lint rules",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            doc = (rule.__doc__ or "").strip().splitlines()[0]
            print(f"{rule.id:22s} {doc}")
        return 0

    rule_ids = args.rules.split(",") if args.rules else None
    try:
        rules = get_rules(rule_ids)
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    findings: list[Finding] = []
    if not args.effects_only:
        findings.extend(lint_paths(args.paths, rules))
    if args.effects or args.effects_only:
        # Imported lazily: the effects pass pulls in the whole
        # call-graph machinery, which plain lint runs don't need.
        from repro.analysis.effects import run_effects_analysis

        effect_findings, timing = run_effects_analysis(args.paths)
        findings.extend(effect_findings)
        findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
        if not args.json:
            print(
                f"effects: {timing.n_functions} functions analyzed in "
                f"{timing.total_seconds:.2f}s"
            )

    if args.json:
        print(_findings_json(findings))
    else:
        for finding in findings:
            print(finding)
        print(
            f"{len(findings)} finding(s)" if findings else "repro-lint: clean"
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
