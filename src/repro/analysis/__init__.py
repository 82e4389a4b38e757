"""Static analysis and dynamic sanitizers for the reproduction.

Three complementary checkers live here, completing the gate trio
started by the perf gate (``tools/perf_gate.py``) and the chaos gate
(``tools/chaos_gate.py``):

* **Warp-access sanitizer** (:mod:`repro.analysis.shadow`) — an opt-in
  shadow-memory mode on the :mod:`repro.gpusim` layer.  While a
  :class:`~repro.analysis.shadow.ShadowSession` is active, every
  indexed read/write of the instrumented device arrays performed
  inside a kernel launch is recorded as an access event attributed to
  the executing warp.  Intra-launch write-write and read-write
  conflicts between warps that are not mediated by an atomic (or, for
  unordered launches, by the launch's declared serialization contract)
  are reported as race findings, and per-launch trace digests expose
  cross-run nondeterminism.
* **AST lint pack** (:mod:`repro.analysis.lintcore` +
  :mod:`repro.analysis.rules`) — repo-specific rules enforcing the
  contracts earlier PRs established in prose: vectorized hot paths stay
  loop-free, RNG is always seeded, partition/core logic never depends
  on set iteration order, kernel charges land inside a priced
  ``ledger.kernel`` scope, bucket-pool writes go through the undo-log
  APIs, and exceptions are never silently swallowed.
* **Interprocedural effect invariants** (:mod:`repro.analysis.effects`)
  — a whole-repo pass that builds a project-wide call graph, infers
  per-function effect signatures to a fixed point, and checks the
  contracts no single-file rule can see: journal appends dominate
  client acks in the serve ops, checkpoint/digest serialization never
  reads the derived ``CutAccumulator``, device-array writes are covered
  by priced ``ledger.kernel`` scopes on every entry path, the bulk
  array kernels stay ledger-free, and refinement hot paths never draw
  unseeded randomness.

All are wired into ``make check`` through ``tools/analysis_gate.py``;
an intentional finding is suppressed in-source with a justified
``# repro-lint: allow[rule-id] reason`` pragma.  The ``repro-lint``
console script exposes the lint pack directly (``--effects`` adds the
interprocedural pass).
"""

from repro.analysis.lintcore import (
    Finding,
    LintRule,
    ModuleInfo,
    lint_paths,
    load_module,
)
from repro.analysis.rules import ALL_RULES, get_rules
from repro.analysis.shadow import (
    LaunchTrace,
    RaceFinding,
    ShadowSession,
    ShadowTracker,
    compare_traces,
    shadow_wrap,
)
from repro.analysis.sweep import SweepReport, run_sanitized_sweep

__all__ = [
    "ALL_RULES",
    "Finding",
    "LaunchTrace",
    "LintRule",
    "ModuleInfo",
    "RaceFinding",
    "ShadowSession",
    "ShadowTracker",
    "SweepReport",
    "compare_traces",
    "get_rules",
    "lint_paths",
    "load_module",
    "run_sanitized_sweep",
    "shadow_wrap",
]
