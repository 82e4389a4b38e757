"""Interprocedural effect inference and whole-repo invariant checking.

The per-module AST rules in :mod:`repro.analysis.rules` enforce *local*
contracts — a loop in a hot-path file, an unseeded RNG call.  The
invariants the engine actually rests on are *cross-function*: the serve
layer must journal a request before acknowledging it, the
state digest must never observe derived :class:`CutAccumulator` state
(PR 7), a device-array write must be paid for by a priced kernel scope
somewhere up its call chain, and the bulk array kernels must stay
ledger-free.  None of those can be checked one module at a time.

This subpackage closes the gap in three layers:

* :mod:`repro.analysis.effects.callgraph` — a project-wide call graph
  over ``src/repro``: module-qualified resolution of direct calls,
  method calls via receiver-type heuristics (``self`` attributes,
  annotations, local construction), and nested/closure functions
  folded through higher-order call sites.
* :mod:`repro.analysis.effects.infer` — per-function **effect
  signatures** extracted from the AST (``ledger.charge``,
  ``device.write``, ``journal.append``, ``fsync``, ``socket.send``,
  ``ack``, ``rng``, ``cutacc.read``) and propagated through the call graph to a
  fixed point, preserving intra-procedural event order so dominance
  ("append before ack") stays checkable.
* :mod:`repro.analysis.effects.invariants` — a declarative catalog of
  repo invariants checked against those signatures; violations are
  ordinary :class:`~repro.analysis.lintcore.Finding` objects honoring
  the existing pragma machinery (suppress with
  ``# repro-lint: allow[invariant-id] reason``).

Run it with ``repro-lint --effects`` or ``tools/analysis_gate.py``;
golden bad-tree fixtures proving every invariant fires live in
:mod:`repro.analysis.effects.fixtures`.
"""

from repro.analysis.effects.callgraph import (
    CallGraph,
    FunctionNode,
    build_callgraph,
)
from repro.analysis.effects.infer import (
    EffectEngine,
    EffectSignature,
    infer_effects,
)
from repro.analysis.effects.invariants import (
    INVARIANTS,
    Invariant,
    check_invariants,
    run_effects_analysis,
)
from repro.analysis.effects.report import EffectsReport, format_report

__all__ = [
    "CallGraph",
    "EffectEngine",
    "EffectSignature",
    "EffectsReport",
    "FunctionNode",
    "INVARIANTS",
    "Invariant",
    "build_callgraph",
    "check_invariants",
    "format_report",
    "infer_effects",
    "run_effects_analysis",
]
