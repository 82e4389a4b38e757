"""Declarative repo invariants checked against effect signatures.

Each invariant is data: a scope (regexes over module paths and
function qualnames), the effect atoms involved, and a *kind* that picks
the checking algorithm.  Violations become ordinary
:class:`~repro.analysis.lintcore.Finding` objects — same pragma
(``# repro-lint: allow[<invariant-id>] reason``) machinery as the AST
rule pack, each naming the qualified symbol of the function it flags.

The catalog (``INVARIANTS``):

``wal-after-ack``
    In serve-layer functions that both journal (``journal.append``, the
    session journal being the write-ahead log) and acknowledge
    (``ack`` / ``session.construct``), the first durable append must
    precede the first acknowledgement/state-construction in event
    order: the write-ahead-before-ack contract.
``digest-reaches-cutacc``
    No call path from ``state_digest``/``save_partitioner``/
    ``write_checkpoint`` may reach derived ``CutAccumulator`` state
    (``cutacc.read``).  The accumulator is excluded from digests and
    checkpoints (PR 7); a digest that observes it would break
    recovery bit-identity.
``uncharged-device-write``
    A device-array subscript store in the kernel layers must be
    covered by a priced ``ledger.kernel`` scope — lexically, or at
    some call site on every root-reachable path.  Writes reachable
    from a call-graph root with no scope on the stack are mutations
    the cost model never sees.
``ledgered-backend-kernel``
    Functions in ``repro.core.kernels`` must not charge the ledger,
    directly or transitively: the bulk kernels are pure array functions
    and cost stays in callers (the PR 7 bit-identity contract).
``unseeded-hotpath-rng``
    A refinement/balancing hot-path function that uses RNG must take
    an explicit seed-ish parameter (``seed``/``rng``/``generator``/…)
    so reruns stay bit-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.analysis.effects.infer import EffectEngine, EffectSignature
from repro.analysis.lintcore import Finding, ModuleInfo


@dataclass(frozen=True)
class Invariant:
    """One declarative invariant over effect signatures.

    ``kind`` selects the algorithm:

    * ``order`` — within each in-scope function carrying both effect
      classes, the first ``first``-class event must precede the first
      ``then``-class event.
    * ``forbid-reach`` — no function matching ``source_pattern`` may
      transitively reach an effect in ``forbidden``.
    * ``guard-device-write`` — in-scope functions with a direct
      ``device.write.uncharged`` effect must not be *exposed*
      (root-reachable without a kernel-scoped call edge).
    * ``forbid-effect`` — in-scope functions must not carry any effect
      in ``forbidden``.
    * ``require-param`` — in-scope functions with a *direct* effect in
      ``trigger`` must declare a seed-ish parameter.
    """

    id: str
    kind: str
    description: str
    module_pattern: str = ""
    function_pattern: str = ""
    source_pattern: str = ""
    first: FrozenSet[str] = frozenset()
    then: FrozenSet[str] = frozenset()
    forbidden: FrozenSet[str] = frozenset()
    trigger: FrozenSet[str] = frozenset()
    #: Module-path regexes exempt from this invariant.
    exempt_modules: Tuple[str, ...] = ()


INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        id="wal-after-ack",
        kind="order",
        description=(
            "serve ops must append to the journal before building "
            "the ack or constructing session state"
        ),
        module_pattern=r"(^|/)serve/",
        first=frozenset({"journal.append"}),
        then=frozenset({"ack", "session.construct"}),
    ),
    Invariant(
        id="digest-reaches-cutacc",
        kind="forbid-reach",
        description=(
            "state digests and checkpoint serialization must never "
            "observe derived CutAccumulator state"
        ),
        source_pattern=(
            r"\.(state_digest|save_partitioner|write_checkpoint)$"
        ),
        forbidden=frozenset({"cutacc.read"}),
    ),
    Invariant(
        id="uncharged-device-write",
        kind="guard-device-write",
        description=(
            "device-array writes in the kernel layers must be covered "
            "by a priced ledger.kernel scope on every entry path"
        ),
        module_pattern=r"(^|/)(core|partition)/",
        exempt_modules=(
            r"core/transaction\.py$",  # undo-log replay
            r"core/serialize\.py$",  # checkpoint load rebuilds arrays
            r"core/kernels\.py$",  # pure array functions, charged by callers
            r"core/cpu_baseline\.py$",  # host-side reference implementation
        ),
    ),
    Invariant(
        id="ledgered-backend-kernel",
        kind="forbid-effect",
        description=(
            "bulk array kernels must stay ledger-free; "
            "modeled cost is charged by callers"
        ),
        module_pattern=r"(^|/)core/kernels\.py$",
        forbidden=frozenset({"ledger.charge"}),
    ),
    Invariant(
        id="unseeded-hotpath-rng",
        kind="require-param",
        description=(
            "refinement/balancing hot paths may only use RNG through "
            "an explicit seed-ish parameter"
        ),
        module_pattern=(
            r"(^|/)(core/(refinement|balancing)|"
            r"partition/(refine|jet|fm|warp_kernels))\.py$"
        ),
        trigger=frozenset({"rng"}),
    ),
)


def get_invariants(
    ids: Optional[Iterable[str]] = None,
) -> List[Invariant]:
    if ids is None:
        return list(INVARIANTS)
    known = {inv.id: inv for inv in INVARIANTS}
    missing = [i for i in ids if i not in known]
    if missing:
        raise KeyError(
            f"unknown invariant id(s): {', '.join(missing)}"
        )
    return [known[i] for i in ids]


class InvariantChecker:
    """Checks the catalog against one :class:`EffectEngine`."""

    def __init__(self, engine: EffectEngine) -> None:
        self.engine = engine
        self._exposed: Optional[set] = None

    # -- helpers ---------------------------------------------------------------

    def _in_scope(
        self, inv: Invariant, sig: EffectSignature
    ) -> bool:
        posix = Path(sig.path).as_posix()
        if inv.module_pattern and not re.search(
            inv.module_pattern, posix
        ):
            return False
        for pattern in inv.exempt_modules:
            if re.search(pattern, posix):
                return False
        if inv.function_pattern and not re.search(
            inv.function_pattern, sig.qualname
        ):
            return False
        return True

    def _module_for(self, sig: EffectSignature) -> Optional[ModuleInfo]:
        fn = self.engine.graph.functions.get(sig.qualname)
        if fn is None:
            return None
        return self.engine.graph.modules.get(fn.module)

    def _finding(
        self,
        inv: Invariant,
        sig: EffectSignature,
        line: int,
        message: str,
    ) -> Optional[Finding]:
        info = self._module_for(sig)
        if info is not None and info.is_allowed(inv.id, line):
            return None
        return Finding(
            rule=inv.id,
            path=sig.path,
            line=line,
            message=message,
            symbol=sig.qualname,
        )

    # -- per-kind checks -------------------------------------------------------

    def check(self, inv: Invariant) -> List[Finding]:
        checker = {
            "order": self._check_order,
            "forbid-reach": self._check_forbid_reach,
            "guard-device-write": self._check_guard_device_write,
            "forbid-effect": self._check_forbid_effect,
            "require-param": self._check_require_param,
        }.get(inv.kind)
        if checker is None:
            raise ValueError(f"unknown invariant kind {inv.kind!r}")
        findings = [f for f in checker(inv) if f is not None]
        findings.sort(key=lambda f: (f.path, f.line, f.message))
        return findings

    def _check_order(self, inv: Invariant) -> Iterable[Optional[Finding]]:
        for sig in self.engine.signatures.values():
            if not self._in_scope(inv, sig):
                continue
            if not (
                inv.first & sig.effects and inv.then & sig.effects
            ):
                continue
            first_idx = sig.first_index(inv.first, self.engine)
            then_idx = sig.first_index(inv.then, self.engine)
            if first_idx is None or then_idx is None:
                continue
            if then_idx < first_idx:
                event = sig.events[then_idx]
                line = (
                    event.line
                    if hasattr(event, "line")
                    else event.site.line
                )
                yield self._finding(
                    inv,
                    sig,
                    line,
                    f"{sig.qualname} reaches "
                    f"{'/'.join(sorted(inv.then & sig.effects))} before "
                    f"its first "
                    f"{'/'.join(sorted(inv.first & sig.effects))} "
                    f"({inv.description})",
                )

    def _check_forbid_reach(
        self, inv: Invariant
    ) -> Iterable[Optional[Finding]]:
        pattern = re.compile(inv.source_pattern)
        for sig in self.engine.signatures.values():
            if not pattern.search(sig.qualname):
                continue
            hit = inv.forbidden & sig.effects
            if not hit:
                continue
            atom = sorted(hit)[0]
            witness = sig.provenance.get(atom, (sig.qualname, sig.lineno))
            yield self._finding(
                inv,
                sig,
                witness[1],
                f"{sig.qualname} reaches {atom} via {witness[0]} "
                f"({inv.description})",
            )

    def _check_guard_device_write(
        self, inv: Invariant
    ) -> Iterable[Optional[Finding]]:
        if self._exposed is None:
            self._exposed = self.engine.exposed_functions()
        for sig in self.engine.signatures.values():
            if not self._in_scope(inv, sig):
                continue
            if "device.write.uncharged" not in sig.direct:
                continue
            if sig.qualname not in self._exposed:
                continue
            witness = sig.provenance.get(
                "device.write.uncharged", (sig.qualname, sig.lineno)
            )
            yield self._finding(
                inv,
                sig,
                witness[1],
                f"{sig.qualname} writes a device array outside any "
                f"ledger.kernel scope and is reachable from an entry "
                f"point without one ({inv.description})",
            )

    def _check_forbid_effect(
        self, inv: Invariant
    ) -> Iterable[Optional[Finding]]:
        for sig in self.engine.signatures.values():
            if not self._in_scope(inv, sig):
                continue
            hit = inv.forbidden & sig.effects
            if not hit:
                continue
            atom = sorted(hit)[0]
            witness = sig.provenance.get(atom, (sig.qualname, sig.lineno))
            yield self._finding(
                inv,
                sig,
                witness[1],
                f"{sig.qualname} carries {atom} (via {witness[0]}) "
                f"({inv.description})",
            )

    def _check_require_param(
        self, inv: Invariant
    ) -> Iterable[Optional[Finding]]:
        for sig in self.engine.signatures.values():
            if not self._in_scope(inv, sig):
                continue
            if not (inv.trigger & sig.direct):
                continue
            if sig.has_seed_param:
                continue
            atom = sorted(inv.trigger & sig.direct)[0]
            witness = sig.provenance.get(atom, (sig.qualname, sig.lineno))
            yield self._finding(
                inv,
                sig,
                witness[1],
                f"{sig.qualname} uses RNG but declares no seed-ish "
                f"parameter ({inv.description})",
            )


@dataclass
class InvariantResult:
    """Per-invariant outcome with the timing the gate reports."""

    invariant: Invariant
    findings: List[Finding] = field(default_factory=list)
    seconds: float = 0.0


def check_invariants(
    engine: EffectEngine,
    invariants: Optional[Iterable[Invariant]] = None,
) -> List[InvariantResult]:
    """Run ``invariants`` (default: the full catalog) against ``engine``."""
    import time

    checker = InvariantChecker(engine)
    results: List[InvariantResult] = []
    for inv in invariants if invariants is not None else INVARIANTS:
        start = time.perf_counter()
        findings = checker.check(inv)
        results.append(
            InvariantResult(
                invariant=inv,
                findings=findings,
                seconds=time.perf_counter() - start,
            )
        )
    return results


def run_effects_analysis(
    paths: Iterable[str],
    invariant_ids: Optional[Iterable[str]] = None,
) -> Tuple[List[Finding], "EffectsTiming"]:
    """One-call entry point: infer effects, check invariants.

    Returns the flat sorted finding list plus a timing breakdown for
    the gate's report.
    """
    import time

    from repro.analysis.effects.infer import infer_effects

    t0 = time.perf_counter()
    engine = infer_effects(paths)
    build_seconds = time.perf_counter() - t0
    results = check_invariants(engine, get_invariants(invariant_ids))
    findings = [f for r in results for f in r.findings]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    timing = EffectsTiming(
        build_seconds=build_seconds,
        results=results,
        n_functions=len(engine.signatures),
        engine=engine,
    )
    return findings, timing


@dataclass
class EffectsTiming:
    """Timing/size breakdown of one whole-repo effects run."""

    build_seconds: float
    results: List[InvariantResult]
    n_functions: int
    engine: Optional[EffectEngine] = None

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + sum(r.seconds for r in self.results)

    def rows(self) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = [
            {
                "stage": "callgraph+inference",
                "seconds": round(self.build_seconds, 4),
                "findings": "",
            }
        ]
        for r in self.results:
            out.append(
                {
                    "stage": r.invariant.id,
                    "seconds": round(r.seconds, 4),
                    "findings": len(r.findings),
                }
            )
        return out
