"""Per-function effect signatures and their fixed-point propagation.

The effect domain is a finite powerset lattice over string atoms; the
join is set union, so the worklist propagation below terminates.  The
atoms and what triggers them *directly* (ARCHITECTURE §15 carries the
catalog):

================== ===========================================================
``ledger.charge``    any ``charge_*``/``adjust_instructions`` call on a ledger
``device.write``     subscript store to a device array (``bucket_list``,
                     ``slot_wgt``, ``vertex_status``, ``vwgt``, ``partition``,
                     ``part_weights``)
``device.write.uncharged``
                     the same store when it is *not* lexically inside a
                     ``with ledger.kernel(...)`` block; discharged when a
                     caller forwards it from inside one
``journal.append``   ``log_modifiers``/``log_flush``/``log_dead_letter``/
                     ``write_checkpoint`` (the stream journal)
``fsync``            ``os.fsync``
``socket.send``      ``write_frame``/``write_frame_async``/``sendall`` or
                     ``writer.write``/``writer.drain``
``ack``              building a protocol success response (``ok_response``)
``session.construct``
                     constructing a ``StreamSession`` (serve state creation)
``rng``              RNG construction or use (``default_rng``, ``Random``,
                     ``np.random.*``, method calls on ``rng``-named receivers)
``cutacc.read``      touching derived cut-accumulator state (``.cut_acc``
                     attribute access or ``CutAccumulator`` construction)
================== ===========================================================

Propagation folds callee signatures into callers at each call site to a
fixed point.  Signatures keep the *intra-procedural event order* —
direct effects and call sites interleaved as they appear in the source
— so invariants can check dominance ("the first ``journal.append``
precedes the first ``ack``") without a path-sensitive analysis.  The one
non-monotone-looking transform, dropping ``device.write.uncharged`` at
kernel-scoped call sites, is a join over a per-site constant filter and
preserves termination.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.effects.callgraph import (
    CallGraph,
    CallSite,
    FunctionNode,
    _dotted_name,
)

#: Ledger methods that record modeled cost.
CHARGE_METHODS: frozenset = frozenset(
    {
        "charge_wavefront", "charge_irregular_warps",
        "charge_instructions", "charge_transactions",
        "charge_host_ops", "charge_host_seconds",
        "charge_pcie_bytes", "charge_atomics",
        "adjust_instructions",
    }
)

#: Device arrays whose subscript stores count as device writes.
DEVICE_ARRAYS: frozenset = frozenset(
    {
        "bucket_list", "slot_wgt", "vertex_status", "vwgt",
        "partition", "part_weights",
    }
)

JOURNAL_APPEND_METHODS: frozenset = frozenset(
    {"log_modifiers", "log_flush", "log_dead_letter", "write_checkpoint"}
)
SOCKET_SEND_NAMES: frozenset = frozenset(
    {"write_frame", "write_frame_async", "sendall"}
)
#: Receiver names whose ``.write``/``.drain`` count as socket sends.
WRITER_RECEIVERS: frozenset = frozenset({"writer"})
ACK_NAMES: frozenset = frozenset({"ok_response"})
SESSION_CLASSES: frozenset = frozenset({"StreamSession"})
RNG_RECEIVER_HINTS: tuple = ("rng", "random", "generator")
#: Parameters that anchor seeded randomness for the hot-path invariant.
SEED_PARAM_NAMES: frozenset = frozenset(
    {"seed", "rng", "generator", "random_state", "seed_sequence"}
)

#: Atoms that never propagate to callers (purely local properties).
_LOCAL_ATOMS: frozenset = frozenset({"kernel.scope"})


@dataclass
class EffectEvent:
    """A direct effect occurrence at a known source location."""

    effect: str
    line: int
    detail: str = ""


@dataclass
class CallEvent:
    """A resolved call site, in event order with direct effects."""

    site: CallSite


@dataclass
class EffectSignature:
    """Everything the invariant checker needs to know about a function."""

    qualname: str
    path: str
    lineno: int
    #: Direct effects + call sites in source order.
    events: List["EffectEvent | CallEvent"] = field(default_factory=list)
    #: Direct (intra-procedural) effect atoms.
    direct: Set[str] = field(default_factory=set)
    #: Fixed-point transitive effect atoms.
    effects: Set[str] = field(default_factory=set)
    #: Function opens a ``ledger.kernel`` scope somewhere in its body.
    opens_kernel: bool = False
    #: Function has a seed-ish parameter (``seed``/``rng``/…).
    has_seed_param: bool = False
    #: effect atom -> (qualname, line) witness used in messages.
    provenance: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    def first_index(
        self, atoms: FrozenSet[str], engine: "EffectEngine"
    ) -> Optional[int]:
        """Index of the first event carrying any of ``atoms``."""
        for i, event in enumerate(self.events):
            if isinstance(event, EffectEvent):
                if event.effect in atoms:
                    return i
            else:
                folded = engine.folded_effects(event.site)
                if folded & atoms:
                    return i
        return None


def _is_rng_call(call: ast.Call) -> Optional[str]:
    dotted = _dotted_name(call.func)
    if dotted is None:
        return None
    tail = dotted.rsplit(".", 1)[-1]
    if tail == "default_rng" or dotted.startswith(
        ("np.random.", "numpy.random.", "random.")
    ):
        return dotted
    if dotted in ("Random", "random.Random", "SystemRandom"):
        return dotted
    if isinstance(call.func, ast.Attribute):
        receiver = call.func.value
        rname = receiver.id if isinstance(receiver, ast.Name) else (
            receiver.attr if isinstance(receiver, ast.Attribute) else None
        )
        if rname is not None and any(
            hint in rname.lower() for hint in RNG_RECEIVER_HINTS
        ):
            return dotted
    return None


def _subscript_store_attrs(node: ast.AST) -> Iterable[Tuple[str, int]]:
    """Yield (array attr, line) for device-array subscript stores."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            attr = target.value.attr
            if attr in DEVICE_ARRAYS:
                yield attr, target.lineno


class _EventExtractor:
    """Walk one function body in source order, emitting events."""

    def __init__(
        self, fn: FunctionNode, sites: List[CallSite]
    ) -> None:
        self.fn = fn
        self.sites_by_node: Dict[int, CallSite] = {
            id(site.node): site for site in sites
        }
        self.events: List["EffectEvent | CallEvent"] = []
        self.opens_kernel = False

    def extract(self) -> List["EffectEvent | CallEvent"]:
        for stmt in self.fn.node.body:
            self._visit(stmt, kernel=False)
        return self.events

    def _emit(self, effect: str, line: int, detail: str = "") -> None:
        self.events.append(EffectEvent(effect, line, detail))

    def _visit_call(self, node: ast.Call, kernel: bool) -> None:
        func = node.func
        dotted = _dotted_name(func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        line = node.lineno
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in CHARGE_METHODS:
                self._emit("ledger.charge", line, attr)
            if attr in JOURNAL_APPEND_METHODS:
                self._emit("journal.append", line, attr)
            if dotted == "os.fsync":
                self._emit("fsync", line, dotted)
            if attr in SOCKET_SEND_NAMES:
                self._emit("socket.send", line, attr)
            if attr in ("write", "drain") and isinstance(
                func.value, ast.Name
            ) and func.value.id in WRITER_RECEIVERS:
                self._emit("socket.send", line, f"writer.{attr}")
            if attr in SESSION_CLASSES:
                self._emit("session.construct", line, attr)
        elif isinstance(func, ast.Name):
            if func.id in SOCKET_SEND_NAMES:
                self._emit("socket.send", line, func.id)
            if func.id in ACK_NAMES:
                self._emit("ack", line, func.id)
            if func.id in SESSION_CLASSES:
                self._emit("session.construct", line, func.id)
            if func.id == "fsync" and dotted == "fsync":
                self._emit("fsync", line, dotted)
        rng = _is_rng_call(node)
        if rng is not None:
            self._emit("rng", line, rng)
        site = self.sites_by_node.get(id(node))
        if site is not None:
            for tag in site.tags:
                if tag.startswith("construct:") and tag.rsplit(
                    ".", 1
                )[-1] in SESSION_CLASSES:
                    self._emit("session.construct", line, tag)
            self.events.append(CallEvent(site))
        if tail == "kernel" and isinstance(func, ast.Attribute):
            # `ledger.kernel(...)` outside a With is still a scope
            # opener (e.g. contextlib.ExitStack usage).
            self.opens_kernel = True

    def _visit(self, node: ast.AST, kernel: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not self.fn.node:
                return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            opens = False
            for item in node.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "kernel"
                ):
                    opens = True
                    self.opens_kernel = True
                    self._emit("kernel.scope", node.lineno, "with")
                self._visit(expr, kernel)
            for child in node.body:
                self._visit(child, kernel or opens)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for attr, line in _subscript_store_attrs(node):
                self._emit("device.write", line, attr)
                if not kernel:
                    self._emit("device.write.uncharged", line, attr)
        if isinstance(node, ast.Attribute) and node.attr == "cut_acc":
            self._emit("cutacc.read", node.lineno, "cut_acc")
        if isinstance(node, ast.Call):
            callee = node.func
            cname = (
                callee.id
                if isinstance(callee, ast.Name)
                else (
                    callee.attr
                    if isinstance(callee, ast.Attribute)
                    else None
                )
            )
            if cname == "CutAccumulator":
                self._emit("cutacc.read", node.lineno, cname)
            self._visit_call(node, kernel)
        for child in ast.iter_child_nodes(node):
            self._visit(child, kernel)


class EffectEngine:
    """Holds the call graph plus every function's effect signature."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.signatures: Dict[str, EffectSignature] = {}
        self._extract_all()
        self._propagate()

    # -- construction ----------------------------------------------------------

    def _extract_all(self) -> None:
        for qualname, fn in self.graph.functions.items():
            sites = self.graph.calls.get(qualname, [])
            extractor = _EventExtractor(fn, sites)
            events = extractor.extract()
            sig = EffectSignature(
                qualname=qualname,
                path=fn.path,
                lineno=fn.lineno,
                events=events,
                opens_kernel=extractor.opens_kernel,
                has_seed_param=any(
                    p in SEED_PARAM_NAMES for p in fn.params
                ),
            )
            for event in events:
                if isinstance(event, EffectEvent):
                    if event.effect in _LOCAL_ATOMS:
                        continue
                    sig.direct.add(event.effect)
                    sig.provenance.setdefault(
                        event.effect, (qualname, event.line)
                    )
            sig.effects = set(sig.direct)
            self.signatures[qualname] = sig

    def folded_effects(self, site: CallSite) -> Set[str]:
        """Effects a call site contributes to its enclosing function."""
        out: Set[str] = set()
        for callee in site.callees:
            sig = self.signatures.get(callee)
            if sig is None:
                continue
            out |= sig.effects
        if site.kernel_scoped:
            out.discard("device.write.uncharged")
        return out

    def _propagate(self) -> None:
        # Worklist over the callers relation; effect sets only grow.
        pending: Set[str] = set(self.signatures)
        while pending:
            qualname = pending.pop()
            sig = self.signatures[qualname]
            new = set(sig.direct)
            for event in sig.events:
                if isinstance(event, CallEvent):
                    contribution = self.folded_effects(event.site)
                    for atom in contribution - new:
                        new.add(atom)
                        # Witness: the call site that first imported it.
                        sig.provenance.setdefault(
                            atom, (qualname, event.site.line)
                        )
            if new != sig.effects:
                sig.effects = new
                for caller, _scoped in self.graph.callers.get(
                    qualname, []
                ):
                    pending.add(caller)

    # -- queries ---------------------------------------------------------------

    def signature(self, qualname: str) -> Optional[EffectSignature]:
        return self.signatures.get(qualname)

    def exposed_functions(self) -> Set[str]:
        """Functions reachable from a call-graph root without ever
        crossing a kernel-scoped call site.

        A function with a direct uncharged device write that is
        *exposed* can be driven to write device arrays without any
        priced ``ledger.kernel`` scope on the stack — the
        ``uncharged-device-write`` invariant's definition of a leak.
        Roots (functions with no intra-repo callers) are exposed by
        definition; exposure propagates across non-kernel-scoped call
        edges only.
        """
        exposed: Set[str] = set()
        pending: List[str] = []
        for qualname in self.signatures:
            callers = self.graph.callers.get(qualname, [])
            if not callers:
                exposed.add(qualname)
                pending.append(qualname)
        while pending:
            caller = pending.pop()
            for site in self.graph.calls.get(caller, []):
                if site.kernel_scoped:
                    continue
                for callee in site.callees:
                    if callee not in exposed and callee in self.signatures:
                        exposed.add(callee)
                        pending.append(callee)
        return exposed


def infer_effects(paths: Iterable[str]) -> EffectEngine:
    """Build the call graph for ``paths`` and run effect inference."""
    from repro.analysis.effects.callgraph import build_callgraph

    graph = build_callgraph(paths)
    return EffectEngine(graph)
