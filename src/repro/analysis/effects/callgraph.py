"""Project-wide call graph over ``src/repro``.

Resolution is deliberately *conservative-by-construction* rather than
sound: an edge is added only when a concrete target can be named, and
ambiguous method names resolve through a small set of heuristics that
are documented here because the invariant checker's precision depends
on them (ARCHITECTURE §15 carries the user-facing version):

1. **Direct calls** — ``f(...)`` resolves to a module-level function in
   the same module, to an ``import``/``from``-imported symbol, or to a
   nested function defined in an enclosing scope.  Calling a class
   resolves to its ``__init__`` and records a ``construct:<Class>``
   tag on the edge.
2. **``self`` methods** — ``self.m(...)`` resolves through the
   enclosing class and its repo-resolved base chain.
3. **Receiver types** — ``x.m(...)`` resolves when ``x``'s type is
   known from a parameter annotation, a local ``x = Class(...)``
   construction, or (for ``self.attr.m(...)``) the class's attribute
   type map built from ``__init__`` assignments and ``AnnAssign``
   annotations (``Optional[T]`` and ``T | None`` unwrap to ``T``).
4. **Unique-name fallback** — ``x.m(...)`` with an unknown receiver
   resolves to ``Class.m`` iff exactly one repo class defines ``m`` and
   ``m`` is not on the ambiguity deny-list (``copy``, ``close``,
   ``get``, …).  This is the only speculative rule; everything else is
   exact.
5. **Higher-order folding** — a function-valued argument (a local or
   nested function passed by name) becomes a callee of the call site,
   so effects inside callbacks like the serve layer's ``work()``
   closures are folded where they are *dispatched*.  Arguments passed
   to ``launch_warps``/``launch_threads`` are additionally marked
   kernel-scoped: the launch framework runs them inside a priced
   ``ledger.kernel`` scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.lintcore import ModuleInfo, iter_python_files, load_module

#: Method names too common to trust the unique-definer fallback with.
AMBIGUOUS_METHOD_NAMES: frozenset = frozenset(
    {
        "add", "append", "as_dict", "charge", "clear", "clone", "close",
        "copy", "count", "dec", "exists", "extend", "get", "inc", "index",
        "info", "items", "keys", "load", "observe", "open", "pop", "read",
        "remove", "run", "save", "set", "start", "stop", "sync", "update",
        "values", "write",
    }
)

#: Call targets whose function-valued arguments execute inside a priced
#: ``ledger.kernel`` scope (the launch framework opens it).
KERNEL_DISPATCH_SUFFIXES: tuple = ("launch_warps", "launch_threads")


@dataclass
class FunctionNode:
    """One function (or method, or nested function) in the project."""

    qualname: str
    module: str
    path: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    cls: Optional[str] = None
    #: Positional/keyword parameter names, ``self`` excluded.
    params: Tuple[str, ...] = ()
    lineno: int = 0

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassNode:
    """A class with its repo-resolved bases and attribute type map."""

    qualname: str
    module: str
    name: str
    bases: Tuple[str, ...] = ()
    #: method name -> function qualname
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qualname (from __init__/annotations)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    """One resolved call expression inside a function body."""

    callees: Tuple[str, ...]
    node: ast.Call
    line: int
    #: True when the call expression sits lexically inside a
    #: ``with ledger.kernel(...)`` block (or is a kernel dispatch).
    kernel_scoped: bool = False
    #: Construction tags (``construct:<Class>``) for class calls.
    tags: Tuple[str, ...] = ()


@dataclass
class CallGraph:
    """Functions, classes, and resolved call sites for one source tree."""

    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassNode] = field(default_factory=dict)
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: function qualname -> call sites in source order
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    #: callee qualname -> [(caller qualname, kernel_scoped)]
    callers: Dict[str, List[Tuple[str, bool]]] = field(default_factory=dict)

    def roots(self) -> List[str]:
        """Functions with no intra-repo callers (entry points)."""
        return sorted(
            q for q in self.functions if not self.callers.get(q)
        )

    def resolve_method(
        self, class_qual: str, method: str
    ) -> Optional[str]:
        """Look ``method`` up on ``class_qual`` and its base chain."""
        seen: Set[str] = set()
        stack = [class_qual]
        while stack:
            cur = stack.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            cls = self.classes.get(cur)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(cls.bases)
        return None


def module_name_for(path: "str | Path") -> str:
    """Derive a dotted module name from a file path.

    ``.../src/repro/serve/server.py`` → ``repro.serve.server``.  Trees
    without a ``src`` segment fall back to the segment after the last
    directory literally named ``repro`` (fixture trees), then to the
    stem.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("src",):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[idx + 1 :]
            if tail:
                return ".".join(tail)
    if "repro" in parts:
        idx = parts.index("repro")
        return ".".join(parts[idx:])
    return parts[-1] if parts else str(path)


def _annotation_class_name(node: Optional[ast.AST]) -> Optional[str]:
    """Extract a plausible class name from an annotation expression.

    Handles ``T``, ``mod.T``, ``Optional[T]``, ``T | None`` and string
    annotations containing a bare name.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        for stripper in ("Optional[", '"', "'"):
            text = text.replace(stripper, "")
        text = text.replace("]", "").split("|")[0].strip()
        return text.split(".")[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        # Optional[T] / List[T] — use the first inner name.
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        return _annotation_class_name(inner)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_class_name(node.left)
        if left not in (None, "None"):
            return left
        return _annotation_class_name(node.right)
    return None


def _dotted_name(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ModuleCollector:
    """First pass: functions, classes, imports for one module."""

    def __init__(self, info: ModuleInfo, graph: CallGraph) -> None:
        self.info = info
        self.graph = graph
        self.module = module_name_for(info.path)
        #: local name -> fully qualified target (module or symbol)
        self.imports: Dict[str, str] = {}
        #: local class name -> class qualname
        self.local_classes: Dict[str, str] = {}
        #: local function name -> qualname (module level)
        self.local_functions: Dict[str, str] = {}

    def collect(self) -> None:
        self.graph.modules[self.module] = self.info
        for stmt in self.info.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    self.imports[alias.asname or alias.name] = alias.name
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module is None or stmt.level:
                    continue
                for alias in stmt.names:
                    self.imports[alias.asname or alias.name] = (
                        f"{stmt.module}.{alias.name}"
                    )
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(stmt)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self._collect_function(stmt, cls=None)

    def _collect_class(self, node: ast.ClassDef) -> None:
        qual = f"{self.module}.{node.name}"
        bases = tuple(
            b for b in (_dotted_name(base) for base in node.bases) if b
        )
        cls = ClassNode(
            qualname=qual, module=self.module, name=node.name, bases=bases
        )
        self.graph.classes[qual] = cls
        self.local_classes[node.name] = qual
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._collect_function(stmt, cls=qual)
                cls.methods[stmt.name] = fn.qualname
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = _annotation_class_name(stmt.annotation)
                if name:
                    cls.attr_types[stmt.target.id] = name

    def _collect_function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        cls: Optional[str],
    ) -> FunctionNode:
        scope = cls if cls is not None else self.module
        qual = f"{scope}.{node.name}"
        params = tuple(
            a.arg
            for a in (
                node.args.posonlyargs
                + node.args.args
                + node.args.kwonlyargs
            )
            if a.arg not in ("self", "cls")
        )
        fn = FunctionNode(
            qualname=qual,
            module=self.module,
            path=self.info.path,
            node=node,
            cls=cls,
            params=params,
            lineno=node.lineno,
        )
        self.graph.functions[qual] = fn
        if cls is None:
            self.local_functions[node.name] = qual
        # Nested functions are registered eagerly so by-name callback
        # folding can target them.
        for inner in ast.walk(node):
            if inner is node:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_qual = f"{qual}.{inner.name}"
                if nested_qual not in self.graph.functions:
                    self.graph.functions[nested_qual] = FunctionNode(
                        qualname=nested_qual,
                        module=self.module,
                        path=self.info.path,
                        node=inner,
                        cls=cls,
                        params=tuple(
                            a.arg
                            for a in inner.args.args
                            if a.arg not in ("self", "cls")
                        ),
                        lineno=inner.lineno,
                    )
        return fn


class _Resolver:
    """Second pass: resolve call expressions for one module."""

    def __init__(
        self,
        graph: CallGraph,
        collector: _ModuleCollector,
        method_index: Dict[str, List[str]],
    ) -> None:
        self.graph = graph
        self.c = collector
        self.method_index = method_index

    # -- type lookups ----------------------------------------------------------

    def _class_by_name(self, name: Optional[str]) -> Optional[str]:
        """Map a bare class name to a class qualname (local → imported
        → unique across the repo)."""
        if not name:
            return None
        if name in self.c.local_classes:
            return self.c.local_classes[name]
        target = self.c.imports.get(name)
        if target is not None and target in self.graph.classes:
            return target
        matches = [
            q
            for q, cls in self.graph.classes.items()
            if cls.name == name
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    def _local_types(
        self, fn: FunctionNode
    ) -> Dict[str, str]:
        """Best-effort ``name -> class qualname`` for a function body."""
        types: Dict[str, str] = {}
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            cls = self._class_by_name(
                _annotation_class_name(arg.annotation)
            )
            if cls is not None:
                types[arg.arg] = cls
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value = stmt.value
                if isinstance(value, ast.Call):
                    callee = value.func
                    name = (
                        callee.id
                        if isinstance(callee, ast.Name)
                        else (
                            callee.attr
                            if isinstance(callee, ast.Attribute)
                            else None
                        )
                    )
                    cls = self._class_by_name(name)
                    if cls is not None:
                        types[target.id] = cls
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                cls = self._class_by_name(
                    _annotation_class_name(stmt.annotation)
                )
                if cls is not None:
                    types[stmt.target.id] = cls
        return types

    def _attr_type(
        self, cls_qual: Optional[str], attr: str
    ) -> Optional[str]:
        if cls_qual is None:
            return None
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            cur = stack.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            cls = self.graph.classes.get(cur)
            if cls is None:
                continue
            name = cls.attr_types.get(attr)
            if name is not None:
                resolved = self._class_by_name(name)
                if resolved is not None:
                    return resolved
            stack.extend(cls.bases)
        return None

    # -- call resolution -------------------------------------------------------

    def resolve(
        self,
        fn: FunctionNode,
        call: ast.Call,
        types: Dict[str, str],
        local_callables: Dict[str, str],
    ) -> Tuple[List[str], List[str]]:
        """Resolve one call; returns (callee qualnames, tags)."""
        callees: List[str] = []
        tags: List[str] = []
        func = call.func

        if isinstance(func, ast.Name):
            name = func.id
            if name in local_callables:
                callees.append(local_callables[name])
            elif name in self.c.local_functions:
                callees.append(self.c.local_functions[name])
            elif name in self.c.local_classes:
                tags.append(f"construct:{self.c.local_classes[name]}")
                init = self.graph.resolve_method(
                    self.c.local_classes[name], "__init__"
                )
                if init is not None:
                    callees.append(init)
            else:
                target = self.c.imports.get(name)
                if target is not None:
                    if target in self.graph.functions:
                        callees.append(target)
                    elif target in self.graph.classes:
                        tags.append(f"construct:{target}")
                        init = self.graph.resolve_method(
                            target, "__init__"
                        )
                        if init is not None:
                            callees.append(init)
        elif isinstance(func, ast.Attribute):
            method = func.attr
            receiver = func.value
            dotted = _dotted_name(func)
            resolved = False
            # 1. fully dotted module path (`mod.sub.f(...)`).
            if dotted is not None and "." in dotted:
                head, rest = dotted.split(".", 1)
                base = self.c.imports.get(head)
                if base is not None:
                    full = f"{base}.{rest}"
                    if full in self.graph.functions:
                        callees.append(full)
                        resolved = True
                    elif full in self.graph.classes:
                        tags.append(f"construct:{full}")
                        init = self.graph.resolve_method(
                            full, "__init__"
                        )
                        if init is not None:
                            callees.append(init)
                        resolved = True
            # 2. self.<method> / typed receivers.
            if not resolved:
                cls_qual: Optional[str] = None
                if isinstance(receiver, ast.Name):
                    if receiver.id == "self":
                        cls_qual = fn.cls
                    else:
                        cls_qual = types.get(receiver.id)
                elif (
                    isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self"
                ):
                    cls_qual = self._attr_type(fn.cls, receiver.attr)
                if cls_qual is not None:
                    target = self.graph.resolve_method(cls_qual, method)
                    if target is not None:
                        callees.append(target)
                        resolved = True
            # 3. unique-definer fallback.
            if (
                not resolved
                and not method.startswith("__")
                and method not in AMBIGUOUS_METHOD_NAMES
            ):
                definers = self.method_index.get(method, [])
                if len(definers) == 1:
                    target = self.graph.resolve_method(
                        definers[0], method
                    )
                    if target is not None:
                        callees.append(target)

        # Higher-order folding: by-name function arguments become
        # callees of this call site.
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            name = arg.id if isinstance(arg, ast.Name) else None
            if name is None:
                continue
            if name in local_callables:
                callees.append(local_callables[name])
            elif name in self.c.local_functions:
                callees.append(self.c.local_functions[name])
        return sorted(set(callees)), tags


def _is_kernel_with(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "kernel"
        ):
            return True
    return False


def _collect_calls(
    graph: CallGraph,
    resolver: _Resolver,
    fn: FunctionNode,
) -> List[CallSite]:
    """Walk ``fn``'s body in source order, resolving calls and tracking
    lexical ``ledger.kernel`` coverage."""
    types = resolver._local_types(fn)
    local_callables: Dict[str, str] = {}
    for stmt in fn.node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_callables[stmt.name] = f"{fn.qualname}.{stmt.name}"
    sites: List[CallSite] = []

    def visit(node: ast.AST, kernel: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn.node:
                return  # nested defs are separate FunctionNodes
        if isinstance(node, (ast.With, ast.AsyncWith)):
            opens = isinstance(node, ast.With) and _is_kernel_with(node)
            for item in node.items:
                visit(item.context_expr, kernel)
            for child in node.body:
                visit(child, kernel or opens)
            return
        if isinstance(node, ast.Call):
            callees, tags = resolver.resolve(
                fn, node, types, local_callables
            )
            scoped = kernel
            dotted = _dotted_name(node.func) or ""
            if dotted.rsplit(".", 1)[-1] in KERNEL_DISPATCH_SUFFIXES:
                scoped = True
            if callees or tags:
                sites.append(
                    CallSite(
                        callees=tuple(callees),
                        node=node,
                        line=node.lineno,
                        kernel_scoped=scoped,
                        tags=tuple(tags),
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, kernel)

    for stmt in fn.node.body:
        visit(stmt, False)
    return sites


def build_callgraph(
    paths: Iterable["str | Path"],
) -> CallGraph:
    """Build the project call graph for every ``.py`` file under ``paths``."""
    graph = CallGraph()
    collectors: List[_ModuleCollector] = []
    for path in iter_python_files(paths):
        try:
            info = load_module(path)
        except SyntaxError:
            continue
        collector = _ModuleCollector(info, graph)
        collector.collect()
        collectors.append(collector)

    method_index: Dict[str, List[str]] = {}
    for qual, cls in graph.classes.items():
        for method in cls.methods:
            method_index.setdefault(method, []).append(qual)

    for collector in collectors:
        resolver = _Resolver(graph, collector, method_index)
        for fn in list(graph.functions.values()):
            if fn.module != collector.module:
                continue
            if fn.qualname in graph.calls:
                continue
            sites = _collect_calls(graph, resolver, fn)
            graph.calls[fn.qualname] = sites
            for site in sites:
                for callee in site.callees:
                    graph.callers.setdefault(callee, []).append(
                        (fn.qualname, site.kernel_scoped)
                    )
    return graph


def callgraph_stats(graph: CallGraph) -> Dict[str, int]:
    """Small summary used by the gate's report."""
    n_edges = sum(
        len(site.callees)
        for sites in graph.calls.values()
        for site in sites
    )
    return {
        "modules": len(graph.modules),
        "functions": len(graph.functions),
        "classes": len(graph.classes),
        "call_sites": sum(len(s) for s in graph.calls.values()),
        "edges": n_edges,
    }
