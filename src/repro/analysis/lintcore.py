"""Core of the repo-specific AST lint pack.

The framework is deliberately small: a rule is a class with an ``id``,
a docstring explaining the contract it enforces, and a ``check`` method
that walks a parsed module and yields :class:`Finding` objects.  What
the framework adds on top of :mod:`ast` is the repo's suppression
machinery:

* ``# repro-lint: hot-path`` — a file-level marker (anywhere in the
  file, conventionally in the module docstring's vicinity) declaring
  the file a vectorized hot path.  Rules that only apply to hot paths
  (``hot-path-loop``) fire solely in marked files.
* ``# repro-lint: allow[rule-id] reason`` — suppresses ``rule-id`` on
  the line carrying the comment, or on the next code line when the
  comment stands alone.  ``allow[a,b]`` suppresses several rules at
  once, and a pragma on a decorator line extends to the decorated
  ``def``.  The reason is mandatory; an allow without one is itself
  reported (rule id ``bad-pragma``), so every grandfathered exception
  is justified in-place.

Pragmas are read with :mod:`tokenize` so they work in any position a
real comment can occupy (and *only* real comments — pragma-shaped text
inside strings and f-strings is inert).  Each finding also carries its
qualified enclosing symbol (``module.Class.function``), so it names
the function it sits in independently of the file path.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: File-level marker declaring a vectorized hot path (PR 2 contract).
HOT_PATH_MARKER = "hot-path"

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<body>.*\S)\s*$",
)
_ALLOW_RE = re.compile(
    r"allow\[(?P<rules>[a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\]\s*(?P<reason>.*)$",
)


@dataclass(frozen=True)
class Finding:
    """One lint finding.

    ``message`` is written to be stable under unrelated edits: it names
    the construct (function, loop variable, call) rather than quoting
    source text.  ``symbol`` is the qualified enclosing symbol
    (``module.Class.function``), reported in the JSON output; it is
    empty for module-scope findings in unresolvable trees.
    """

    rule: str
    path: str
    line: int
    message: str
    symbol: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class ModuleInfo:
    """A parsed module plus the pragma and parent maps rules rely on."""

    path: str
    tree: ast.Module
    source: str
    #: Line numbers carrying ``allow[rule]`` pragmas → {rule: reason}.
    allowed: dict[int, dict[str, str]] = field(default_factory=dict)
    #: Findings produced while *parsing* pragmas (missing reasons).
    pragma_findings: list[Finding] = field(default_factory=list)
    hot_path: bool = False
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def is_allowed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is suppressed on ``line`` by a pragma."""
        return rule in self.allowed.get(line, {})

    @property
    def module_name(self) -> str:
        """Dotted module name derived from the path.

        ``.../src/repro/serve/server.py`` → ``repro.serve.server``;
        trees without a ``src`` segment anchor on the last ``repro``
        directory, then fall back to the stem.
        """
        parts = list(Path(self.path).parts)
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        if "src" in parts:
            idx = len(parts) - 1 - parts[::-1].index("src")
            tail = parts[idx + 1 :]
            if tail:
                return ".".join(tail)
        if "repro" in parts:
            return ".".join(parts[parts.index("repro") :])
        return parts[-1] if parts else self.path

    def qualified_symbol(self, node: ast.AST) -> str:
        """``module.Class.function`` for the scope enclosing ``node``.

        The node's own name is included when it *is* a def/class;
        module-scope nodes resolve to the bare module name.  This is
        the rename-stable identity findings key on.
        """
        names: list[str] = []
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.append(node.name)
        for anc in self.ancestors(node):
            if isinstance(
                anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.append(anc.name)
        names.append(self.module_name)
        return ".".join(reversed(names))


def load_module(path: str | Path) -> ModuleInfo:
    """Parse ``path`` into a :class:`ModuleInfo` (tree + pragmas + parents)."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    info = ModuleInfo(path=str(path), tree=tree, source=source)
    _collect_pragmas(info)
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            info.parents[child] = parent
    _extend_decorator_pragmas(info)
    return info


def _extend_decorator_pragmas(info: ModuleInfo) -> None:
    """A pragma on a decorator line also covers the decorated def.

    Findings about a decorated function anchor on the ``def`` line,
    but the natural place to write the pragma is often next to the
    decorator that causes the finding — honor both.
    """
    for node in ast.walk(info.tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.decorator_list:
            continue
        for deco in node.decorator_list:
            allows = info.allowed.get(deco.lineno)
            if not allows:
                continue
            for rule, reason in allows.items():
                info.allowed.setdefault(node.lineno, {}).setdefault(
                    rule, reason
                )


def _collect_pragmas(info: ModuleInfo) -> None:
    """Scan comments with tokenize and populate the suppression maps.

    A standalone-comment pragma (nothing but whitespace before the
    ``#``) applies to the next line as well, so allows can sit above
    long statements without breaking line length.
    """
    code_lines: set[int] = set()
    comments: list[tuple[int, int, str]] = []  # (line, col, text)
    try:
        tokens = tokenize.generate_tokens(io.StringIO(info.source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.start[1], tok.string))
            elif tok.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENCODING,
                tokenize.ENDMARKER,
            ):
                code_lines.add(tok.start[0])
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse catches first
        return

    for line, col, text in comments:
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        body = match.group("body")
        if body == HOT_PATH_MARKER:
            info.hot_path = True
            continue
        allow = _ALLOW_RE.match(body)
        if allow is None:
            info.pragma_findings.append(
                Finding(
                    rule="bad-pragma",
                    path=info.path,
                    line=line,
                    message=f"unrecognized repro-lint pragma {body!r}",
                )
            )
            continue
        rules = [r.strip() for r in allow.group("rules").split(",")]
        reason = allow.group("reason").strip()
        if not reason:
            info.pragma_findings.append(
                Finding(
                    rule="bad-pragma",
                    path=info.path,
                    line=line,
                    message=(
                        f"allow[{','.join(rules)}] pragma is missing "
                        "a reason"
                    ),
                )
            )
            continue
        targets = [line]
        if line not in code_lines or col == 0:
            # Standalone comment: also covers the next line.
            targets.append(line + 1)
        for target in targets:
            for rule in rules:
                info.allowed.setdefault(target, {})[rule] = reason


class LintRule:
    """Base class for lint rules.

    Subclasses set ``id`` (kebab-case, used in pragmas and findings)
    and implement :meth:`check`.  ``applies_to`` lets path-scoped rules
    skip whole files cheaply.
    """

    id: str = ""

    def applies_to(self, info: ModuleInfo) -> bool:
        return True

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, info: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=info.path,
            line=getattr(node, "lineno", 0),
            message=message,
            symbol=info.qualified_symbol(node),
        )


def lint_module(info: ModuleInfo, rules: Sequence[LintRule]) -> list[Finding]:
    """Run ``rules`` over one parsed module, honoring allow pragmas."""
    findings = list(info.pragma_findings)
    for rule in rules:
        if not rule.applies_to(info):
            continue
        for finding in rule.check(info):
            if info.is_allowed(rule.id, finding.line):
                continue
            findings.append(finding)
    return findings


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[LintRule]
) -> list[Finding]:
    """Lint every Python file under ``paths`` with ``rules``.

    Files that fail to parse produce a single ``syntax-error`` finding
    instead of aborting the run — the gate should report the file, not
    crash.
    """
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            info = load_module(path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="syntax-error",
                    path=str(path),
                    line=exc.lineno or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        findings.extend(lint_module(info, rules))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
