"""Every definition in ``src/repro`` has a caller outside ``tests/``.

The guard parses the source tree and fails on each top-level function
or class, and each non-dunder method of a top-level class, that nothing
but tests uses, printing it as ``path:line Qualified.name``.

A use is the definition's name in a ``.py`` file under ``src/``,
``tools/``, ``benchmarks/``, ``e2ebench/`` or ``examples/``, outside the
definition itself: a name, an attribute, an imported name, or an
identifier-shaped string constant (``getattr`` targets, string
annotations).  In a package ``__init__.py`` only names and attributes
count: a re-export or an ``__all__`` entry is not a use, but building a
registry from the names (``ALL_RULES``) is.

Names are matched, not resolved, so a definition sharing its name with
a live one passes (a module-level ``compact`` would hide behind
``SessionWAL.compact``).  The guard is a floor, not a proof.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USE_DIRS = ("src", "tools", "benchmarks", "e2ebench", "examples")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Definitions kept without a non-test use, each with its reason.
ALLOWED = {
    "segmented_inclusive_scan": (
        "defines what charge_segmented_scan charges for; the Figure 5 "
        "paper-example test runs it"
    ),
    "write_metis": "writes the format read_metis reads (round-trip tests)",
    "write_edge_list": (
        "writes the format read_edge_list reads (round-trip tests)"
    ),
    "BucketListGraph.edge_weight": (
        "read-only accessor tests use to inspect a live bucket pool"
    ),
    "CSRGraph.total_edge_weight": (
        "read-only accessor tests use to inspect a graph"
    ),
    "EffectEngine.signature": (
        "read-only accessor tests use to inspect inferred effects"
    ),
}


def _definitions(root: Path):
    """``(path, node, qualname)`` for every scanned definition."""
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                continue
            yield path, node, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCTIONS) and not (
                        member.name.startswith("__")
                        and member.name.endswith("__")
                    ):
                        yield path, member, f"{node.name}.{member.name}"


def _used_name(node: ast.AST, package_init: bool) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if package_init:
        return None
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _IDENTIFIER.match(node.value)
    ):
        return node.value
    return None


def _uses(root: Path) -> dict[str, list[tuple[Path, int]]]:
    """Name -> ``(path, line)`` of every use outside ``tests/``."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in USE_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            package_init = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                name = _used_name(node, package_init)
                if name is not None:
                    uses.setdefault(name, []).append((path, node.lineno))
    return uses


def surface_problems(root: Path, allowed: dict[str, str]) -> list[str]:
    """One line per unused definition not in ``allowed``, and per
    ``allowed`` entry that is no longer defined or has gained a use."""
    uses = _uses(root)
    defined: set[str] = set()
    unused: set[str] = set()
    problems = []
    for path, node, qualname in _definitions(root):
        defined.add(qualname)
        if any(
            site != path or not node.lineno <= line <= node.end_lineno
            for site, line in uses.get(node.name, ())
        ):
            continue
        unused.add(qualname)
        if qualname not in allowed:
            rel = path.relative_to(root).as_posix()
            problems.append(f"{rel}:{node.lineno} {qualname}")
    for qualname in sorted(allowed):
        if qualname not in defined:
            problems.append(f"ALLOWED[{qualname!r}] is no longer defined")
        elif qualname not in unused:
            problems.append(f"ALLOWED[{qualname!r}] has a use outside tests")
    return problems


def test_every_definition_has_a_use_outside_tests():
    problems = surface_problems(ROOT, ALLOWED)
    assert not problems, (
        "definitions only tests use (delete them, or add an ALLOWED "
        "entry with its reason):\n" + "\n".join(problems)
    )


def test_allowed_entries_give_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_guard_on_a_small_tree(tmp_path):
    files = {
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.mod import Engine, dead, registered\n"
            "__all__ = ['Engine', 'dead', 'registered']\n"
            "REGISTRY = (registered,)\n"
        ),
        "src/repro/pkg/mod.py": (
            "def dead():\n"
            "    return dead()\n"
            "def registered():\n"
            "    pass\n"
            "def by_string():\n"
            "    pass\n"
            "class Engine:\n"
            "    def __repr__(self):\n"
            "        return 'Engine'\n"
            "    def run(self):\n"
            "        return getattr(self, 'by_string')\n"
            "    def idle(self):\n"
            "        pass\n"
        ),
        "tools/cli.py": "from repro.pkg.mod import Engine\nEngine().run()\n",
        "tests/test_mod.py": "from repro.pkg.mod import dead\ndead()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)

    assert surface_problems(tmp_path, {}) == [
        "src/repro/pkg/mod.py:1 dead",
        "src/repro/pkg/mod.py:12 Engine.idle",
    ]
    stale = {"dead": "r", "Engine.idle": "r", "Engine.run": "r", "gone": "r"}
    assert surface_problems(tmp_path, stale) == [
        "ALLOWED['Engine.run'] has a use outside tests",
        "ALLOWED['gone'] is no longer defined",
    ]
