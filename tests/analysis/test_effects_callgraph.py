"""Call-graph construction: resolution rules the invariants rely on."""

import textwrap
from pathlib import Path

from repro.analysis.effects.callgraph import build_callgraph

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _graph(tmp_path, tree):
    for relpath, code in tree.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code))
    return build_callgraph([tmp_path])


def _callees(graph, qualname):
    out = set()
    for site in graph.calls.get(qualname, []):
        out.update(site.callees)
    return out


class TestDirectCalls:
    def test_same_module_call(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/a.py": """
                def helper():
                    pass

                def driver():
                    helper()
                """
            },
        )
        assert "repro.core.a.helper" in _callees(graph, "repro.core.a.driver")

    def test_imported_module_qualified_call(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/util.py": """
                def clamp(x):
                    return x
                """,
                "src/repro/core/b.py": """
                from repro.core import util

                def driver(x):
                    return util.clamp(x)
                """,
            },
        )
        assert "repro.core.util.clamp" in _callees(graph, "repro.core.b.driver")

    def test_from_import_call(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/util.py": """
                def clamp(x):
                    return x
                """,
                "src/repro/core/c.py": """
                from repro.core.util import clamp

                def driver(x):
                    return clamp(x)
                """,
            },
        )
        assert "repro.core.util.clamp" in _callees(graph, "repro.core.c.driver")


class TestMethodResolution:
    def test_self_method(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/d.py": """
                class Engine:
                    def _step(self):
                        pass

                    def run(self):
                        self._step()
                """
            },
        )
        assert "repro.core.d.Engine._step" in _callees(
            graph, "repro.core.d.Engine.run"
        )

    def test_annotated_parameter_receiver(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/e.py": """
                class Ledger:
                    def charge(self, n):
                        pass

                def bill(ledger: Ledger):
                    ledger.charge(1)
                """
            },
        )
        assert "repro.core.e.Ledger.charge" in _callees(
            graph, "repro.core.e.bill"
        )

    def test_init_attribute_receiver(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/f.py": """
                class Wal:
                    def append_create(self):
                        pass

                class Server:
                    def __init__(self):
                        self.wal = Wal()

                    def op(self):
                        self.wal.append_create()
                """
            },
        )
        assert "repro.core.f.Wal.append_create" in _callees(
            graph, "repro.core.f.Server.op"
        )

    def test_inherited_method_resolves_through_base(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/g.py": """
                class Base:
                    def work(self):
                        pass

                class Child(Base):
                    def run(self):
                        self.work()
                """
            },
        )
        assert "repro.core.g.Base.work" in _callees(
            graph, "repro.core.g.Child.run"
        )

    def test_ambiguous_name_not_resolved_by_unique_definer(self, tmp_path):
        # ``copy`` is on the deny-list: a bare ``x.copy()`` with an
        # unknown receiver must not link to some class's copy method.
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/h.py": """
                class State:
                    def copy(self):
                        pass

                def driver(x):
                    return x.copy()
                """
            },
        )
        assert "repro.core.h.State.copy" not in _callees(
            graph, "repro.core.h.driver"
        )


class TestRealTreeKernelEdges:
    def test_each_kernel_keeps_its_callers(self):
        """The bulk kernels are plain functions called directly; the
        call graph must still see every caller the effect invariants
        check them through."""
        graph = build_callgraph([REPO_SRC])
        expected = {
            "choose_partition": {"repro.core.refinement._find_moves_vector"},
            "feasible_prefix": {
                "repro.core.refinement.longest_feasible_prefix"
            },
            "apply_move_deltas": {
                "repro.partition.state.PartitionState.apply_moves"
            },
            "fold_cut_deltas": {
                f"repro.partition.cutacc.CutAccumulator.{method}"
                for method in ("fold_arcs", "on_move", "on_moves")
            },
        }
        for kernel, callers in expected.items():
            got = {
                caller
                for caller, _ in graph.callers.get(
                    f"repro.core.kernels.{kernel}", []
                )
            }
            assert got == callers, kernel


class TestKernelScope:
    def test_call_inside_ledger_kernel_is_kernel_scoped(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/j.py": """
                def scatter(graph):
                    graph.bucket_list[0] = 1

                def driver(ctx, graph):
                    with ctx.ledger.kernel("scatter"):
                        scatter(graph)
                    scatter(graph)
                """
            },
        )
        sites = [
            s
            for s in graph.calls["repro.core.j.driver"]
            if "repro.core.j.scatter" in s.callees
        ]
        assert [s.kernel_scoped for s in sites] == [True, False]


class TestHigherOrder:
    def test_function_valued_argument_becomes_callee(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/k.py": """
                def work():
                    pass

                def schedule(fn):
                    fn()

                def driver():
                    schedule(work)
                """
            },
        )
        assert "repro.core.k.work" in _callees(graph, "repro.core.k.driver")


class TestRoots:
    def test_uncalled_function_is_a_root(self, tmp_path):
        graph = _graph(
            tmp_path,
            {
                "src/repro/core/m.py": """
                def helper():
                    pass

                def entry():
                    helper()
                """
            },
        )
        roots = graph.roots()
        assert "repro.core.m.entry" in roots
        assert "repro.core.m.helper" not in roots
