"""Effect extraction and fixed-point propagation."""

import textwrap

from repro.analysis.effects.infer import infer_effects


def _engine(tmp_path, tree):
    for relpath, code in tree.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code))
    return infer_effects([tmp_path])


class TestDirectEffects:
    def test_journal_append_detected(self, tmp_path):
        engine = _engine(
            tmp_path,
            {
                "src/repro/serve/a.py": """
                class Server:
                    def op(self):
                        self.journal.write_checkpoint(self.partitioner, {})
                """
            },
        )
        sig = engine.signature("repro.serve.a.Server.op")
        assert "journal.append" in sig.direct

    def test_ledger_charge_detected(self, tmp_path):
        engine = _engine(
            tmp_path,
            {
                "src/repro/core/b.py": """
                def bill(ledger):
                    ledger.charge_instructions(4)
                """
            },
        )
        assert "ledger.charge" in engine.signature(
            "repro.core.b.bill"
        ).direct

    def test_rng_detected_and_seed_param_recorded(self, tmp_path):
        engine = _engine(
            tmp_path,
            {
                "src/repro/core/c.py": """
                import numpy as np

                def seeded(seed):
                    return np.random.default_rng(seed)

                def unseeded():
                    return np.random.default_rng()
                """
            },
        )
        seeded = engine.signature("repro.core.c.seeded")
        unseeded = engine.signature("repro.core.c.unseeded")
        assert "rng" in seeded.direct and seeded.has_seed_param
        assert "rng" in unseeded.direct and not unseeded.has_seed_param

    def test_device_write_charged_inside_kernel_scope(self, tmp_path):
        engine = _engine(
            tmp_path,
            {
                "src/repro/core/d.py": """
                def charged(ctx, graph):
                    with ctx.ledger.kernel("scatter"):
                        graph.bucket_list[0] = 1

                def uncharged(graph):
                    graph.bucket_list[0] = 1
                """
            },
        )
        charged = engine.signature("repro.core.d.charged")
        uncharged = engine.signature("repro.core.d.uncharged")
        assert "device.write" in charged.direct
        assert "device.write.uncharged" not in charged.direct
        assert "device.write.uncharged" in uncharged.direct


class TestPropagation:
    def test_effects_propagate_transitively(self, tmp_path):
        engine = _engine(
            tmp_path,
            {
                "src/repro/serve/e.py": """
                class Journal:
                    def log_flush(self):
                        pass

                class Server:
                    def _persist(self):
                        self.journal.log_flush()

                    def _dispatch(self):
                        self._persist()

                    def op(self):
                        self._dispatch()
                """
            },
        )
        # Journal.log_flush is itself the journal.append primitive by
        # name.
        assert "journal.append" in engine.signature(
            "repro.serve.e.Server.op"
        ).effects

    def test_kernel_scoped_call_discharges_uncharged_write(self, tmp_path):
        engine = _engine(
            tmp_path,
            {
                "src/repro/core/f.py": """
                def scatter(graph):
                    graph.bucket_list[0] = 1

                def covered(ctx, graph):
                    with ctx.ledger.kernel("scatter"):
                        scatter(graph)

                def exposed(graph):
                    scatter(graph)
                """
            },
        )
        assert "device.write.uncharged" in engine.signature(
            "repro.core.f.scatter"
        ).effects
        assert "device.write.uncharged" not in engine.signature(
            "repro.core.f.covered"
        ).effects
        assert "device.write.uncharged" in engine.signature(
            "repro.core.f.exposed"
        ).effects

    def test_recursive_cycle_reaches_fixed_point(self, tmp_path):
        engine = _engine(
            tmp_path,
            {
                "src/repro/core/g.py": """
                def ping(ledger, n):
                    if n:
                        pong(ledger, n - 1)

                def pong(ledger, n):
                    ledger.charge_instructions(1)
                    ping(ledger, n)
                """
            },
        )
        assert "ledger.charge" in engine.signature(
            "repro.core.g.ping"
        ).effects
        assert "ledger.charge" in engine.signature(
            "repro.core.g.pong"
        ).effects


class TestEventOrdering:
    def test_events_preserve_source_order(self, tmp_path):
        engine = _engine(
            tmp_path,
            {
                "src/repro/serve/h.py": """
                def ok_response(**fields):
                    return dict(fields)

                class Server:
                    def good(self):
                        self.journal.log_flush()
                        return ok_response(ok=True)

                    def bad(self):
                        response = ok_response(ok=True)
                        self.journal.log_flush()
                        return response
                """
            },
        )
        journal = frozenset({"journal.append"})
        ack = frozenset({"ack"})
        good = engine.signature("repro.serve.h.Server.good")
        bad = engine.signature("repro.serve.h.Server.bad")
        assert good.first_index(journal, engine) < good.first_index(
            ack, engine
        )
        assert bad.first_index(ack, engine) < bad.first_index(
            journal, engine
        )


class TestExposure:
    def test_exposed_functions_stop_at_kernel_scoped_edges(self, tmp_path):
        engine = _engine(
            tmp_path,
            {
                "src/repro/core/i.py": """
                def leaf(graph):
                    graph.bucket_list[0] = 1

                def covered_entry(ctx, graph):
                    with ctx.ledger.kernel("k"):
                        leaf(graph)
                """
            },
        )
        exposed = engine.exposed_functions()
        # covered_entry is a root, but the only edge to leaf is
        # kernel-scoped, so leaf itself is not root-exposed.
        assert "repro.core.i.covered_entry" in exposed
        assert "repro.core.i.leaf" not in exposed
