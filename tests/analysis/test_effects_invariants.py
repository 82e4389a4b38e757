"""Golden fixtures: every invariant fires on its seeded-bad tree.

The same pairs back ``tools/analysis_gate.py``'s self-test stage; the
tests here additionally pin per-invariant details (finding symbol,
pragma suppression, real-tree cleanliness and the performance budget).
"""

import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis.effects.fixtures import (
    FIXTURES,
    materialize,
    run_fixture,
    run_selftest,
)
from repro.analysis.effects.infer import infer_effects
from repro.analysis.effects.invariants import (
    INVARIANTS,
    run_effects_analysis,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestCatalog:
    def test_every_invariant_has_a_fixture_pair(self):
        assert {inv.id for inv in INVARIANTS} == set(FIXTURES)

    def test_selftest_passes(self):
        assert run_selftest() == []


@pytest.mark.parametrize("invariant_id", sorted(FIXTURES))
class TestGoldenFixtures:
    def test_bad_tree_flagged(self, invariant_id):
        findings = run_fixture(FIXTURES[invariant_id][0])
        assert invariant_id in {f.rule for f in findings}

    def test_good_tree_clean(self, invariant_id):
        findings = run_fixture(FIXTURES[invariant_id][1])
        assert [f for f in findings if f.rule == invariant_id] == []


class TestFindingShape:
    def test_wal_after_ack_finding_names_the_op(self):
        findings = run_fixture(FIXTURES["wal-after-ack"][0])
        hit = next(f for f in findings if f.rule == "wal-after-ack")
        assert hit.symbol.endswith("BadServer._op_create")

    def test_digest_leak_is_interprocedural(self):
        # The bad fixture reaches cut_acc through a helper, so a hit
        # proves the checker followed the call edge.
        findings = run_fixture(FIXTURES["digest-reaches-cutacc"][0])
        hit = next(f for f in findings if f.rule == "digest-reaches-cutacc")
        assert "state_digest" in hit.symbol

    def test_backend_billing_is_transitive(self):
        # The fixture kernel only charges through its ``_bill`` helper,
        # so flagging it proves the checker followed the call edge.
        findings = run_fixture(FIXTURES["ledgered-backend-kernel"][0])
        symbols = {
            f.symbol for f in findings if f.rule == "ledgered-backend-kernel"
        }
        assert any(
            s.endswith("kernels.choose_partition") for s in symbols
        ), symbols


class TestPragmaSuppression:
    def test_allow_pragma_silences_an_invariant(self, tmp_path):
        tree = {
            "src/repro/core/pragma_write.py": textwrap.dedent(
                """
                def blank_slots(graph, positions):
                    # repro-lint: allow[uncharged-device-write] host-side rebuild priced by the caller
                    graph.bucket_list[positions] = -1
                """
            )
        }
        findings = run_fixture(tree)
        assert [
            f for f in findings if f.rule == "uncharged-device-write"
        ] == []

    def test_unrelated_allow_does_not_suppress(self, tmp_path):
        tree = {
            "src/repro/core/pragma_other.py": textwrap.dedent(
                """
                def blank_slots(graph, positions):
                    # repro-lint: allow[unseeded-rng] wrong rule on purpose
                    graph.bucket_list[positions] = -1
                """
            )
        }
        findings = run_fixture(tree)
        assert "uncharged-device-write" in {f.rule for f in findings}


class TestMutationSeeding:
    """Mutate a copy of the *real* serve tree and re-find the bug."""

    def test_wal_moved_after_ack_in_real_server_is_caught(self, tmp_path):
        server = (REPO_SRC / "serve" / "server.py").read_text()
        # Seed the bug: an op that acks before journaling.
        server += textwrap.dedent(
            """

            class SeededBadServer:
                def _op_create_seeded(self, request):
                    response = ok_response(ok=True)
                    self.journal.log_flush(0, 0, "seeded")
                    return response
            """
        )
        tree_root = tmp_path / "seeded"
        materialize({"src/repro/serve/server.py": server}, tree_root)
        findings, _ = run_effects_analysis([tree_root])
        hits = [f for f in findings if f.rule == "wal-after-ack"]
        assert hits, "seeded WAL-after-ack mutation was not re-found"
        assert any(
            "SeededBadServer._op_create_seeded" in f.symbol for f in hits
        )

    def test_digest_leak_seeded_into_real_transaction_is_caught(
        self, tmp_path
    ):
        # Mutate the *real* state_digest to fold the derived cut
        # accumulator into the hash — the classic way this invariant
        # would regress.
        transaction = (REPO_SRC / "core" / "transaction.py").read_text()
        marker = "    h = hashlib.sha256()\n"
        assert marker in transaction
        transaction = transaction.replace(
            marker,
            marker + "    _leak = state.cut_acc if state is not None else None\n",
            1,
        )
        tree_root = tmp_path / "seeded"
        materialize(
            {"src/repro/core/transaction.py": transaction}, tree_root
        )
        findings, _ = run_effects_analysis([tree_root])
        hits = [f for f in findings if f.rule == "digest-reaches-cutacc"]
        assert any("state_digest" in f.symbol for f in hits), [
            str(f) for f in findings
        ]


class TestRealTree:
    def test_repo_is_clean_and_fast(self):
        start = time.perf_counter()
        findings, timing = run_effects_analysis([REPO_SRC])
        elapsed = time.perf_counter() - start
        assert findings == [], [str(f) for f in findings]
        assert elapsed < 10.0, f"effects pass took {elapsed:.1f}s"
        # Sanity: the pass actually analyzed the tree.
        assert timing.n_functions > 500

    def test_submit_journals_before_ack(self):
        # wal-after-ack holds for submit only if the analysis sees the
        # journal write behind the worker closure at all.
        engine = infer_effects([REPO_SRC])
        sig = engine.signature(
            "repro.serve.server.PartitionServer._op_submit"
        )
        assert "journal.append" in sig.effects
        journal = sig.first_index(frozenset({"journal.append"}), engine)
        ack = sig.first_index(frozenset({"ack"}), engine)
        assert journal is not None and ack is not None
        assert journal < ack
