"""Seeded-bad (and matching good) fixture trees for the invariants.

Each invariant in the catalog has a miniature source tree that
violates it — a checkpoint written *after* the ack, a digest that reads
``CutAccumulator`` state, an unpriced device write — plus a corrected
twin.  ``run_selftest`` materializes every pair into a temp directory
and asserts the invariant fires on the bad tree and stays silent on
the good one; a checker that cannot re-find these seeded bugs would
let the repo-wide pass succeed vacuously, so ``tools/analysis_gate.py``
runs this before trusting a clean repo result.

Fixture paths mirror the real layout (``src/repro/...``) because the
invariants scope by module path.
"""

from __future__ import annotations

import tempfile
import textwrap
from pathlib import Path
from typing import Dict, List, Tuple

from repro.analysis.effects.invariants import run_effects_analysis
from repro.analysis.lintcore import Finding

#: invariant id -> (bad tree, good tree); trees are relpath -> source.
FIXTURES: Dict[str, Tuple[Dict[str, str], Dict[str, str]]] = {
    "wal-after-ack": (
        {
            "src/repro/serve/bad_server.py": """
            def ok_response(**fields):
                return dict(fields)

            class BadServer:
                def _op_create(self, request):
                    response = ok_response(ok=True)
                    self.journal.write_checkpoint(self.partitioner, {})
                    return response
            """,
        },
        {
            "src/repro/serve/good_server.py": """
            def ok_response(**fields):
                return dict(fields)

            class GoodServer:
                def _op_create(self, request):
                    self.journal.write_checkpoint(self.partitioner, {})
                    return ok_response(ok=True)
            """,
        },
    ),
    "digest-reaches-cutacc": (
        {
            "src/repro/core/bad_digest.py": """
            def _fold_derived(state):
                return state.cut_acc

            def state_digest(graph, state):
                acc = _fold_derived(state)
                return [graph, acc]
            """,
        },
        {
            "src/repro/core/good_digest.py": """
            def state_digest(graph, state):
                return [graph, state.partition_bytes()]
            """,
        },
    ),
    "uncharged-device-write": (
        {
            "src/repro/core/bad_write.py": """
            def blank_slots(graph, positions):
                graph.bucket_list[positions] = -1
            """,
        },
        {
            "src/repro/core/good_write.py": """
            def blank_slots(ctx, graph, positions):
                ledger = ctx.ledger
                with ledger.kernel("blank-slots"):
                    graph.bucket_list[positions] = -1
                    ledger.charge_transactions(1)
            """,
        },
    ),
    "ledgered-backend-kernel": (
        {
            "src/repro/core/kernels.py": """
            def choose_partition(counts, ledger):
                _bill(ledger)
                return counts

            def _bill(ledger):
                ledger.charge_instructions(1)
            """,
        },
        {
            "src/repro/core/kernels.py": """
            def choose_partition(counts):
                return counts.argmax()
            """,
        },
    ),
    "unseeded-hotpath-rng": (
        {
            "src/repro/core/refinement.py": """
            import numpy as np

            def jitter_moves(buffer):
                rng = np.random.default_rng()
                return rng.random(len(buffer))
            """,
        },
        {
            "src/repro/core/refinement.py": """
            import numpy as np

            def jitter_moves(buffer, seed):
                rng = np.random.default_rng(seed)
                return rng.random(len(buffer))
            """,
        },
    ),
}


def materialize(tree: Dict[str, str], root: "str | Path") -> Path:
    """Write a fixture tree under ``root``; returns the tree root."""
    root = Path(root)
    for relpath, code in tree.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")
    return root


def run_fixture(tree: Dict[str, str]) -> List[Finding]:
    """Run the full effects analysis over one materialized tree."""
    with tempfile.TemporaryDirectory(prefix="repro-effects-") as tmp:
        root = materialize(tree, tmp)
        findings, _timing = run_effects_analysis([root])
    return findings


def run_selftest() -> List[str]:
    """Prove every invariant fires on its bad tree and not the good.

    Returns failure descriptions (empty = pass).
    """
    failures: List[str] = []
    for invariant_id, (bad, good) in sorted(FIXTURES.items()):
        bad_rules = {f.rule for f in run_fixture(bad)}
        if invariant_id not in bad_rules:
            failures.append(
                f"{invariant_id}: seeded-bad fixture was NOT flagged "
                f"(fired: {sorted(bad_rules) or 'nothing'})"
            )
        good_hits = [
            f for f in run_fixture(good) if f.rule == invariant_id
        ]
        if good_hits:
            failures.append(
                f"{invariant_id}: clean fixture produced "
                f"{len(good_hits)} false positive(s): {good_hits[0]}"
            )
    return failures
