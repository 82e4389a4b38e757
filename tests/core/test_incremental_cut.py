"""The incremental cut accumulator vs. the ground-truth pool scan.

Every property here pins the PR 7 contract: after any committed batch —
modifier deltas, balancing moves, refinement moves, in either execution
mode — the maintained extended-label arc matrix equals a from-scratch
pool scan bit-for-bit, and survives transactional rollback and
checkpoint/recover round-trips.
"""

import numpy as np
import pytest

from repro import IGKway, PartitionConfig
from repro.core.serialize import load_partitioner, save_partitioner
from repro.core.transaction import transaction
from repro.eval.workloads import TraceConfig, generate_trace
from repro.graph import EdgeInsert, ModifierBatch, circuit_graph
from repro.partition.cutcheck import verify_cut
from repro.partition.metrics import (
    arc_matrix_bucketlist,
    cut_matrix_bucketlist,
    cut_size_bucketlist,
)
from repro.utils import ModifierError, PartitionError


def _build(mode, n=500, k=4, seed=7):
    csr = circuit_graph(n, 1.3, seed=seed)
    ig = IGKway(
        csr, PartitionConfig(k=k, mode=mode, seed=seed), capacity_factor=1.6
    )
    ig.full_partition()
    return ig


def _trace(ig, iterations=6, seed=11):
    return generate_trace(
        ig.initial_csr,
        TraceConfig(
            iterations=iterations,
            modifiers_per_iteration=(5, 30),
            seed=seed,
        ),
    )


@pytest.mark.parametrize("mode", ["vector", "warp"])
class TestIncrementalMatchesScan:
    def test_every_batch_matches_scan(self, mode):
        ig = _build(mode)
        k = ig.config.k
        for batch in _trace(ig):
            report = ig.apply(batch)
            graph, state = ig.graph, ig.state
            assert report.cut == cut_size_bucketlist(
                graph, state.partition
            )
            acc = state.cut_acc
            assert np.array_equal(
                acc.arc_matrix(),
                arc_matrix_bucketlist(graph, state.partition, k),
            )

    def test_cut_matrix_symmetry_and_sums(self, mode):
        ig = _build(mode)
        k = ig.config.k
        for batch in _trace(ig, iterations=4, seed=3):
            report = ig.apply(batch)
            matrix = ig.cut_matrix()
            assert np.array_equal(
                matrix,
                cut_matrix_bucketlist(ig.graph, ig.state.partition, k),
            )
            assert np.array_equal(matrix, matrix.T)
            # Row sums == per-partition (internal + external) incident
            # weight from the arc matrix's real block.
            ext = ig.state.cut_acc.arc_matrix()
            real = ext[:k, :k]
            off = matrix - np.diag(np.diagonal(matrix))
            assert np.array_equal(
                off.sum(axis=0), real.sum(axis=0) - np.diagonal(real)
            )
            assert np.array_equal(
                off.sum(axis=1), real.sum(axis=1) - np.diagonal(real)
            )
            if ext[k:, :].sum() == 0 and ext[:, k:].sum() == 0:
                # No pseudo/UNASSIGNED arcs left: the real block's
                # upper triangle is the whole cut.
                assert int(np.triu(matrix, 1).sum()) == report.cut

    def test_sanitizer_mode_end_to_end(self, mode):
        ig = _build(mode)
        ig.verify_cut_scan = True
        for batch in _trace(ig, iterations=3, seed=5):
            ig.apply(batch)

    def test_failed_batch_rolls_back_accumulator(self, mode):
        ig = _build(mode)
        trace = _trace(ig, iterations=2, seed=9)
        ig.apply(trace[0])
        before = ig.state.cut_acc.arc_matrix()
        with pytest.raises(ModifierError):
            # Validates at expansion (duplicate edge), after a pending
            # good modifier: the transaction must leave no trace.
            ig.apply(ModifierBatch([EdgeInsert(0, 1), EdgeInsert(0, 1)]))
        assert np.array_equal(ig.state.cut_acc.arc_matrix(), before)
        verify_cut(ig.graph, ig.state)
        report = ig.apply(trace[1])
        assert report.cut == cut_size_bucketlist(
            ig.graph, ig.state.partition
        )

    def test_transaction_rollback_restores_matrix_bit_identically(
        self, mode
    ):
        ig = _build(mode)
        state = ig.state
        before = state.cut_acc.arc_matrix()
        u = int(ig.graph.active_vertices()[0])
        with pytest.raises(RuntimeError, match="boom"):
            with transaction(ig.graph, state, ctx=ig.ctx):
                # Mid-flight single and bulk moves, then a failure.
                state.move(u, (int(state.partition[u]) + 1) % ig.config.k)
                movers = ig.graph.active_vertices()[:8].astype(np.int64)
                state.apply_moves(
                    movers,
                    (state.partition[movers] + 1) % ig.config.k,
                )
                raise RuntimeError("boom")
        assert np.array_equal(state.cut_acc.arc_matrix(), before)
        verify_cut(ig.graph, state)

    def test_checkpoint_recover_rebootstraps(self, mode, tmp_path):
        ig = _build(mode)
        trace = _trace(ig, iterations=3, seed=13)
        for batch in trace[:2]:
            ig.apply(batch)
        path = tmp_path / "ck.npz"
        save_partitioner(ig, path)
        recovered = load_partitioner(path)
        # Derived state is not serialized; loading bootstraps a live
        # accumulator from the loaded graph.
        acc = recovered.state.cut_acc
        assert acc is not None and acc.graph is recovered.graph
        assert np.array_equal(
            acc.arc_matrix(),
            arc_matrix_bucketlist(
                recovered.graph, recovered.state.partition, acc.k
            ),
        )
        assert recovered.cut_size() == cut_size_bucketlist(
            recovered.graph, recovered.state.partition
        )
        r_orig = ig.apply(trace[2])
        r_rec = recovered.apply(trace[2])
        assert r_rec.cut == r_orig.cut
        verify_cut(recovered.graph, recovered.state)


class TestVerifyCut:
    def test_detects_matrix_corruption(self):
        ig = _build("vector")
        ig.state.cut_acc._flat[1] += 1
        with pytest.raises(PartitionError, match="drifted"):
            verify_cut(ig.graph, ig.state)


class TestCostModel:
    def test_cut_maintenance_charged_proportionally(self):
        ig = _build("vector")
        # The bootstrap at full_partition is uncharged.
        assert ig.ctx.ledger.seconds("cut_maintenance") == 0.0
        report = ig.apply(next(iter(_trace(ig, iterations=1, seed=2))))
        assert report.cut_maintenance_seconds > 0.0
        assert ig.ctx.ledger.seconds("cut_maintenance") > 0.0
        # The drain leaves nothing behind for the next batch to recharge.
        assert ig.state.cut_acc.touched_arcs == 0

    def test_touched_arcs_drained_once(self):
        ig = _build("vector")
        acc = ig.state.cut_acc
        u = int(ig.graph.active_vertices()[0])
        ig.state.move(u, (int(ig.state.partition[u]) + 1) % ig.config.k)
        first = acc.take_touched()
        assert first > 0
        assert acc.take_touched() == 0
