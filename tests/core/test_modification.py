"""Modification kernels: Algorithms 1 & 2 plus modifier expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SlotDelete,
    SlotInsert,
    VertexActivate,
    VertexDeactivate,
    apply_batch,
    apply_ops_vector,
    apply_ops_warp,
    expand_modifiers,
)
from repro.graph import (
    EMPTY,
    SLOTS_PER_BUCKET,
    BucketListGraph,
    CSRGraph,
    EdgeDelete,
    EdgeInsert,
    HostGraph,
    VertexDelete,
    VertexInsert,
    circuit_graph,
)
from repro.gpusim import GpuContext
from repro.utils import ModifierError


@pytest.fixture(params=["warp", "vector"])
def mode(request):
    return request.param


def apply_ops(ctx, graph, ops, mode):
    if mode == "warp":
        return apply_ops_warp(ctx, graph, ops)
    return apply_ops_vector(ctx, graph, ops)


class TestEdgeInsert:
    def test_fills_first_empty_slot(self, ctx, tiny_bucketlist, mode):
        g = tiny_bucketlist
        start, _ = g.slot_range(3)
        first_empty = int(np.flatnonzero(g.slots(3) == EMPTY)[0])
        apply_ops(ctx, g, [SlotInsert(3, 0, 1), SlotInsert(0, 3, 1)], mode)
        assert g.bucket_list[start + first_empty] == 0
        assert g.has_edge(3, 0) and g.has_edge(0, 3)
        g.validate()

    def test_weight_stored(self, ctx, tiny_bucketlist, mode):
        apply_ops(
            ctx, tiny_bucketlist,
            [SlotInsert(3, 0, 9), SlotInsert(0, 3, 9)], mode,
        )
        assert tiny_bucketlist.edge_weight(3, 0) == 9
        assert tiny_bucketlist.edge_weight(0, 3) == 9

    def test_overflow_relocates(self, ctx, mode):
        """Filling beyond every slot triggers the relocation path."""
        # One vertex with gamma = 0 and exactly one bucket.
        edges = np.array([[0, i] for i in range(1, 33)])  # degree 32
        csr = CSRGraph.from_edges(40, edges)
        graph = BucketListGraph.from_csr(csr, gamma=0)
        assert graph.bucket_count[0] == 1
        apply_ops(
            ctx, graph, [SlotInsert(0, 35, 1), SlotInsert(35, 0, 1)], mode
        )
        assert graph.bucket_count[0] == 2
        assert graph.has_edge(0, 35)
        graph.validate()

    def test_charges_ledger(self, ctx, tiny_bucketlist, mode):
        apply_ops(ctx, tiny_bucketlist, [SlotInsert(0, 3, 1),
                                         SlotInsert(3, 0, 1)], mode)
        assert ctx.ledger.total.kernel_launches == 1
        assert ctx.ledger.total.warp_instructions > 0


class TestEdgeDelete:
    def test_marks_slot_empty(self, ctx, tiny_bucketlist, mode):
        g = tiny_bucketlist
        apply_ops(ctx, g, [SlotDelete(0, 1), SlotDelete(1, 0)], mode)
        assert not g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        g.validate()

    def test_missing_edge_raises(self, ctx, tiny_bucketlist, mode):
        with pytest.raises(ModifierError):
            apply_ops(ctx, tiny_bucketlist, [SlotDelete(0, 3)], mode)

    def test_delete_then_reinsert_reuses_slot(self, ctx, tiny_bucketlist,
                                              mode):
        g = tiny_bucketlist
        start, _ = g.slot_range(0)
        slot_of_1 = int(np.flatnonzero(g.slots(0) == 1)[0])
        apply_ops(ctx, g, [SlotDelete(0, 1), SlotDelete(1, 0)], mode)
        apply_ops(ctx, g, [SlotInsert(0, 3, 1), SlotInsert(3, 0, 1)], mode)
        # First empty slot is the freed one.
        assert g.bucket_list[start + slot_of_1] == 3


class TestVertexOps:
    def test_deactivate_clears_and_marks(self, ctx, tiny_bucketlist, mode):
        g = tiny_bucketlist
        # Remove reverse references first (the driver's expansion does
        # this automatically; here we exercise the kernel directly).
        ops = [SlotDelete(int(v), 3) for v in g.neighbors(3)]
        ops.append(VertexDeactivate(3))
        apply_ops(ctx, g, ops, mode)
        assert not g.is_active(3)
        assert np.all(g.slots(3) == EMPTY)
        g.validate()

    def test_deactivate_inactive_raises(self, ctx, tiny_bucketlist, mode):
        ops = [SlotDelete(int(v), 3) for v in tiny_bucketlist.neighbors(3)]
        ops.append(VertexDeactivate(3))
        apply_ops(ctx, tiny_bucketlist, ops, mode)
        with pytest.raises(ModifierError):
            apply_ops(ctx, tiny_bucketlist, [VertexDeactivate(3)], mode)

    def test_reactivate_reuses_buckets(self, ctx, tiny_bucketlist, mode):
        g = tiny_bucketlist
        ops = [SlotDelete(int(v), 3) for v in g.neighbors(3)]
        ops += [VertexDeactivate(3)]
        apply_ops(ctx, g, ops, mode)
        pool_before = g.num_buckets_used
        apply_ops(ctx, g, [VertexActivate(3, 7)], mode)
        assert g.is_active(3)
        assert g.vwgt[3] == 7
        assert g.degree(3) == 0
        assert g.num_buckets_used == pool_before  # buckets reused
        g.validate()

    def test_activate_new_id_appends_bucket(self, ctx, tiny_bucketlist,
                                             mode):
        g = tiny_bucketlist
        new_id = g.num_vertices
        pool_before = g.num_buckets_used
        apply_ops(ctx, g, [VertexActivate(new_id, 2)], mode)
        assert g.is_active(new_id)
        assert g.num_vertices == new_id + 1
        assert g.bucket_count[new_id] == 1  # "a single bucket" (Alg. 2)
        assert g.num_buckets_used == pool_before + 1
        g.validate()

    def test_activate_active_raises(self, ctx, tiny_bucketlist, mode):
        with pytest.raises(ModifierError):
            apply_ops(ctx, tiny_bucketlist, [VertexActivate(0, 1)], mode)

    def test_activate_gapped_id_raises(self, ctx, tiny_bucketlist, mode):
        with pytest.raises(ModifierError):
            apply_ops(
                ctx, tiny_bucketlist,
                [VertexActivate(tiny_bucketlist.num_vertices + 3, 1)],
                mode,
            )


class TestExpandModifiers:
    def test_edge_insert_expands_to_both_directions(self, tiny_bucketlist):
        ops = expand_modifiers(tiny_bucketlist, [EdgeInsert(0, 3, 2)])
        assert ops == [SlotInsert(0, 3, 2), SlotInsert(3, 0, 2)]

    def test_edge_delete_expands(self, tiny_bucketlist):
        ops = expand_modifiers(tiny_bucketlist, [EdgeDelete(0, 1)])
        assert ops == [SlotDelete(0, 1), SlotDelete(1, 0)]

    def test_vertex_delete_removes_reverse_edges(self, tiny_bucketlist):
        ops = expand_modifiers(tiny_bucketlist, [VertexDelete(2)])
        reverse = {op.u for op in ops if isinstance(op, SlotDelete)}
        assert reverse == {0, 1, 3}  # all of v2's neighbors
        assert ops[-1] == VertexDeactivate(2)

    def test_vertex_delete_sees_in_batch_edges(self, tiny_bucketlist):
        """An edge inserted earlier in the batch is cleaned up too."""
        ops = expand_modifiers(
            tiny_bucketlist, [EdgeInsert(0, 3), VertexDelete(3)]
        )
        deletes = [op for op in ops if isinstance(op, SlotDelete)]
        assert SlotDelete(0, 3) in deletes  # the just-inserted edge

    def test_vertex_delete_skips_in_batch_deleted_edges(
        self, tiny_bucketlist
    ):
        ops = expand_modifiers(
            tiny_bucketlist, [EdgeDelete(2, 3), VertexDelete(3)]
        )
        # 2 no longer neighbors 3 at delete time.
        tail = [
            op for op in ops[2:] if isinstance(op, SlotDelete)
        ]
        assert SlotDelete(2, 3) not in tail

    def test_vertex_insert_expands_to_activate(self, tiny_bucketlist):
        ops = expand_modifiers(tiny_bucketlist, [VertexInsert(4, 3)])
        assert ops == [VertexActivate(4, 3)]

    def test_edge_insert_after_vertex_delete_rejected(
        self, tiny_bucketlist
    ):
        # Regression: this used to emit a SlotInsert into the deleted
        # vertex's blanked buckets, silently corrupting the bucket list.
        with pytest.raises(ModifierError, match="deleted earlier"):
            expand_modifiers(
                tiny_bucketlist, [VertexDelete(3), EdgeInsert(2, 3)]
            )

    def test_edge_delete_after_vertex_delete_rejected(
        self, tiny_bucketlist
    ):
        with pytest.raises(ModifierError, match="deleted earlier"):
            expand_modifiers(
                tiny_bucketlist, [VertexDelete(3), EdgeDelete(2, 3)]
            )

    def test_double_vertex_delete_rejected(self, tiny_bucketlist):
        with pytest.raises(ModifierError, match="deleted earlier"):
            expand_modifiers(
                tiny_bucketlist, [VertexDelete(3), VertexDelete(3)]
            )

    def test_reinsert_reenables_vertex_in_batch(self, tiny_bucketlist):
        ops = expand_modifiers(
            tiny_bucketlist,
            [VertexDelete(3), VertexInsert(3), EdgeInsert(2, 3)],
        )
        assert SlotInsert(2, 3, 1) in ops
        assert SlotInsert(3, 2, 1) in ops


class TestApplyBatchEquivalence:
    """Differential testing: warp and vector paths, and both against the
    HostGraph reference semantics."""

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_random_traces_match_reference(self, seed, region_burst):
        from repro.eval.workloads import (
            TraceConfig,
            generate_region_burst_trace,
            generate_trace,
        )

        csr = circuit_graph(60, 1.5, seed=seed)
        if region_burst:
            # The ECO-burst shape: every modifier inside one ID window.
            trace = generate_region_burst_trace(
                csr, iterations=3, modifiers_per_iteration=15,
                region_span=24, seed=seed,
            )
        else:
            trace = generate_trace(
                csr,
                TraceConfig(iterations=3, modifiers_per_iteration=15,
                            seed=seed),
            )
        host = HostGraph.from_csr(csr)
        graph_w = BucketListGraph.from_csr(csr)
        graph_v = BucketListGraph.from_csr(csr)
        ctx_w, ctx_v = GpuContext(), GpuContext()
        for batch in trace:
            apply_batch(ctx_w, graph_w, batch, mode="warp")
            apply_batch(ctx_v, graph_v, batch, mode="vector")
            host.apply_batch(batch)
        assert np.array_equal(graph_w.bucket_list, graph_v.bucket_list)
        assert np.array_equal(graph_w.slot_wgt, graph_v.slot_wgt)
        assert np.array_equal(
            graph_w.vertex_status, graph_v.vertex_status
        )
        graph_w.validate()
        got = graph_w.to_host_graph()
        for u in range(host.num_vertex_slots):
            assert got.active[u] == host.active[u]
            assert got.adj[u] == host.adj[u]

    def test_costs_comparable_across_modes(self, small_circuit):
        from repro.eval.workloads import TraceConfig, generate_trace

        trace = generate_trace(
            small_circuit,
            TraceConfig(iterations=1, modifiers_per_iteration=40, seed=1),
        )
        gw = BucketListGraph.from_csr(small_circuit)
        gv = BucketListGraph.from_csr(small_circuit)
        cw, cv = GpuContext(), GpuContext()
        apply_batch(cw, gw, trace[0], mode="warp")
        apply_batch(cv, gv, trace[0], mode="vector")
        sw, sv = cw.ledger.seconds(), cv.ledger.seconds()
        assert sv == pytest.approx(sw, rel=0.9)

    def test_unknown_mode_rejected(self, ctx, tiny_bucketlist):
        with pytest.raises(ValueError):
            apply_batch(ctx, tiny_bucketlist, [], mode="cuda")


class TestArcChanges:
    """``apply_ops`` reports every arc its walk adds or removes, so the
    cut accumulator folds the batch without replaying it."""

    K = 3

    @staticmethod
    def _weighted_graph() -> CSRGraph:
        # Vertex 0 fills exactly one bucket (gamma=0), so one more edge
        # on it relocates; vertex 38 (weight 4) is the one deleted.
        edges = [(0, i) for i in range(1, SLOTS_PER_BUCKET + 1)]
        weights = [1 + i % 4 for i in range(1, SLOTS_PER_BUCKET + 1)]
        for u, v, w in [(1, 2, 5), (38, 39, 3), (38, 34, 2), (38, 35, 6)]:
            edges.append((u, v))
            weights.append(w)
        vwgt = np.ones(40, dtype=np.int64)
        vwgt[38] = 4
        return CSRGraph.from_edges(40, np.array(edges), weights, vwgt)

    BATCH = [
        EdgeInsert(34, 35, weight=4),
        EdgeDelete(1, 2),
        EdgeInsert(36, 37, weight=2),
        EdgeDelete(36, 37),
        EdgeInsert(36, 37, weight=9),
        VertexDelete(38),
        VertexInsert(38, weight=5),
        EdgeInsert(38, 39, weight=8),
        EdgeInsert(0, 33, weight=7),
    ]

    def _apply(self, mode):
        csr = self._weighted_graph()
        graph = BucketListGraph.from_csr(csr, gamma=0)
        ops = expand_modifiers(graph, self.BATCH)
        arcs = apply_ops(GpuContext(), graph, ops, mode)
        return csr, graph, ops, arcs

    def test_folded_arcs_equal_post_batch_scan(self, mode):
        from repro.partition.cutacc import CutAccumulator
        from repro.partition.metrics import arc_matrix_bucketlist

        csr = self._weighted_graph()
        graph = BucketListGraph.from_csr(csr, gamma=0)
        partition = np.arange(graph.capacity, dtype=np.int64) % self.K
        acc = CutAccumulator(graph, self.K, partition)
        ops = expand_modifiers(graph, self.BATCH)
        start_of_0 = graph.bucket_start[0]
        arcs = apply_ops(GpuContext(), graph, ops, mode)
        assert graph.bucket_start[0] != start_of_0  # vertex 0 relocated
        assert graph.edge_weight(36, 37) == 9
        acc.fold_arcs(partition, arcs.added, arcs.removed)
        assert np.array_equal(
            acc.arc_matrix(),
            arc_matrix_bucketlist(graph, partition, self.K),
        )

    def test_arc_count_is_slot_ops_plus_deactivated_degrees(self, mode):
        csr, graph, ops, arcs = self._apply(mode)
        degrees = 0
        for index, op in enumerate(ops):
            if isinstance(op, VertexDeactivate):
                before = BucketListGraph.from_csr(csr, gamma=0)
                apply_ops(GpuContext(), before, ops[:index], mode)
                degrees += before.degree(op.u)
        inserts = sum(isinstance(op, SlotInsert) for op in ops)
        deletes = sum(isinstance(op, SlotDelete) for op in ops)
        assert degrees > 0
        assert len(arcs.added) == inserts
        assert len(arcs.removed) == deletes + degrees

    def test_both_modes_report_the_same_arcs(self):
        _, _, _, warp = self._apply("warp")
        _, _, _, vector = self._apply("vector")
        assert np.array_equal(warp.added, vector.added)
        assert np.array_equal(warp.removed, vector.removed)


class TestFailingOpIndexReport:
    """Kernel-level failures must name the failing slot-op's index —
    the isolation machinery above (and operators reading logs) rely on
    it to find the poison without a second failing run."""

    def test_delete_run_names_first_missing_op(self, ctx, tiny_bucketlist):
        # Two deletes on the same vertex: (0,1) exists, (0,3) does not
        # — the vectorized walk must name index 1.
        ops = [SlotDelete(0, 1), SlotDelete(0, 3)]
        with pytest.raises(ModifierError, match=r"slot-op 1:"):
            apply_ops_vector(ctx, tiny_bucketlist, ops)

    def test_warp_path_names_failing_op(self, ctx, tiny_bucketlist):
        ops = [SlotInsert(0, 3, 1), SlotInsert(3, 0, 1), SlotDelete(1, 3)]
        with pytest.raises(ModifierError, match=r"slot-op 2:"):
            apply_ops_warp(ctx, tiny_bucketlist, ops)

    def test_vertex_op_failure_names_op_in_both_modes(
        self, ctx, mode, tiny_bucketlist
    ):
        # Vertex 1 is already active: the activation at index 2 fails
        # at kernel level (past the insert run) in both modes.
        ops = [
            SlotInsert(0, 3, 1),
            SlotInsert(3, 0, 1),
            VertexActivate(1, 5),
        ]
        with pytest.raises(ModifierError, match=r"slot-op 2:"):
            apply_ops(ctx, tiny_bucketlist, ops, mode)
