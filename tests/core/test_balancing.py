"""Partition balancing (Algorithm 3)."""

import numpy as np
import pytest

from repro.core import apply_batch, balance_partition
from repro.graph import (
    BucketListGraph,
    CSRGraph,
    EdgeDelete,
    EdgeInsert,
    VertexDelete,
    VertexInsert,
    circuit_graph,
)
from repro.gpusim import GpuContext
from repro.partition import UNASSIGNED, PartitionState


def make_state(graph: BucketListGraph, partition, k=2) -> PartitionState:
    full = np.full(graph.capacity, UNASSIGNED, dtype=np.int64)
    full[: len(partition)] = partition
    return PartitionState(graph, full, k=k, epsilon=0.03)


@pytest.fixture(params=["warp", "vector"])
def mode(request):
    return request.param


class TestVertexInsertion:
    def test_new_vertex_goes_to_pseudo(self, ctx, tiny_bucketlist, mode):
        g = tiny_bucketlist
        state = make_state(g, [0, 0, 1, 1])
        ops = apply_batch(ctx, g, [VertexInsert(4, 2)], mode=mode)
        buffer, stats = balance_partition(ctx, g, state, ops, mode=mode)
        assert buffer == [4]
        assert state.partition[4] == state.pseudo_label
        assert state.pseudo_weight == 2
        # Real partition weights untouched (the whole point).
        assert state.part_weights.tolist() == [2, 2]

    def test_deleted_vertex_unassigned(self, ctx, tiny_bucketlist, mode):
        g = tiny_bucketlist
        state = make_state(g, [0, 0, 1, 1])
        ops = apply_batch(ctx, g, [VertexDelete(3)], mode=mode)
        buffer, _stats = balance_partition(ctx, g, state, ops, mode=mode)
        assert state.partition[3] == UNASSIGNED
        assert 3 not in buffer
        # Vertex 2 lost its only internal neighbor: all its remaining
        # edges cross, so the filter sends it to the pseudo partition.
        assert buffer == [2]
        assert state.part_weights.tolist() == [2, 0]
        assert state.pseudo_weight == 1

    def test_insert_then_delete_in_batch(self, ctx, tiny_bucketlist, mode):
        g = tiny_bucketlist
        state = make_state(g, [0, 0, 1, 1])
        ops = apply_batch(
            ctx, g, [VertexInsert(4, 2), VertexDelete(4)], mode=mode
        )
        buffer, _stats = balance_partition(ctx, g, state, ops, mode=mode)
        assert buffer == []
        assert state.partition[4] == UNASSIGNED
        assert state.pseudo_weight == 0


class TestAffectedFiltering:
    def test_ext_gt_int_moves_to_pseudo(self, ctx, mode):
        """A vertex whose edges now mostly cross joins the pseudo
        partition; one with majority-internal edges is filtered out."""
        # Line 0-1-2-3-4, partition {0,1,2 | 3,4}.
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
        csr = CSRGraph.from_edges(5, edges)
        g = BucketListGraph.from_csr(csr)
        state = make_state(g, [0, 0, 0, 1, 1])
        # Insert an edge 2-4: vertex 2 then has 1 internal (1) and 2
        # external (3, 4) neighbors -> pseudo. Vertex 4 has 2 internal?
        # 4's neighbors: 3 (internal), 2 (external) -> 1 vs 1 -> filtered.
        ops = apply_batch(ctx, g, [EdgeInsert(2, 4)], mode=mode)
        buffer, stats = balance_partition(ctx, g, state, ops, mode=mode)
        assert 2 in buffer
        assert state.partition[2] == state.pseudo_label
        assert state.partition[4] == 1
        assert stats.affected_marked >= 2

    def test_balanced_interior_not_moved(self, ctx, mode):
        # Edge deletion inside a partition leaves both endpoints
        # majority-internal; nothing moves.
        edges = np.array([[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
        csr = CSRGraph.from_edges(6, edges)
        g = BucketListGraph.from_csr(csr)
        state = make_state(g, [0, 0, 0, 1, 1, 1])
        ops = apply_batch(ctx, g, [EdgeDelete(0, 1)], mode=mode)
        buffer, stats = balance_partition(ctx, g, state, ops, mode=mode)
        assert buffer == []
        assert stats.filtered_out >= 2

    def test_pseudo_vertices_skip_filter(self, ctx, tiny_bucketlist, mode):
        """Vertices already in the pseudo partition terminate early
        (Algorithm 3 lines 9-10)."""
        g = tiny_bucketlist
        state = make_state(g, [0, 0, 1, 1])
        ops = apply_batch(
            ctx, g,
            [VertexInsert(4, 1), EdgeInsert(4, 0), EdgeInsert(4, 2)],
            mode=mode,
        )
        buffer, _stats = balance_partition(ctx, g, state, ops, mode=mode)
        assert buffer.count(4) == 1  # not re-added by the edge modifiers

    def test_ripple_moves_neighbors(self, ctx, mode):
        """Phase D: neighbors of pseudo vertices get reconsidered."""
        # Star around 0 with partition boundary through it.
        edges = np.array([[0, 1], [0, 2], [0, 3], [1, 4]])
        csr = CSRGraph.from_edges(5, edges)
        g = BucketListGraph.from_csr(csr)
        state = make_state(g, [0, 1, 0, 0, 1])
        # New vertex 5 wired to 1: 1 becomes affected via the edge, and
        # once 1 joins the pseudo set its neighbors are rippled.
        ops = apply_batch(
            ctx, g, [VertexInsert(5, 1), EdgeInsert(5, 1)], mode=mode
        )
        buffer, stats = balance_partition(ctx, g, state, ops, mode=mode)
        assert 5 in buffer
        assert stats.affected_marked >= 2


class TestModeEquivalence:
    def test_same_buffer_both_modes(self, small_circuit):
        from repro.eval.workloads import TraceConfig, generate_trace

        trace = generate_trace(
            small_circuit,
            TraceConfig(iterations=1, modifiers_per_iteration=30, seed=5),
        )
        results = {}
        for mode in ("warp", "vector"):
            ctx = GpuContext()
            g = BucketListGraph.from_csr(small_circuit)
            part = np.arange(small_circuit.num_vertices) % 2
            state = make_state(g, part)
            ops = apply_batch(ctx, g, trace[0], mode=mode)
            buffer, _ = balance_partition(ctx, g, state, ops, mode=mode)
            results[mode] = (buffer, state.partition.copy())
        assert results["warp"][0] == results["vector"][0]
        assert np.array_equal(results["warp"][1], results["vector"][1])

    def test_stats_consistent(self, ctx, tiny_bucketlist):
        g = tiny_bucketlist
        state = make_state(g, [0, 0, 1, 1])
        ops = apply_batch(ctx, g, [VertexInsert(4, 1)], mode="vector")
        buffer, stats = balance_partition(ctx, g, state, ops,
                                          mode="vector")
        assert stats.inserted_to_pseudo == 1
        assert stats.pseudo_total == len(buffer)

    def test_unknown_mode_rejected(self, ctx, tiny_bucketlist):
        state = make_state(tiny_bucketlist, [0, 0, 1, 1])
        ops = apply_batch(
            ctx, tiny_bucketlist, [EdgeInsert(0, 3)], mode="vector"
        )
        with pytest.raises(ValueError):
            balance_partition(ctx, tiny_bucketlist, state, ops,
                              mode="bogus")

    def test_weights_consistent_after_balancing(self, small_circuit):
        from repro.eval.workloads import TraceConfig, generate_trace

        ctx = GpuContext()
        g = BucketListGraph.from_csr(small_circuit)
        part = np.arange(small_circuit.num_vertices) % 2
        state = make_state(g, part)
        trace = generate_trace(
            small_circuit,
            TraceConfig(iterations=1, modifiers_per_iteration=50, seed=2),
        )
        ops = apply_batch(ctx, g, trace[0], mode="vector")
        balance_partition(ctx, g, state, ops, mode="vector")
        state.validate()
