"""Bucket-list graph structure (Section V.A / Figure 4)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.igkway import IGKway
from repro.eval.workloads import TraceConfig, generate_trace
from repro.graph import (
    EMPTY,
    SLOTS_PER_BUCKET,
    BucketListGraph,
    CSRGraph,
    EdgeInsert,
    VertexDelete,
    VertexInsert,
    circuit_graph,
)
from repro.graph.bucketlist import STATUS_ACTIVE, STATUS_DELETED
from repro.partition import PartitionConfig
from repro.utils import (
    CapacityError,
    FaultInjector,
    GraphConsistencyError,
    InjectedAbort,
)


def traced_graph(seed: int = 5) -> BucketListGraph:
    """A weighted bucket list after a trace of edge and vertex inserts
    and deletes (deleted IDs re-inserted), overflow relocations
    (gamma=0) and a rolled-back batch."""
    csr = circuit_graph(300, 1.4, seed=seed)
    ig = IGKway(csr, PartitionConfig(k=4, gamma=0, seed=seed))
    ig.full_partition()
    trace = generate_trace(
        csr,
        TraceConfig(
            iterations=6,
            modifiers_per_iteration=(20, 40),
            edge_weight_range=(1, 5),
            vertex_weight_range=(1, 4),
            seed=seed,
        ),
    )
    for batch in trace:
        ig.apply(batch)
    graph = ig.graph

    def star(hub: int) -> list:
        return [
            EdgeInsert(hub, int(v), weight=1 + int(v) % 5)
            for v in graph.active_vertices()
            if v != hub and not graph.has_edge(hub, int(v))
        ][:40]

    hub, aborted_hub = (int(u) for u in graph.active_vertices()[:2])
    ig.apply(star(hub))  # overflows the hub's single bucket
    with FaultInjector(seed=seed).kernel_abort(graph, after_writes=50):
        with pytest.raises(InjectedAbort):
            ig.apply(star(aborted_hub))
    # A deleted ID keeps the weight it last had while active.
    statuses = graph.vertex_status[: graph.num_vertices]
    ghost = int(np.flatnonzero(statuses == STATUS_DELETED)[0])
    ig.apply([VertexInsert(ghost, weight=3)])
    ig.apply([VertexDelete(ghost)])
    assert graph.bucket_count[hub] > 1
    assert graph.vwgt[ghost] == 3 and not graph.is_active(ghost)
    return graph


def edgeless_graph() -> BucketListGraph:
    return BucketListGraph.from_csr(
        CSRGraph.from_edges(
            5, np.empty((0, 2)), vertex_weights=np.array([1, 2, 3, 4, 5])
        )
    )


class TestFromCsr:
    def test_bucket_count_formula(self, small_circuit):
        """ceil(D(u) / 32) + gamma buckets per vertex (Section V.A)."""
        for gamma in (0, 1, 3):
            graph = BucketListGraph.from_csr(small_circuit, gamma=gamma)
            degrees = small_circuit.degrees()
            for u in range(0, small_circuit.num_vertices, 29):
                expected = max(
                    1, -(-int(degrees[u]) // SLOTS_PER_BUCKET) + gamma
                )
                assert graph.bucket_count[u] == expected

    def test_neighbors_preserved(self, small_circuit):
        graph = BucketListGraph.from_csr(small_circuit)
        for u in range(0, small_circuit.num_vertices, 13):
            assert sorted(graph.neighbors(u).tolist()) == sorted(
                small_circuit.neighbors(u).tolist()
            )

    def test_weights_preserved(self):
        csr = CSRGraph.from_edges(
            3,
            np.array([[0, 1], [1, 2]]),
            edge_weights=np.array([5, 9]),
            vertex_weights=np.array([2, 3, 4]),
        )
        graph = BucketListGraph.from_csr(csr)
        assert graph.edge_weight(0, 1) == 5
        assert graph.edge_weight(2, 1) == 9
        assert graph.vwgt[2] == 4

    def test_all_active(self, tiny_bucketlist):
        assert tiny_bucketlist.num_active_vertices() == 4

    def test_validates(self, small_circuit):
        BucketListGraph.from_csr(small_circuit).validate()

    def test_roundtrip_to_csr(self, small_circuit):
        graph = BucketListGraph.from_csr(small_circuit)
        back, id_map = graph.to_csr()
        assert back.num_edges == small_circuit.num_edges
        assert np.array_equal(id_map, np.arange(small_circuit.num_vertices))
        # The array-level export equals the host-graph export exactly,
        # also after deletions, re-inserts, relocations and a rollback.
        for graph in (graph, traced_graph(), edgeless_graph()):
            got, got_map = graph.to_csr()
            want, want_map = graph.to_host_graph().to_csr()
            for name in ("xadj", "adjncy", "adjwgt", "vwgt"):
                assert np.array_equal(
                    getattr(got, name), getattr(want, name)
                ), name
            assert np.array_equal(got_map, want_map)
            assert got_map.dtype == want_map.dtype

    def test_capacity_reserved(self, small_circuit):
        graph = BucketListGraph.from_csr(
            small_circuit, capacity_factor=2.0
        )
        assert graph.capacity >= 2 * small_circuit.num_vertices

    def test_high_degree_vertex_spans_buckets(self):
        # A star: hub has 70 neighbors -> needs 3 data buckets + gamma.
        edges = np.array([[0, i] for i in range(1, 71)])
        csr = CSRGraph.from_edges(71, edges)
        graph = BucketListGraph.from_csr(csr, gamma=1)
        assert graph.bucket_count[0] == 4
        assert graph.degree(0) == 70


class TestSlotGeometry:
    def test_slot_range_is_contiguous(self, tiny_bucketlist):
        start, n_slots = tiny_bucketlist.slot_range(1)
        assert n_slots == tiny_bucketlist.bucket_count[1] * SLOTS_PER_BUCKET
        assert start == tiny_bucketlist.bucket_start[1] * SLOTS_PER_BUCKET

    def test_slots_view_reflects_mutation(self, tiny_bucketlist):
        slots = tiny_bucketlist.slots(0)
        slots[0] = 99  # view, not copy
        assert tiny_bucketlist.slots(0)[0] == 99

    def test_slot_index_arrays(self, tiny_bucketlist):
        idx, owner = tiny_bucketlist.slot_index_arrays(np.array([0, 2]))
        n0 = tiny_bucketlist.bucket_count[0] * SLOTS_PER_BUCKET
        n2 = tiny_bucketlist.bucket_count[2] * SLOTS_PER_BUCKET
        assert idx.size == n0 + n2
        assert np.all(owner[:n0] == 0)
        assert np.all(owner[n0:] == 1)

    def test_slot_index_arrays_empty(self, tiny_bucketlist):
        idx, owner = tiny_bucketlist.slot_index_arrays(
            np.array([], dtype=np.int64)
        )
        assert idx.size == 0 and owner.size == 0

    def test_degrees_vectorized_matches_scalar(self, small_circuit):
        graph = BucketListGraph.from_csr(small_circuit)
        vec = graph.degrees()
        for u in range(0, graph.num_vertices, 7):
            assert vec[u] == graph.degree(u)


class TestAllocation:
    def test_allocate_bumps_tail(self, tiny_bucketlist):
        before = tiny_bucketlist.num_buckets_used
        start = tiny_bucketlist.allocate_buckets(2)
        assert start == before
        assert tiny_bucketlist.num_buckets_used == before + 2

    def test_allocated_buckets_are_blank(self, tiny_bucketlist):
        start = tiny_bucketlist.allocate_buckets(1)
        first = start * SLOTS_PER_BUCKET
        assert np.all(
            tiny_bucketlist.bucket_list[first : first + SLOTS_PER_BUCKET]
            == EMPTY
        )

    def test_pool_exhaustion_raises(self, tiny_csr):
        graph = BucketListGraph.from_csr(tiny_csr, pool_slack_buckets=1)
        graph.allocate_buckets(1)
        with pytest.raises(CapacityError):
            graph.allocate_buckets(1)

    def test_invalid_allocation_size(self, tiny_bucketlist):
        with pytest.raises(ValueError):
            tiny_bucketlist.allocate_buckets(0)

    def test_new_vertex_id_sequential(self, tiny_bucketlist):
        n = tiny_bucketlist.num_vertices
        assert tiny_bucketlist.new_vertex_id() == n
        assert tiny_bucketlist.new_vertex_id() == n + 1

    def test_vertex_capacity_exhaustion(self, tiny_csr):
        graph = BucketListGraph.from_csr(tiny_csr, capacity_factor=1.0)
        with pytest.raises(CapacityError):
            graph.new_vertex_id()


class TestRelocation:
    def test_relocate_preserves_neighbors(self, tiny_bucketlist):
        before = sorted(tiny_bucketlist.neighbors(2).tolist())
        old_count = int(tiny_bucketlist.bucket_count[2])
        tiny_bucketlist.relocate_with_extra_buckets(2, extra=2)
        assert sorted(tiny_bucketlist.neighbors(2).tolist()) == before
        assert tiny_bucketlist.bucket_count[2] == old_count + 2

    def test_relocate_blanks_old_region(self, tiny_bucketlist):
        old_start, old_slots = tiny_bucketlist.slot_range(2)
        tiny_bucketlist.relocate_with_extra_buckets(2)
        assert np.all(
            tiny_bucketlist.bucket_list[old_start : old_start + old_slots]
            == EMPTY
        )

    def test_relocate_keeps_weights(self):
        csr = CSRGraph.from_edges(
            2, np.array([[0, 1]]), edge_weights=np.array([5])
        )
        graph = BucketListGraph.from_csr(csr)
        graph.relocate_with_extra_buckets(0)
        assert graph.edge_weight(0, 1) == 5


class TestValidateFailures:
    def test_self_loop_detected(self, tiny_bucketlist):
        start, _ = tiny_bucketlist.slot_range(0)
        # Overwrite a filled slot with a self-reference.
        tiny_bucketlist.bucket_list[start] = 0
        with pytest.raises(GraphConsistencyError):
            tiny_bucketlist.validate()

    def test_asymmetry_detected(self, tiny_bucketlist):
        start, _ = tiny_bucketlist.slot_range(0)
        tiny_bucketlist.bucket_list[start] = 3  # 0 -> 3 without 3 -> 0
        with pytest.raises(GraphConsistencyError):
            tiny_bucketlist.validate()

    def test_deleted_with_neighbors_detected(self, tiny_bucketlist):
        tiny_bucketlist.vertex_status[0] = 0
        with pytest.raises(GraphConsistencyError):
            tiny_bucketlist.validate()

    def test_duplicate_neighbor_detected(self, tiny_bucketlist):
        values = tiny_bucketlist.slots(0)
        first = values[values != EMPTY][0]
        empty_pos = np.flatnonzero(values == EMPTY)[0]
        start, _ = tiny_bucketlist.slot_range(0)
        tiny_bucketlist.bucket_list[start + empty_pos] = first
        with pytest.raises(GraphConsistencyError):
            tiny_bucketlist.validate()


class TestStats:
    def test_num_edges_matches_csr(self, small_circuit):
        graph = BucketListGraph.from_csr(small_circuit)
        assert graph.num_edges() == small_circuit.num_edges

    def test_total_active_weight(self, small_circuit):
        graph = BucketListGraph.from_csr(small_circuit)
        assert (
            graph.total_active_weight()
            == small_circuit.total_vertex_weight()
        )

    def test_nbytes_positive(self, tiny_bucketlist):
        assert tiny_bucketlist.nbytes() > 0


def _from_host_graph_reference(host, gamma, capacity_factor):
    """The per-vertex host rebuild :meth:`BucketListGraph.compacted`
    replaced, kept as its reference."""
    n = host.num_vertex_slots
    capacity = max(n, int(math.ceil(n * capacity_factor)))
    degrees = np.array([host.degree(u) for u in range(n)], dtype=np.int64)
    counts = np.ceil(degrees / SLOTS_PER_BUCKET).astype(np.int64) + gamma
    counts = np.maximum(counts, 1)
    needed = int(counts.sum())
    graph = BucketListGraph(capacity, needed + (capacity - n + 1), gamma=gamma)
    graph.num_vertices = n
    graph.bucket_count[:n] = counts
    graph.bucket_start[1:n] = np.cumsum(counts[:-1])
    graph.num_buckets_used = needed
    for u in range(n):
        if host.is_active(u):
            graph.vertex_status[u] = STATUS_ACTIVE
            graph.vwgt[u] = host.vwgt[u]
            base = graph.bucket_start[u] * SLOTS_PER_BUCKET
            for offset, (v, w) in enumerate(host.neighbors(u).items()):
                graph.bucket_list[base + offset] = v
                graph.slot_wgt[base + offset] = w
    return graph


class TestCompacted:
    def test_preserves_deleted_ids(self, small_circuit):
        ig = IGKway(small_circuit, PartitionConfig(k=2, seed=1))
        ig.full_partition()
        ig.apply([VertexDelete(5)])
        graph = ig.graph.compacted()
        assert not graph.is_active(5)
        assert graph.is_active(4)
        graph.validate()

    def test_roundtrip_host(self, small_circuit):
        source = BucketListGraph.from_csr(small_circuit)
        host = source.to_host_graph()
        back = source.compacted().to_host_graph()
        assert back.num_edges() == host.num_edges()
        for u in range(host.num_vertex_slots):
            assert back.adj[u] == host.adj[u]

    @pytest.mark.parametrize("gamma,capacity_factor", [(0, 1.0), (1, 1.5)])
    def test_matches_host_rebuild(self, gamma, capacity_factor):
        """Same pool and vertex arrays as rebuilding from the host graph:
        slots packed per vertex in their old order, deleted IDs kept
        deleted with weight 1."""
        source = traced_graph()
        got = source.compacted(gamma=gamma, capacity_factor=capacity_factor)
        want = _from_host_graph_reference(
            source.to_host_graph(), gamma, capacity_factor
        )
        for name in (
            "gamma",
            "capacity",
            "pool_buckets",
            "num_vertices",
            "num_buckets_used",
        ):
            assert getattr(got, name) == getattr(want, name), name
        for name in (
            "bucket_list",
            "slot_wgt",
            "bucket_start",
            "bucket_count",
            "vertex_status",
            "vwgt",
        ):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        got.validate()


@given(
    st.integers(0, 2),
    st.integers(33, 120),
    st.integers(0, 100_000),
)
@settings(max_examples=25, deadline=None)
def test_overflow_relocation_property(gamma, n_inserts, seed):
    """Inserting arbitrarily many edges on one vertex always succeeds
    through the relocation path, preserving every existing neighbor and
    all invariants, for any gamma."""
    from repro.core.modification import apply_ops_vector, SlotInsert
    from repro.gpusim import GpuContext

    csr = circuit_graph(max(n_inserts + 40, 60), 1.3, seed=seed)
    graph = BucketListGraph.from_csr(csr, gamma=gamma)
    ctx = GpuContext()
    hub = 0
    existing = set(graph.neighbors(hub).tolist())
    targets = [
        v
        for v in range(1, graph.num_vertices)
        if v not in existing and v != hub
    ][:n_inserts]
    ops = []
    for v in targets:
        ops.append(SlotInsert(hub, v, 1))
        ops.append(SlotInsert(v, hub, 1))
    apply_ops_vector(ctx, graph, ops)
    graph.validate()
    assert graph.degree(hub) == len(existing) + len(targets)
    assert existing <= set(graph.neighbors(hub).tolist())


@given(st.integers(2, 60), st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(n, seed):
    """CSR -> bucket list -> host graph -> CSR is the identity."""
    g = circuit_graph(max(n, 2), edge_ratio=1.5, seed=seed)
    bl = BucketListGraph.from_csr(g)
    bl.validate()
    back, _ = bl.to_csr()
    back.validate()
    assert back.num_edges == g.num_edges
    assert back.num_vertices == g.num_vertices
    got_e, got_w = back.edge_array()
    exp_e, exp_w = g.edge_array()
    assert np.array_equal(got_e, exp_e)
    assert np.array_equal(got_w, exp_w)
