"""Slot geometry on the bucket-list graph: the gather cache and slot
owners.

``slot_index_arrays`` memoizes the per-vertex-set slot gather, stamped
with ``geometry_generation``, which modifier kernels bump on any bucket
allocation or relocation; ``slot_owners`` maps filled slots to their
vertices from the bucket ranges alone.  These properties check both
against independent reconstructions from ``bucket_start``/
``bucket_count`` after arbitrary modifier batches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modification import apply_batch
from repro.eval.workloads import TraceConfig, generate_trace
from repro.graph import (
    BucketListGraph,
    EdgeInsert,
    VertexDelete,
    VertexInsert,
    circuit_graph,
)
from repro.graph.bucketlist import EMPTY, SLOTS_PER_BUCKET
from repro.gpusim import GpuContext


def _reference_slot_index(graph, vertices):
    """Recompute the gather arrays straight from the bucket geometry."""
    idx, owner = [], []
    for i, u in enumerate(vertices):
        start, n_slots = graph.slot_range(int(u))
        idx.extend(range(start, start + n_slots))
        owner.extend([i] * n_slots)
    return (
        np.array(idx, dtype=np.int64),
        np.array(owner, dtype=np.int64),
    )


def _churned_graph(seed, n=120, batches=3):
    """A bucket-list graph after ``batches`` seeded modifier batches."""
    csr = circuit_graph(n, 1.6, seed=seed)
    graph = BucketListGraph.from_csr(csr)
    trace = generate_trace(
        csr,
        TraceConfig(
            iterations=batches,
            modifiers_per_iteration=(8, 20),
            seed=seed,
        ),
    )
    ctx = GpuContext()
    for batch in trace:
        apply_batch(ctx, graph, batch, mode="vector")
    return graph


class TestSlotIndexCache:
    @given(
        seed=st.integers(0, 5_000),
        stride=st.integers(1, 7),
    )
    @settings(max_examples=20, deadline=None)
    def test_cached_matches_reference_after_churn(self, seed, stride):
        """After inserts/deletes/relocations, the memoized gather equals
        a from-scratch reconstruction — on both the cold (miss) and the
        warm (hit) path."""
        graph = _churned_graph(seed)
        active = graph.active_vertices()
        vertices = active[::stride]
        ref_idx, ref_owner = _reference_slot_index(graph, vertices)
        for _ in range(2):  # first call populates, second must hit
            idx, owner = graph.slot_index_arrays(vertices)
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(owner, ref_owner)

    def test_relocation_invalidates_stale_entry(self):
        """Growing a vertex past its buckets relocates it; a cached
        gather from before the relocation must not be served."""
        csr = circuit_graph(80, 1.5, seed=1)
        graph = BucketListGraph.from_csr(csr)
        ctx = GpuContext()
        u = 0
        vertices = np.array([u], dtype=np.int64)
        graph.slot_index_arrays(vertices)  # warm the cache
        gen_before = graph.geometry_generation
        # Insert enough distinct edges at u to overflow its buckets.
        present = set(
            int(v)
            for v in graph.bucket_list[
                graph.slot_range(u)[0] : sum(graph.slot_range(u))
            ]
            if v != EMPTY
        )
        targets = [v for v in range(1, 75) if v not in present]
        batch = [EdgeInsert(u, v) for v in targets[:40]]
        apply_batch(ctx, graph, batch, mode="vector")
        assert graph.geometry_generation > gen_before
        idx, owner = graph.slot_index_arrays(vertices)
        ref_idx, ref_owner = _reference_slot_index(graph, vertices)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(owner, ref_owner)


class TestSlotOwners:
    @given(
        seed=st.integers(0, 5_000),
        extra=st.integers(0, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_owner_is_the_vertex_whose_range_holds_the_slot(
        self, seed, extra
    ):
        """After churn, a vertex delete and re-insert and an overflow
        that relocates a vertex to the pool tail (when ``extra`` > 0),
        every filled slot's owner is the vertex whose ``slot_range``
        holds it."""
        graph = _churned_graph(seed)
        ctx = GpuContext()
        rng = np.random.default_rng(seed)
        gone, hub = map(int, rng.permutation(graph.active_vertices())[:2])
        apply_batch(ctx, graph, [VertexDelete(gone)], mode="vector")
        free = int(graph.bucket_count[hub]) * SLOTS_PER_BUCKET - graph.degree(
            hub
        )
        others = [
            int(v)
            for v in graph.active_vertices()
            if v != hub and not graph.has_edge(hub, int(v))
        ]
        grow = others[: free + extra] if extra else others[: free // 2]
        spare = [v for v in others if v not in grow][:3]
        start = int(graph.bucket_start[hub])
        apply_batch(
            ctx,
            graph,
            [VertexInsert(gone)]
            + [EdgeInsert(gone, v) for v in spare]
            + [EdgeInsert(hub, v) for v in grow],
            mode="vector",
        )
        if extra and len(grow) > free:
            assert int(graph.bucket_start[hub]) != start  # relocated
        used = graph.num_buckets_used * SLOTS_PER_BUCKET
        ref = np.full(used, -1, dtype=np.int64)
        for u in range(graph.num_vertices):
            first, n_slots = graph.slot_range(u)
            assert np.all(ref[first : first + n_slots] == -1)  # disjoint
            ref[first : first + n_slots] = u
        positions, _, _ = graph.filled_slots()
        assert np.all(ref[positions] >= 0)
        np.testing.assert_array_equal(
            graph.slot_owners(positions), ref[positions]
        )

    def test_reserved_id_without_buckets_owns_nothing(self):
        """A vertex ID reserved mid-batch has no buckets yet (its
        ``bucket_start`` is still 0); vertex 0's slots stay vertex 0's."""
        graph = BucketListGraph.from_csr(circuit_graph(80, 1.5, seed=2))
        u = graph.new_vertex_id()
        assert graph.bucket_count[u] == 0
        positions, _, _ = graph.filled_slots()
        first, n_slots = graph.slot_range(0)
        held = positions[(positions >= first) & (positions < first + n_slots)]
        assert held.size
        assert np.all(graph.slot_owners(held) == 0)
