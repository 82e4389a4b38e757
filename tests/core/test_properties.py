"""Property-based invariants of the incremental pipeline (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import balance_partition, refine_pseudo
from repro.core.modification import apply_batch
from repro.graph import BucketListGraph, circuit_graph
from repro.gpusim import GpuContext
from repro.partition import UNASSIGNED, PartitionState
from repro.partition.metrics import cut_size_bucketlist


def _fresh(seed, n=80, k=2):
    csr = circuit_graph(n, 1.6, seed=seed)
    graph = BucketListGraph.from_csr(csr)
    partition = np.full(graph.capacity, UNASSIGNED, dtype=np.int64)
    partition[:n] = np.arange(n) % k
    state = PartitionState(graph, partition, k=k, epsilon=0.05)
    return GpuContext(), graph, state


class TestRefinementInvariants:
    @given(
        seed=st.integers(0, 10_000),
        k=st.sampled_from([2, 3, 4, 8]),
        park_stride=st.integers(2, 9),
    )
    @settings(max_examples=30, deadline=None)
    def test_drain_is_complete_and_consistent(self, seed, k, park_stride):
        """After refine_pseudo: the pseudo partition is empty, every
        active vertex holds a real label, and cached weights equal a
        recomputation — for arbitrary parked subsets and k."""
        ctx, graph, state = _fresh(seed, k=k)
        parked = list(range(0, graph.num_vertices, park_stride))
        for u in parked:
            state.move(u, state.pseudo_label)
        refine_pseudo(ctx, graph, state, parked, mode="vector")
        assert state.pseudo_weight == 0
        labels = state.partition[: graph.num_vertices]
        assert np.all((labels >= 0) & (labels < k))
        state.validate()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_refinement_prefers_majority_side(self, seed):
        """Every committed vertex ends in a partition where it has at
        least as many neighbors as in any other *feasible* partition at
        commit time — weaker than optimal, but a sanity bound: moving a
        single parked vertex back never increases the cut versus parking
        it arbitrarily."""
        ctx, graph, state = _fresh(seed, k=2)
        parked = [0, 7, 13]
        for u in parked:
            state.move(u, state.pseudo_label)
        before_cut = cut_size_bucketlist(graph, state.partition)
        refine_pseudo(ctx, graph, state, parked, mode="vector")
        after_cut = cut_size_bucketlist(graph, state.partition)
        # Parked vertices' edges to real partitions counted as cut
        # before; placing them on their majority side cannot make the
        # final cut exceed the parked-state cut.
        assert after_cut <= before_cut


class TestBalancingInvariants:
    @given(
        seed=st.integers(0, 10_000),
        n_mods=st.integers(1, 25),
    )
    @settings(max_examples=25, deadline=None)
    def test_balancing_preserves_weight_accounting(self, seed, n_mods):
        from repro.eval.workloads import TraceConfig, generate_trace

        csr = circuit_graph(80, 1.6, seed=seed)
        trace = generate_trace(
            csr,
            TraceConfig(
                iterations=1, modifiers_per_iteration=n_mods, seed=seed
            ),
        )
        ctx, graph, state = _fresh(seed)
        ops = apply_batch(ctx, graph, trace[0], mode="vector")
        buffer, _stats = balance_partition(
            ctx, graph, state, ops, mode="vector"
        )
        state.validate()
        # Every buffered vertex is actually in the pseudo partition.
        for u in buffer:
            assert state.partition[u] == state.pseudo_label
        # And every pseudo vertex is in the buffer exactly once.
        pseudo_ids = np.flatnonzero(
            state.partition == state.pseudo_label
        )
        assert sorted(buffer) == sorted(int(u) for u in pseudo_ids)
        assert len(set(buffer)) == len(buffer)


class TestEndToEndInvariant:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_cut_reported_matches_ground_truth(self, seed):
        from repro import IGKway, PartitionConfig
        from repro.eval.workloads import TraceConfig, generate_trace
        from repro.partition.metrics import cut_size_csr

        csr = circuit_graph(70, 1.5, seed=seed)
        ig = IGKway(csr, PartitionConfig(k=2, seed=seed))
        ig.full_partition()
        trace = generate_trace(
            csr,
            TraceConfig(iterations=2, modifiers_per_iteration=10,
                        seed=seed),
        )
        for batch in trace:
            report = ig.apply(batch)
            now_csr, id_map = ig.graph.to_csr()
            truth = cut_size_csr(
                now_csr, ig.partition[id_map]
            )
            assert report.cut == truth
