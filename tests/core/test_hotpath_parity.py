"""Warp/vector parity of the refinement hot path (property-based).

The vector fast path must be *bit-identical* to the warp-faithful
simulation — same independent set, same most-suitable partitions, same
commit order — on any graph and any parked subset.  These properties
pin the contract the vectorization must preserve (see the dual
execution paths section in docs/ARCHITECTURE.md).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import choose_partition
from repro.core.refinement import _find_moves, refine_pseudo
from repro.graph import BucketListGraph, circuit_graph
from repro.gpusim import GpuContext
from repro.partition import UNASSIGNED, PartitionState


def _fresh(seed, n=60, k=3):
    csr = circuit_graph(n, 1.6, seed=seed)
    graph = BucketListGraph.from_csr(csr)
    partition = np.full(graph.capacity, UNASSIGNED, dtype=np.int64)
    partition[:n] = np.arange(n) % k
    state = PartitionState(graph, partition, k=k, epsilon=0.05)
    return graph, state


def _park(state, n, stride, offset):
    parked = list(range(offset % stride, n, stride))
    for u in parked:
        state.move(u, state.pseudo_label)
    return parked


class TestFindMovesParity:
    @given(
        seed=st.integers(0, 10_000),
        k=st.sampled_from([2, 3, 4, 8]),
        stride=st.integers(2, 9),
        offset=st.integers(0, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_movesets_identical(self, seed, k, stride, offset):
        """One round of move selection returns the same (vertex,
        target, count, weight) tuples in both modes."""
        movesets = {}
        for mode in ("warp", "vector"):
            graph, state = _fresh(seed, k=k)
            parked = _park(state, graph.num_vertices, stride, offset)
            moves = _find_moves(
                GpuContext(), graph, state, np.array(parked), mode
            )
            movesets[mode] = moves
        warp, vector = movesets["warp"], movesets["vector"]
        np.testing.assert_array_equal(warp.vertices, vector.vertices)
        np.testing.assert_array_equal(warp.targets, vector.targets)
        np.testing.assert_array_equal(warp.nbr_counts, vector.nbr_counts)
        np.testing.assert_array_equal(warp.weights, vector.weights)

    @given(
        seed=st.integers(0, 10_000),
        k=st.sampled_from([2, 4]),
        stride=st.integers(2, 6),
    )
    @settings(max_examples=15, deadline=None)
    def test_full_drain_identical(self, seed, k, stride):
        """The complete refinement drain lands every vertex in the same
        partition in both modes."""
        partitions = {}
        for mode in ("warp", "vector"):
            graph, state = _fresh(seed, k=k)
            parked = _park(state, graph.num_vertices, stride, 0)
            refine_pseudo(GpuContext(), graph, state, parked, mode=mode)
            partitions[mode] = state.partition.copy()
        np.testing.assert_array_equal(
            partitions["warp"], partitions["vector"]
        )


class TestTieBreakRule:
    def test_huge_weights_do_not_lose_precision(self):
        """Regression: the old float score ``count - weight/total``
        collapsed under float64 precision loss at ~1e18 part weights and
        picked p0; the integer lexicographic rule (shared with the warp
        path) must pick the lighter p1."""
        counts = np.array([[1, 1]])
        feasible = np.ones((1, 2), dtype=bool)
        part_weights = np.array([10**18, 10**18 - 1000], dtype=np.int64)
        targets, chosen = choose_partition(counts, feasible, part_weights)
        assert targets[0] == 1
        assert chosen[0] == 1

    def test_count_dominates_weight(self):
        counts = np.array([[3, 2]])
        feasible = np.ones((1, 2), dtype=bool)
        part_weights = np.array([100, 0], dtype=np.int64)
        targets, _ = choose_partition(counts, feasible, part_weights)
        assert targets[0] == 0

    def test_full_tie_prefers_smaller_index(self):
        counts = np.array([[2, 2, 2]])
        feasible = np.ones((1, 3), dtype=bool)
        part_weights = np.array([5, 5, 5], dtype=np.int64)
        targets, _ = choose_partition(counts, feasible, part_weights)
        assert targets[0] == 0

    def test_infeasible_column_is_skipped(self):
        counts = np.array([[5, 1]])
        feasible = np.array([[False, True]])
        part_weights = np.array([0, 10], dtype=np.int64)
        targets, _ = choose_partition(counts, feasible, part_weights)
        assert targets[0] == 1


class TestForcedPlacement:
    def test_forced_moves_respect_headroom_and_are_counted(self):
        """With max_rounds=0 every parked vertex is force-placed; the
        placement must honor W_pmax headroom (feasible lightest) and be
        tallied in RefineStats.forced_moves."""
        graph, state = _fresh(seed=3, n=40, k=4)
        parked = _park(state, graph.num_vertices, 5, 0)
        w_pmax = state.w_pmax()
        stats = refine_pseudo(
            GpuContext(), graph, state, parked, mode="vector", max_rounds=0
        )
        assert stats.forced_moves == len(parked)
        assert stats.moves_applied == len(parked)
        assert stats.rounds == 0
        labels = state.partition[parked]
        assert np.all((labels >= 0) & (labels < state.k))
        # Unit weights and ample headroom: no partition may exceed the
        # bound that held before the drain.
        assert np.all(state.part_weights <= w_pmax)
