"""Parallel refinement (Algorithm 4) and the Figure 5 move commit."""

import numpy as np
import pytest

from repro.core import longest_feasible_prefix, refine_pseudo
from repro.core.refinement import _find_moves
from repro.graph import BucketListGraph, CSRGraph, circuit_graph
from repro.gpusim import GpuContext
from repro.partition import UNASSIGNED, PartitionState, cut_size_bucketlist


def make_state(graph, partition, k=2, epsilon=0.03):
    full = np.full(graph.capacity, UNASSIGNED, dtype=np.int64)
    full[: len(partition)] = partition
    return PartitionState(graph, full, k=k, epsilon=epsilon)


def park(state, vertices):
    for u in vertices:
        state.move(u, state.pseudo_label)
    return list(vertices)


@pytest.fixture(params=["warp", "vector"])
def mode(request):
    return request.param


class TestLongestFeasiblePrefix:
    def test_figure5_example(self, ctx):
        """Both moves of Figure 5 fit under W_pmax."""
        targets = np.array([0, 1])  # move 1 -> p1, move 2 -> p2
        weights = np.array([1, 1])
        part_weights = np.array([1, 1])
        assert longest_feasible_prefix(
            ctx, targets, weights, part_weights, w_pmax=2, k=2
        ) == 2

    def test_stops_at_violation(self, ctx):
        targets = np.array([0, 0, 0])
        weights = np.array([1, 1, 1])
        part_weights = np.array([0, 0])
        assert longest_feasible_prefix(
            ctx, targets, weights, part_weights, w_pmax=2, k=2
        ) == 2

    def test_zero_when_first_violates(self, ctx):
        assert longest_feasible_prefix(
            ctx, np.array([0]), np.array([5]), np.array([0, 0]),
            w_pmax=2, k=2,
        ) == 0

    def test_empty_moves(self, ctx):
        assert longest_feasible_prefix(
            ctx,
            np.array([], dtype=int),
            np.array([], dtype=int),
            np.array([0, 0]),
            w_pmax=2,
            k=2,
        ) == 0

    def test_interleaved_partitions(self, ctx):
        targets = np.array([0, 1, 0, 1])
        weights = np.array([1, 1, 1, 1])
        part_weights = np.array([1, 0])
        # p0 can absorb one more (w_pmax 2), p1 two.
        assert longest_feasible_prefix(
            ctx, targets, weights, part_weights, w_pmax=2, k=2
        ) == 2


class TestIndependentSet:
    def test_adjacent_pseudo_lower_id_wins(self, ctx, mode):
        # 0-1 adjacent, both pseudo: only 0 moves in round one.
        csr = CSRGraph.from_edges(3, np.array([[0, 1], [1, 2]]))
        g = BucketListGraph.from_csr(csr)
        state = make_state(g, [0, 0, 1])
        buffer = park(state, [0, 1])
        moves = _find_moves(ctx, g, state, buffer, mode)
        assert moves.vertices.tolist() == [0]

    def test_non_adjacent_move_together(self, ctx, mode):
        csr = CSRGraph.from_edges(4, np.array([[0, 1], [2, 3]]))
        g = BucketListGraph.from_csr(csr)
        state = make_state(g, [0, 0, 1, 1])
        buffer = park(state, [0, 2])
        moves = _find_moves(ctx, g, state, buffer, mode)
        assert sorted(moves.vertices.tolist()) == [0, 2]


class TestMostSuitablePartition:
    def test_majority_partition_wins(self, ctx, mode):
        # Vertex 0 wired to 1,2 (p0) and 3 (p1) -> goes to p0.
        csr = CSRGraph.from_edges(
            4, np.array([[0, 1], [0, 2], [0, 3]])
        )
        g = BucketListGraph.from_csr(csr)
        state = make_state(g, [0, 0, 0, 1])
        buffer = park(state, [0])
        moves = _find_moves(ctx, g, state, buffer, mode)
        assert moves.targets.tolist() == [0]
        assert moves.nbr_counts.tolist() == [2]

    def test_tie_broken_by_lighter_partition(self, ctx, mode):
        # One neighbor in each partition; p1 is lighter.
        csr = CSRGraph.from_edges(
            5, np.array([[0, 1], [0, 2], [3, 1], [4, 1]])
        )
        g = BucketListGraph.from_csr(csr)
        state = make_state(g, [0, 0, 1, 0, 0])
        buffer = park(state, [0])
        moves = _find_moves(ctx, g, state, buffer, mode)
        # p0 weight 3, p1 weight 1: tie on one neighbor each -> p1.
        assert moves.targets.tolist() == [1]

    def test_isolated_vertex_goes_to_lightest(self, ctx, mode):
        csr = CSRGraph.from_edges(4, np.array([[0, 1], [0, 2]]))
        g = BucketListGraph.from_csr(csr)
        state = make_state(g, [0, 0, 0, 1])
        buffer = park(state, [3])
        # 3's only neighbor set is empty after parking? 3 is isolated
        # in this graph (no edges) -> lightest feasible partition is 1.
        moves = _find_moves(ctx, g, state, buffer, mode)
        assert moves.targets.tolist() == [1]
        assert moves.nbr_counts.tolist() == [0]

    def test_full_partitions_excluded(self, ctx, mode):
        """Partitions at or above W_pmax are not candidates
        (Algorithm 4 line 12)."""
        csr = CSRGraph.from_edges(
            6, np.array([[0, 1], [0, 2], [3, 4], [4, 5]])
        )
        g = BucketListGraph.from_csr(csr)
        # Make p0 heavy: vertices 1, 2 weigh 3 each.
        g.vwgt[1] = 3
        g.vwgt[2] = 3
        state = make_state(g, [0, 0, 0, 1, 1, 1], epsilon=0.03)
        buffer = park(state, [0])
        # w_pmax = ceil(1.03 * 10 / 2) = 6; p0 weight 6 -> full.
        moves = _find_moves(ctx, g, state, buffer, mode)
        assert moves.targets.tolist() == [1]


class TestRefinePseudo:
    def test_drains_completely(self, ctx, mode):
        csr = circuit_graph(100, 1.5, seed=3)
        g = BucketListGraph.from_csr(csr)
        part = np.arange(100) % 2
        state = make_state(g, part)
        buffer = park(state, list(range(0, 40, 3)))
        stats = refine_pseudo(ctx, g, state, buffer, mode=mode)
        assert state.pseudo_weight == 0
        assert (state.partition[:100] != state.pseudo_label).all()
        assert stats.moves_applied == len(buffer)

    def test_balance_restored(self, ctx, mode):
        csr = circuit_graph(100, 1.5, seed=3)
        g = BucketListGraph.from_csr(csr)
        part = np.arange(100) % 2
        state = make_state(g, part)
        buffer = park(state, list(range(10)))
        refine_pseudo(ctx, g, state, buffer, mode=mode)
        assert state.balanced()

    def test_moves_reduce_cut_vs_random(self, ctx, mode):
        """Refinement assigns parked vertices to their majority side."""
        csr = circuit_graph(200, 1.6, seed=7)
        g = BucketListGraph.from_csr(csr)
        # A locality-aligned split (first half / second half).
        part = (np.arange(200) >= 100).astype(np.int64)
        state = make_state(g, part)
        parked = list(range(40, 60))
        buffer = park(state, parked)
        refine_pseudo(ctx, g, state, buffer, mode=mode)
        # All parked vertices are in the 'first half' region: most
        # should return to partition 0.
        back = state.partition[parked]
        assert (back == 0).sum() > len(parked) * 0.7

    def test_empty_buffer_noop(self, ctx, tiny_bucketlist, mode):
        state = make_state(tiny_bucketlist, [0, 0, 1, 1])
        stats = refine_pseudo(ctx, tiny_bucketlist, state, [], mode=mode)
        assert stats.rounds == 0
        assert stats.moves_applied == 0

    def test_sort_priority_by_nbr_count(self, ctx, mode):
        """Moves with stronger connections commit first (the sort in
        Algorithm 4 / Figure 5)."""
        # Vertex 0 has 3 neighbors in p0; vertex 5 has 1; capacity
        # admits only one of them -> 0 wins.
        edges = np.array(
            [[0, 1], [0, 2], [0, 3], [5, 4], [1, 2], [3, 4]]
        )
        csr = CSRGraph.from_edges(6, edges)
        g = BucketListGraph.from_csr(csr)
        g.vwgt[0] = 2
        g.vwgt[5] = 2
        state = make_state(g, [0, 0, 0, 0, 0, 1], epsilon=0.5)
        buffer = park(state, [0, 5])
        # After parking: p0 weight 4, w_pmax = ceil(1.5*8/2) = 6 ->
        # only one weight-2 vertex fits back into p0; both prefer p0.
        refine_pseudo(ctx, g, state, buffer, mode=mode)
        # Vertex 0 (3 neighbors in p0) commits first and claims the
        # remaining p0 capacity; vertex 5 is deflected to p1.
        assert state.partition[0] == 0
        assert state.partition[5] == 1

    def test_forced_progress_when_nothing_fits(self, ctx, mode):
        # Both partitions over W_pmax: the first move is forced.
        csr = CSRGraph.from_edges(3, np.array([[0, 1], [1, 2]]))
        g = BucketListGraph.from_csr(csr)
        g.vwgt[:3] = 10
        state = make_state(g, [0, 1, 0], epsilon=0.03)
        buffer = park(state, [1])
        stats = refine_pseudo(ctx, g, state, buffer, mode=mode)
        assert state.pseudo_weight == 0
        assert stats.moves_applied == 1

    def test_mode_equivalence_end_to_end(self):
        csr = circuit_graph(150, 1.6, seed=9)
        finals = {}
        for mode in ("warp", "vector"):
            ctx = GpuContext()
            g = BucketListGraph.from_csr(csr)
            part = np.arange(150) % 4
            state = make_state(g, part, k=4)
            buffer = park(state, list(range(0, 150, 5)))
            refine_pseudo(ctx, g, state, buffer, mode=mode)
            finals[mode] = state.partition.copy()
        assert np.array_equal(finals["warp"], finals["vector"])
