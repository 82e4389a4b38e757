"""Initial partitioning of the coarsest graph."""

import numpy as np
import pytest

from repro.graph import CSRGraph, mesh_graph_2d
from repro.partition import (
    cut_size_csr,
    initial_partition,
    is_balanced,
    partition_weights,
)
from repro.partition.initial import (
    bfs_order,
    partition_by_order,
    random_balanced_partition,
)


class TestBfsOrder:
    def test_covers_all_vertices(self, small_circuit):
        order = bfs_order(small_circuit, start=0)
        assert sorted(order.tolist()) == list(
            range(small_circuit.num_vertices)
        )

    def test_starts_at_start(self, small_circuit):
        assert bfs_order(small_circuit, start=17)[0] == 17

    def test_handles_disconnected(self):
        csr = CSRGraph.from_edges(4, np.array([[0, 1]]))
        order = bfs_order(csr, start=0)
        assert sorted(order.tolist()) == [0, 1, 2, 3]

    def test_bfs_is_level_ordered(self):
        # Path graph: BFS from 0 must be 0,1,2,3.
        csr = CSRGraph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
        assert bfs_order(csr, 0).tolist() == [0, 1, 2, 3]


class TestPartitionByOrder:
    def test_contiguous_chunks(self):
        csr = CSRGraph.from_edges(6, np.array([[i, i + 1] for i in range(5)]))
        part = partition_by_order(csr, np.arange(6), k=3)
        assert part.tolist() == [0, 0, 1, 1, 2, 2]

    def test_weight_aware_chunks(self):
        csr = CSRGraph.from_edges(
            3,
            np.array([[0, 1], [1, 2]]),
            vertex_weights=np.array([10, 1, 1]),
        )
        part = partition_by_order(csr, np.arange(3), k=2)
        # Vertex 0 alone already reaches half the total weight.
        assert part[0] == 0
        assert part[1] == part[2] == 1

    def test_every_label_used(self, small_mesh):
        part = partition_by_order(
            small_mesh, bfs_order(small_mesh, 0), k=4
        )
        assert np.unique(part).size == 4


class TestRandomBalanced:
    def test_weights_balanced(self, small_circuit):
        rng = np.random.default_rng(1)
        part = random_balanced_partition(small_circuit, 4, rng)
        weights = np.bincount(part, weights=small_circuit.vwgt)
        assert weights.max() - weights.min() <= small_circuit.vwgt.max()

    def test_all_labels_in_range(self, small_circuit):
        rng = np.random.default_rng(2)
        part = random_balanced_partition(small_circuit, 3, rng)
        assert part.min() >= 0 and part.max() <= 2


class TestInitialPartition:
    def test_feasible(self, small_mesh):
        part = initial_partition(small_mesh, k=2, epsilon=0.03, seed=5)
        weights = partition_weights(small_mesh.vwgt, part, 2)
        assert is_balanced(
            weights, small_mesh.total_vertex_weight(), 2, 0.03
        )

    def test_beats_random(self, small_mesh):
        part = initial_partition(small_mesh, k=2, epsilon=0.03, seed=5)
        rng = np.random.default_rng(0)
        random_part = rng.integers(0, 2, small_mesh.num_vertices)
        assert cut_size_csr(small_mesh, part) < cut_size_csr(
            small_mesh, random_part
        )

    def test_deterministic(self, small_mesh):
        a = initial_partition(small_mesh, k=4, epsilon=0.03, seed=5)
        b = initial_partition(small_mesh, k=4, epsilon=0.03, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_various_k(self, small_mesh, k):
        part = initial_partition(small_mesh, k=k, epsilon=0.03, seed=1)
        assert np.unique(part).size == k
