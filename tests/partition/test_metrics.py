"""Cut size, balance, and degree metrics (Section II definitions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import BucketListGraph, CSRGraph, circuit_graph
from repro.partition import (
    cut_size_bucketlist,
    cut_size_csr,
    external_internal_degrees,
    imbalance,
    is_balanced,
    max_partition_weight,
    partition_weights,
)


def brute_force_cut(csr: CSRGraph, partition: np.ndarray) -> int:
    total = 0
    edges, weights = csr.edge_array()
    for (u, v), w in zip(edges, weights):
        if partition[u] != partition[v]:
            total += int(w)
    return total


class TestCutSize:
    def test_all_same_partition_zero_cut(self, tiny_csr):
        assert cut_size_csr(tiny_csr, np.zeros(4, dtype=np.int64)) == 0

    def test_known_cut(self, tiny_csr):
        # Partition {0,1} | {2,3}: edges (0,2) and (1,2) cross -> cut 2.
        partition = np.array([0, 0, 1, 1])
        assert cut_size_csr(tiny_csr, partition) == 2

    def test_weighted_cut(self):
        csr = CSRGraph.from_edges(
            3, np.array([[0, 1], [1, 2]]), edge_weights=np.array([5, 7])
        )
        assert cut_size_csr(csr, np.array([0, 0, 1])) == 7

    def test_matches_brute_force(self, small_circuit):
        rng = np.random.default_rng(3)
        partition = rng.integers(0, 4, small_circuit.num_vertices)
        assert cut_size_csr(small_circuit, partition) == brute_force_cut(
            small_circuit, partition
        )

    def test_bucketlist_agrees_with_csr(self, small_circuit):
        graph = BucketListGraph.from_csr(small_circuit)
        rng = np.random.default_rng(4)
        partition = rng.integers(0, 3, graph.capacity)
        assert cut_size_bucketlist(
            graph, partition
        ) == cut_size_csr(small_circuit, partition[: graph.num_vertices])

    def test_bucketlist_empty(self, tiny_csr):
        graph = BucketListGraph.from_csr(tiny_csr)
        graph.vertex_status[:] = 0
        assert cut_size_bucketlist(graph, np.zeros(graph.capacity)) == 0

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_cut_csr_vs_bucketlist_property(self, seed):
        g = circuit_graph(60, 1.8, seed=seed)
        bl = BucketListGraph.from_csr(g)
        rng = np.random.default_rng(seed)
        partition = rng.integers(0, 3, bl.capacity)
        assert cut_size_csr(g, partition[:60]) == cut_size_bucketlist(
            bl, partition
        )


class TestBalance:
    def test_max_partition_weight_formula(self):
        # (1 + 0.03) * 100 / 2 = 51.5 -> 52.
        assert max_partition_weight(100, 2, 0.03) == 52

    def test_is_balanced(self):
        assert is_balanced(np.array([52, 48]), 100, 2, 0.03)
        assert not is_balanced(np.array([53, 47]), 100, 2, 0.03)

    def test_imbalance_zero_when_even(self):
        assert imbalance(np.array([50, 50]), 100, 2) == pytest.approx(0.0)

    def test_imbalance_positive(self):
        assert imbalance(np.array([60, 40]), 100, 2) == pytest.approx(0.2)

    def test_partition_weights_ignores_special_labels(self):
        vwgt = np.array([1, 2, 3, 4])
        partition = np.array([0, 1, -1, 2])  # -1 deleted, 2 pseudo (k=2)
        weights = partition_weights(vwgt, partition, 2)
        assert weights.tolist() == [1, 2]


class TestBoundaryAndDegrees:
    def test_external_internal_degrees(self, tiny_csr):
        graph = BucketListGraph.from_csr(tiny_csr)
        partition = np.zeros(graph.capacity, dtype=np.int64)
        partition[:4] = [0, 0, 1, 1]
        ext, internal = external_internal_degrees(
            graph, partition, np.arange(4)
        )
        # v0: nbrs 1 (int), 2 (ext); v2: nbrs 0,1 ext + 3 int.
        assert ext.tolist() == [1, 1, 2, 0]
        assert internal.tolist() == [1, 1, 1, 1]

    def test_degrees_against_brute_force(self, small_circuit):
        graph = BucketListGraph.from_csr(small_circuit)
        rng = np.random.default_rng(8)
        partition = rng.integers(0, 3, graph.capacity)
        vertices = np.arange(0, graph.num_vertices, 11)
        ext, internal = external_internal_degrees(
            graph, partition, vertices
        )
        for i, u in enumerate(vertices):
            nbrs = graph.neighbors(u)
            expected_ext = int(
                (partition[nbrs] != partition[u]).sum()
            )
            assert ext[i] == expected_ext
            assert internal[i] == nbrs.size - expected_ext

    def test_empty_vertex_set(self, tiny_bucketlist):
        ext, internal = external_internal_degrees(
            tiny_bucketlist,
            np.zeros(tiny_bucketlist.capacity),
            np.array([], dtype=np.int64),
        )
        assert ext.size == 0 and internal.size == 0
