"""CSR graph construction, queries and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.utils import GraphConsistencyError


class TestFromEdges:
    def test_simple_triangle(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_symmetric_arcs(self):
        g = CSRGraph.from_edges(2, np.array([[0, 1]]))
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0]

    def test_isolated_vertices(self):
        g = CSRGraph.from_edges(5, np.array([[0, 1]]))
        assert g.degree(4) == 0
        assert g.neighbors(4).size == 0

    def test_empty_graph(self):
        g = CSRGraph.from_edges(3, np.empty((0, 2), dtype=np.int64))
        assert g.num_edges == 0
        g.validate()

    def test_edge_weights_carried(self):
        g = CSRGraph.from_edges(
            2, np.array([[0, 1]]), edge_weights=np.array([7])
        )
        assert g.neighbor_weights(0).tolist() == [7]
        assert g.total_edge_weight() == 7

    def test_vertex_weights_default_one(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1]]))
        assert g.total_vertex_weight() == 3

    def test_self_loop_rejected(self):
        with pytest.raises(GraphConsistencyError):
            CSRGraph.from_edges(2, np.array([[1, 1]]))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphConsistencyError):
            CSRGraph.from_edges(2, np.array([[0, 1], [1, 0]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphConsistencyError):
            CSRGraph.from_edges(2, np.array([[0, 2]]))

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(
                2, np.array([[0, 1]]), edge_weights=np.array([1, 2])
            )


class TestQueries:
    def test_degrees_matches_degree(self, small_circuit):
        degrees = small_circuit.degrees()
        for u in range(0, small_circuit.num_vertices, 17):
            assert degrees[u] == small_circuit.degree(u)

    def test_edge_array_each_edge_once(self, small_circuit):
        edges, weights = small_circuit.edge_array()
        assert edges.shape[0] == small_circuit.num_edges
        assert np.all(edges[:, 0] < edges[:, 1])
        assert weights.shape[0] == edges.shape[0]

    def test_has_edge(self, tiny_csr):
        assert tiny_csr.has_edge(0, 1)
        assert tiny_csr.has_edge(2, 3)
        assert not tiny_csr.has_edge(0, 3)

    def test_nbytes_positive(self, tiny_csr):
        assert tiny_csr.nbytes() > 0


class TestValidate:
    def test_valid_graph_passes(self, small_circuit):
        small_circuit.validate()

    def test_detects_asymmetry(self, tiny_csr):
        broken = CSRGraph(
            xadj=tiny_csr.xadj.copy(),
            adjncy=tiny_csr.adjncy.copy(),
            adjwgt=tiny_csr.adjwgt.copy(),
            vwgt=tiny_csr.vwgt.copy(),
        )
        broken.adjncy[0] = 3  # break one direction
        with pytest.raises(GraphConsistencyError):
            broken.validate()

    def test_detects_bad_xadj(self, tiny_csr):
        broken = CSRGraph(
            xadj=tiny_csr.xadj.copy(),
            adjncy=tiny_csr.adjncy,
            adjwgt=tiny_csr.adjwgt,
            vwgt=tiny_csr.vwgt,
        )
        broken.xadj[-1] += 1
        with pytest.raises(GraphConsistencyError):
            broken.validate()

    def test_detects_weight_misalignment(self, tiny_csr):
        broken = CSRGraph(
            xadj=tiny_csr.xadj,
            adjncy=tiny_csr.adjncy,
            adjwgt=tiny_csr.adjwgt[:-1],
            vwgt=tiny_csr.vwgt,
        )
        with pytest.raises(GraphConsistencyError):
            broken.validate()

    def test_detects_asymmetric_weights(self, tiny_csr):
        broken = CSRGraph(
            xadj=tiny_csr.xadj.copy(),
            adjncy=tiny_csr.adjncy.copy(),
            adjwgt=tiny_csr.adjwgt.copy(),
            vwgt=tiny_csr.vwgt.copy(),
        )
        broken.adjwgt[0] = 9  # weight differs from the reverse arc
        with pytest.raises(GraphConsistencyError):
            broken.validate()


@given(st.integers(min_value=2, max_value=40), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_graphs_validate(n, seed):
    """from_edges output always satisfies its own invariants."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, n * 2))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    mask = src != dst
    lo = np.minimum(src[mask], dst[mask])
    hi = np.maximum(src[mask], dst[mask])
    edges = (
        np.unique(np.stack([lo, hi], axis=1), axis=0)
        if mask.any()
        else np.empty((0, 2), dtype=np.int64)
    )
    g = CSRGraph.from_edges(n, edges)
    g.validate()
    assert g.num_edges == edges.shape[0]
