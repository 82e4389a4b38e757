"""Graph structure analysis utilities."""

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    circuit_graph,
    community_graph,
    mesh_graph_2d,
    triangulated_mesh_graph,
)
from repro.graph.analysis import (
    classify_structure,
    component_sizes,
    connected_components,
    degree_statistics,
    edge_span_statistics,
    format_summary,
    graph_summary,
    largest_component_fraction,
    sampled_clustering_coefficient,
)


def _forest(num_vertices: int) -> CSRGraph:
    """Binary-heap tree with every vertex whose ID is 0 or 1 mod 5 cut
    from its parent: ~0.6 edges per vertex, in ~0.4 n components."""
    child = np.arange(1, num_vertices)
    child = child[child % 5 > 1]
    return CSRGraph.from_edges(
        num_vertices, np.stack([(child - 1) // 2, child], axis=1)
    )


class TestDegreeStatistics:
    def test_path_graph(self):
        csr = CSRGraph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
        stats = degree_statistics(csr)
        assert stats.minimum == 1
        assert stats.maximum == 2
        assert stats.mean == pytest.approx(1.5)

    def test_empty_graph(self):
        csr = CSRGraph.from_edges(3, np.empty((0, 2), dtype=np.int64))
        stats = degree_statistics(csr)
        assert stats.maximum == 0
        assert stats.coefficient_of_variation == 0.0

    def test_cv_low_for_mesh(self):
        stats = degree_statistics(mesh_graph_2d(400))
        assert stats.coefficient_of_variation < 0.3

    def test_cv_high_for_social(self):
        stats = degree_statistics(community_graph(500, 4, seed=1))
        assert stats.coefficient_of_variation > 0.5


class TestComponents:
    def test_connected_graph_one_component(self, small_circuit):
        labels = connected_components(small_circuit)
        assert np.unique(labels).size == 1

    def test_two_components(self):
        csr = CSRGraph.from_edges(4, np.array([[0, 1], [2, 3]]))
        labels = connected_components(csr)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_component_sizes_sorted(self):
        csr = CSRGraph.from_edges(
            6, np.array([[0, 1], [1, 2], [3, 4]])
        )
        sizes = component_sizes(csr)
        assert sizes.tolist() == [3, 2, 1]

    def test_largest_fraction(self):
        csr = CSRGraph.from_edges(4, np.array([[0, 1], [1, 2]]))
        assert largest_component_fraction(csr) == pytest.approx(0.75)

    def test_forest_has_many_components(self):
        assert component_sizes(_forest(500)).size > 10


class TestClustering:
    def test_triangle_is_fully_clustered(self):
        csr = CSRGraph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))
        assert sampled_clustering_coefficient(csr) == pytest.approx(1.0)

    def test_grid_has_no_triangles(self):
        assert sampled_clustering_coefficient(
            mesh_graph_2d(400)
        ) == pytest.approx(0.0)

    def test_triangulated_mesh_clusters(self):
        value = sampled_clustering_coefficient(
            triangulated_mesh_graph(400)
        )
        assert value > 0.2

    def test_deterministic_for_seed(self, small_circuit):
        a = sampled_clustering_coefficient(small_circuit, seed=4)
        b = sampled_clustering_coefficient(small_circuit, seed=4)
        assert a == b

    def test_degenerate_graph(self):
        csr = CSRGraph.from_edges(3, np.array([[0, 1]]))
        assert sampled_clustering_coefficient(csr) == 0.0


class TestSpanAndClassify:
    def test_circuit_span_is_local(self):
        csr = circuit_graph(2000, 1.3, locality=20.0, seed=1)
        median, p90 = edge_span_statistics(csr)
        assert median < 50
        assert p90 >= median

    def test_empty_span(self):
        csr = CSRGraph.from_edges(2, np.empty((0, 2), dtype=np.int64))
        assert edge_span_statistics(csr) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda: _forest(800), "forest-like"),
            (lambda: mesh_graph_2d(900), "mesh-like"),
            (lambda: circuit_graph(900, 1.3, seed=1), "circuit-like"),
            (lambda: community_graph(900, 4, seed=1), "social-like"),
        ],
    )
    def test_classification(self, builder, expected):
        assert classify_structure(builder()) == expected


class TestSummary:
    def test_summary_fields(self, small_circuit):
        summary = graph_summary(small_circuit)
        assert summary["vertices"] == small_circuit.num_vertices
        assert summary["edges"] == small_circuit.num_edges
        assert "structure_class" in summary
        assert summary["largest_component"] <= 1.0

    def test_format_summary(self, small_circuit):
        text = format_summary(graph_summary(small_circuit))
        assert "structure_class" in text
        assert str(small_circuit.num_vertices) in text
