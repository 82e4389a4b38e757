"""Jet-style refinement (label propagation + afterburner)."""

import numpy as np
import pytest

from repro.graph import CSRGraph, circuit_graph, mesh_graph_2d
from repro.gpusim import GpuContext
from repro.partition import (
    GKwayPartitioner,
    PartitionConfig,
    cut_size_csr,
    is_balanced,
)
from repro.partition.jet import jet_lp_pass, jet_refine


class TestJetLpPass:
    def test_improves_bad_partition(self, small_mesh):
        rng = np.random.default_rng(1)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        before = cut_size_csr(small_mesh, partition)
        moved = jet_lp_pass(small_mesh, partition, 2)
        after = cut_size_csr(small_mesh, partition)
        assert moved > 0
        assert after < before

    def test_no_moves_on_separated_cliques(self):
        edges = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
        csr = CSRGraph.from_edges(6, np.array(edges))
        partition = np.array([0, 0, 0, 1, 1, 1])
        assert jet_lp_pass(csr, partition, 2) == 0

    def test_afterburner_prevents_pair_swaps(self):
        """Two adjacent vertices that would naively swap partitions
        (each seeing the other as its majority side) must not both
        move — the afterburner makes the lower-priority one re-evaluate
        under the assumption the other moves."""
        # 0-1 joined; 0 also tied to 2,3 (p1); 1 also tied to 4,5 (p0).
        edges = np.array(
            [[0, 1], [0, 2], [0, 3], [1, 4], [1, 5]]
        )
        csr = CSRGraph.from_edges(6, edges)
        partition = np.array([0, 1, 1, 1, 0, 0])
        before = cut_size_csr(csr, partition)
        jet_lp_pass(csr, partition, 2)
        after = cut_size_csr(csr, partition)
        assert after <= before  # a naive simultaneous swap would worsen

    def test_interior_vertices_never_move(self, small_mesh):
        partition = np.zeros(small_mesh.num_vertices, dtype=np.int64)
        partition[:3] = 1
        reference = partition.copy()
        jet_lp_pass(small_mesh, partition, 2)
        # Vertices far from the tiny island of 1s are interior and stay.
        assert np.array_equal(partition[100:], reference[100:])


class TestJetRefine:
    def test_never_worse_than_balanced_input(self, small_mesh):
        rng = np.random.default_rng(2)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        before = cut_size_csr(small_mesh, partition)
        refined = jet_refine(small_mesh, partition, 2, 0.03)
        assert cut_size_csr(small_mesh, refined) <= before

    def test_result_balanced(self, small_mesh):
        rng = np.random.default_rng(2)
        partition = rng.integers(0, 4, small_mesh.num_vertices)
        refined = jet_refine(small_mesh, partition, 4, 0.03)
        weights = np.bincount(
            refined, weights=small_mesh.vwgt, minlength=4
        ).astype(np.int64)
        assert is_balanced(
            weights, small_mesh.total_vertex_weight(), 4, 0.03
        )

    def test_repairs_unbalanced_input(self, small_mesh):
        partition = np.zeros(small_mesh.num_vertices, dtype=np.int64)
        partition[:5] = 1
        refined = jet_refine(small_mesh, partition, 2, 0.03)
        weights = np.bincount(
            refined, weights=small_mesh.vwgt, minlength=2
        ).astype(np.int64)
        assert is_balanced(
            weights, small_mesh.total_vertex_weight(), 2, 0.03
        )

    def test_input_not_mutated(self, small_mesh):
        rng = np.random.default_rng(3)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        copy = partition.copy()
        jet_refine(small_mesh, partition, 2, 0.03)
        assert np.array_equal(partition, copy)

    def test_charges_context(self, small_mesh):
        ctx = GpuContext()
        rng = np.random.default_rng(3)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        jet_refine(small_mesh, partition, 2, 0.03, ctx=ctx)
        assert ctx.ledger.total.kernel_launches >= 1


class TestJetInPartitioner:
    def test_jet_mode_produces_balanced_partition(self, small_mesh):
        result = GKwayPartitioner(
            PartitionConfig(k=4, seed=3, refinement="jet")
        ).partition(small_mesh)
        assert result.balanced

    def test_jet_quality_comparable(self):
        """Jet and G-kway refinement land in the same quality range."""
        csr = mesh_graph_2d(2500)
        cuts = {}
        for refinement in ("gkway", "jet"):
            result = GKwayPartitioner(
                PartitionConfig(k=2, seed=5, refinement=refinement)
            ).partition(csr)
            cuts[refinement] = result.cut
            assert result.balanced
        assert cuts["jet"] <= 2.5 * cuts["gkway"]
        assert cuts["gkway"] <= 2.5 * cuts["jet"]

    def test_invalid_refinement_rejected(self):
        with pytest.raises(ValueError):
            PartitionConfig(refinement="magic")
