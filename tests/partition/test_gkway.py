"""End-to-end multilevel G-kway full partitioning."""

import hashlib

import numpy as np
import pytest

from repro.graph import circuit_graph, mesh_graph_2d
from repro.gpusim import GpuContext
from repro.partition import (
    GKwayPartitioner,
    PartitionConfig,
    cut_size_csr,
)
from repro.utils import PartitionError


class TestPartition:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_balanced_result(self, small_circuit, k):
        result = GKwayPartitioner(
            PartitionConfig(k=k, seed=3)
        ).partition(small_circuit)
        assert result.balanced
        assert result.partition.min() >= 0
        assert result.partition.max() < k

    def test_cut_matches_partition(self, small_circuit):
        result = GKwayPartitioner(
            PartitionConfig(k=2, seed=1)
        ).partition(small_circuit)
        assert result.cut == cut_size_csr(small_circuit, result.partition)

    def test_beats_random_partition(self, small_mesh):
        result = GKwayPartitioner(
            PartitionConfig(k=2, seed=1)
        ).partition(small_mesh)
        rng = np.random.default_rng(0)
        random_cut = cut_size_csr(
            small_mesh, rng.integers(0, 2, small_mesh.num_vertices)
        )
        assert result.cut < random_cut / 2

    def test_deterministic_for_seed(self, small_circuit):
        a = GKwayPartitioner(
            PartitionConfig(k=2, seed=5)
        ).partition(small_circuit)
        b = GKwayPartitioner(
            PartitionConfig(k=2, seed=5)
        ).partition(small_circuit)
        assert np.array_equal(a.partition, b.partition)
        assert a.cut == b.cut

    def test_seed_override(self, small_circuit):
        partitioner = GKwayPartitioner(PartitionConfig(k=2, seed=5))
        a = partitioner.partition(small_circuit, seed=1)
        b = partitioner.partition(small_circuit, seed=1)
        assert np.array_equal(a.partition, b.partition)

    def test_too_few_vertices_rejected(self, tiny_csr):
        with pytest.raises(PartitionError):
            GKwayPartitioner(PartitionConfig(k=8)).partition(tiny_csr)

    def test_levels_reported(self):
        g = circuit_graph(1000, 1.4, seed=2)
        result = GKwayPartitioner(PartitionConfig(k=2, seed=1)).partition(g)
        assert result.num_levels >= 1
        assert result.coarsest_vertices <= 1000

    def test_part_weights_sum_to_total(self, small_circuit):
        result = GKwayPartitioner(
            PartitionConfig(k=4, seed=2)
        ).partition(small_circuit)
        assert (
            result.part_weights.sum()
            == small_circuit.total_vertex_weight()
        )

    def test_weighted_vertices(self):
        import numpy as np

        from repro.graph import CSRGraph

        rng = np.random.default_rng(7)
        base = circuit_graph(400, 1.5, seed=4)
        weighted = CSRGraph(
            xadj=base.xadj,
            adjncy=base.adjncy,
            adjwgt=base.adjwgt,
            vwgt=rng.integers(1, 5, 400),
        )
        result = GKwayPartitioner(
            PartitionConfig(k=2, seed=1)
        ).partition(weighted)
        assert result.balanced

    def test_charges_context(self, small_circuit):
        ctx = GpuContext()
        GKwayPartitioner(
            PartitionConfig(k=2, seed=1), ctx=ctx
        ).partition(small_circuit)
        assert ctx.ledger.total.kernel_launches > 3
        assert ctx.ledger.total.warp_instructions > 0


class TestCoarseningStrategies:
    def test_unionfind_mode_works(self, small_mesh):
        result = GKwayPartitioner(
            PartitionConfig(k=2, seed=1, coarsening="unionfind")
        ).partition(small_mesh)
        assert result.cut >= 0
        assert result.partition.shape[0] == small_mesh.num_vertices

    def test_constrained_no_worse_balance(self, small_mesh):
        con = GKwayPartitioner(
            PartitionConfig(k=2, seed=1, coarsening="constrained")
        ).partition(small_mesh)
        assert con.balanced

    def test_fm_disabled_still_valid(self, small_mesh):
        result = GKwayPartitioner(
            PartitionConfig(k=2, seed=1, fm_passes=0)
        ).partition(small_mesh)
        assert result.balanced

    def test_fm_improves_cut(self, small_mesh):
        no_fm = GKwayPartitioner(
            PartitionConfig(k=2, seed=1, fm_passes=0)
        ).partition(small_mesh)
        with_fm = GKwayPartitioner(
            PartitionConfig(k=2, seed=1, fm_passes=2)
        ).partition(small_mesh)
        assert with_fm.cut <= no_fm.cut


class TestConfig:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            PartitionConfig(k=1)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            PartitionConfig(epsilon=0.0)

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            PartitionConfig(group_size=1)

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            PartitionConfig(coarsening="bogus")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            PartitionConfig(mode="cuda")

    def test_coarsen_until(self):
        assert PartitionConfig(k=4).coarsen_until == 140


#: ``(cells, edge_ratio, k, seed, warp instructions, transactions,
#: partition sha256)`` of full partitions of the circuit shapes the
#: end-to-end benchmark serves.  Any change to coarsening, initial
#: partitioning or refinement (FM included) that moves a label or a
#: charged cost shows here.
PINNED_FGP = [
    (3000, 1.4, 8, 0, 669540, 437466,
     "2152c3b21ff0e8f7c316694028a00bb2e4ea9f8834cb9db8ff848a55a058ad0f"),
    (3000, 1.4, 8, 1, 811780, 490117,
     "7b7770daa30a028f13fc343d902c2e81bb2345cb19e868cfc5dd68df23de0f10"),
    (3000, 1.4, 8, 2, 818632, 523982,
     "f0f43df99e30d82c3770d140c23004e4be7a1d0b7c4d91863630cef01a5ce5ad"),
    (6000, 1.3, 8, 0, 1651252, 978332,
     "3a3f6f4afbce1fde7737e9f114fc647326a6c03dfd723a14a9206435a07f6a96"),
    (6000, 1.3, 8, 1, 1735768, 1064500,
     "ef117d7462f25faa74e3a66e36951810172297e4edc61933bdf7818c8bc96190"),
    (6000, 1.3, 8, 2, 1750508, 1010814,
     "30b8f591f0da29408d907d4b32b1d3b014070f7ffa23a226de2bc17a58efa394"),
    (1200, 1.3, 4, 0, 568736, 172290,
     "c18e1dd344baae2340c235902082fb2bd6cd9692591fa2ccd7e0601b9eb221ad"),
    (1200, 1.3, 4, 1, 556976, 152361,
     "7ef4eca7122b765092c5b568a93b88ab9c05409a5415e09f0f30f51b8941fac6"),
    (1200, 1.3, 4, 2, 549836, 160054,
     "b02a8db40173f1c51d252085d7bf9aba268cb7b0c1b9dd3992f251ac63b376c2"),
]


@pytest.mark.parametrize(
    "cells,edge_ratio,k,seed,instructions,transactions,digest", PINNED_FGP
)
def test_pinned_fgp_digests(
    cells, edge_ratio, k, seed, instructions, transactions, digest
):
    ctx = GpuContext()
    result = GKwayPartitioner(
        PartitionConfig(k=k, seed=seed), ctx=ctx
    ).partition(circuit_graph(cells, edge_ratio, seed=seed))
    labels = np.ascontiguousarray(result.partition, dtype=np.int64)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == digest
    assert ctx.ledger.total.warp_instructions == instructions
    assert ctx.ledger.total.transactions == transactions
