"""Cut matrix and device-scaling sensitivity."""

import numpy as np
import pytest

from repro.graph import CSRGraph, circuit_graph
from repro.gpusim import A6000, GpuContext, scale_device
from repro.partition import cut_size_csr
from repro.partition.metrics import cut_matrix


class TestCutMatrix:
    def test_simple_square(self):
        csr = CSRGraph.from_edges(
            4, np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        )
        partition = np.array([0, 0, 1, 1])
        matrix = cut_matrix(csr, partition, 2)
        assert matrix[0, 0] == 1  # edge (0,1) internal
        assert matrix[1, 1] == 1  # edge (2,3) internal
        assert matrix[0, 1] == 2  # edges (1,2) and (3,0) cross
        assert matrix[1, 0] == 2

    def test_symmetric(self, small_circuit):
        rng = np.random.default_rng(1)
        partition = rng.integers(0, 4, small_circuit.num_vertices)
        matrix = cut_matrix(small_circuit, partition, 4)
        assert np.array_equal(matrix, matrix.T)

    def test_upper_triangle_equals_cut(self, small_circuit):
        rng = np.random.default_rng(2)
        partition = rng.integers(0, 3, small_circuit.num_vertices)
        matrix = cut_matrix(small_circuit, partition, 3)
        upper = int(np.triu(matrix, k=1).sum())
        assert upper == cut_size_csr(small_circuit, partition)

    def test_total_weight_conserved(self, small_circuit):
        rng = np.random.default_rng(3)
        partition = rng.integers(0, 3, small_circuit.num_vertices)
        matrix = cut_matrix(small_circuit, partition, 3)
        total = int(np.triu(matrix, k=1).sum() + np.diagonal(matrix).sum())
        assert total == small_circuit.total_edge_weight()

    def test_weighted_edges(self):
        csr = CSRGraph.from_edges(
            3, np.array([[0, 1], [1, 2]]), edge_weights=np.array([5, 7])
        )
        matrix = cut_matrix(csr, np.array([0, 0, 1]), 2)
        assert matrix[0, 0] == 5
        assert matrix[0, 1] == 7


class TestDeviceScaling:
    def test_scaled_fields(self):
        fast = scale_device(A6000, memory=2.0, launch=4.0)
        assert fast.mem_bandwidth_gbps == A6000.mem_bandwidth_gbps * 2
        assert (
            fast.kernel_launch_overhead_s
            == A6000.kernel_launch_overhead_s / 4
        )
        assert fast.sm_count == A6000.sm_count

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            scale_device(A6000, compute=0.0)

    def test_speedup_robust_to_device_scaling(self):
        """The paper's headline ratio is a property of the algorithms,
        not of the calibration: uniformly scaling the device changes
        absolute times but leaves the iG-kway/G-kway† ratio intact."""
        from repro import GKwayDagger, IGKway, PartitionConfig
        from repro.eval.workloads import TraceConfig, generate_trace

        csr = circuit_graph(800, 1.4, seed=4)
        trace = generate_trace(
            csr,
            TraceConfig(iterations=3, modifiers_per_iteration=30, seed=4),
        )
        ratios = []
        for factor in (1.0, 3.0):
            device = scale_device(
                A6000, compute=factor, memory=factor, pcie=factor,
                launch=factor,
            )
            config = PartitionConfig(k=2, seed=4)
            ig = IGKway(csr, config, ctx=GpuContext(device))
            bl = GKwayDagger(csr, config, ctx=GpuContext(device))
            ig.full_partition()
            bl.full_partition()
            ig_total = bl_total = 0.0
            for batch in trace:
                a = ig.apply(batch)
                b = bl.apply(batch)
                ig_total += a.partitioning_seconds
                bl_total += b.partitioning_seconds
            ratios.append(bl_total / ig_total)
        assert ratios[0] == pytest.approx(ratios[1], rel=0.05)
