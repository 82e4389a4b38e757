"""Region-burst workloads, and vertex growth under balancing."""

import numpy as np

from repro import IGKway, PartitionConfig
from repro.eval.workloads import generate_region_burst_trace
from repro.graph import (
    EdgeDelete,
    EdgeInsert,
    HostGraph,
    VertexInsert,
)


class TestRegionBurstTrace:
    def test_applicable(self, small_circuit):
        trace = generate_region_burst_trace(
            small_circuit, iterations=5, modifiers_per_iteration=20,
            seed=1,
        )
        host = HostGraph.from_csr(small_circuit)
        for batch in trace:
            host.apply_batch(batch)

    def test_edges_only(self, small_circuit):
        trace = generate_region_burst_trace(
            small_circuit, iterations=5, modifiers_per_iteration=20,
            seed=1,
        )
        for batch in trace:
            for modifier in batch:
                assert isinstance(modifier, (EdgeInsert, EdgeDelete))

    def test_modifiers_stay_in_region(self, small_circuit):
        span = 50
        trace = generate_region_burst_trace(
            small_circuit,
            iterations=8,
            modifiers_per_iteration=15,
            region_span=span,
            seed=2,
        )
        for batch in trace:
            # Inserted edges are fully inside the window; deletions may
            # reach outside (an in-region vertex can lose a long net).
            endpoints = [
                x
                for m in batch
                if isinstance(m, EdgeInsert)
                for x in (m.u, m.v)
            ]
            if endpoints:
                assert max(endpoints) - min(endpoints) <= span

    def test_deterministic(self, small_circuit):
        a = generate_region_burst_trace(small_circuit, 3, 10, seed=7)
        b = generate_region_burst_trace(small_circuit, 3, 10, seed=7)
        assert [list(x) for x in a] == [list(y) for y in b]

    def test_drives_partitioner(self, small_circuit):
        ig = IGKway(small_circuit, PartitionConfig(k=2, seed=1))
        ig.full_partition()
        for batch in generate_region_burst_trace(
            small_circuit, iterations=4, modifiers_per_iteration=20,
            seed=3,
        ):
            report = ig.apply(batch)
            assert report.balanced
        ig.validate()


class TestGrowthTrace:
    def test_balancing_absorbs_growth(self, small_circuit):
        """The pseudo-partition mechanism keeps growth balanced — the
        Algorithm 3 stress test."""
        ig = IGKway(
            small_circuit, PartitionConfig(k=4, seed=1),
            capacity_factor=2.0,
        )
        ig.full_partition()
        n = small_circuit.num_vertices
        rng = np.random.default_rng(3)
        for iteration in range(10):
            # Six new vertices, each wired to two existing ones.
            batch = []
            for u in range(n + 6 * iteration, n + 6 * (iteration + 1)):
                batch.append(VertexInsert(u))
                for v in rng.choice(u, size=2, replace=False):
                    batch.append(EdgeInsert(u, int(v)))
            report = ig.apply(batch)
            assert report.balanced
        ig.validate()
        # All 60 new vertices were placed in real partitions.
        new_ids = np.arange(
            small_circuit.num_vertices, ig.graph.num_vertices
        )
        assert new_ids.size == 60
        labels = ig.partition[new_ids]
        assert np.all((labels >= 0) & (labels < 4))
