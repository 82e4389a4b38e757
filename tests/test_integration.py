"""Cross-module integration tests.

Each test threads several subsystems together the way a downstream user
would: checkpointing mid-experiment, profiling an adaptive session,
analyzing an evolving graph, exporting and reloading through file
formats.
"""

import numpy as np
import pytest

from repro import AdaptiveIGKway, GKwayDagger, IGKway, PartitionConfig
from repro.core.serialize import load_partitioner, save_partitioner
from repro.eval.workloads import TraceConfig, generate_trace
from repro.graph import (
    HostGraph,
    circuit_graph,
    graph_summary,
    read_metis,
    write_metis,
)
from repro.gpusim import GpuContext
from repro.obs import Tracer, span
from repro.partition import cut_size_csr


class TestCheckpointMidExperiment:
    def test_resume_produces_same_results(self, tmp_path):
        csr = circuit_graph(400, 1.4, seed=1)
        trace = generate_trace(
            csr,
            TraceConfig(iterations=6, modifiers_per_iteration=15, seed=2),
        )
        # Reference: run straight through.
        straight = IGKway(csr, PartitionConfig(k=2, seed=1))
        straight.full_partition()
        for batch in trace:
            straight.apply(batch)

        # Checkpointed: save after 3 iterations, reload, continue.
        resumed = IGKway(csr, PartitionConfig(k=2, seed=1))
        resumed.full_partition()
        for batch in trace[:3]:
            resumed.apply(batch)
        save_partitioner(resumed, tmp_path / "mid.npz")
        revived = load_partitioner(tmp_path / "mid.npz")
        for batch in trace[3:]:
            revived.apply(batch)
        assert np.array_equal(straight.partition, revived.partition)
        assert straight.cut_size() == revived.cut_size()


class TestProfiledAdaptiveSession:
    def test_trace_covers_fallback_kernels(self):
        csr = circuit_graph(500, 1.4, seed=3)
        ctx = GpuContext()
        adaptive = AdaptiveIGKway(
            csr,
            PartitionConfig(k=2, seed=3),
            ctx=ctx,
            batch_threshold=0.02,
        )
        adaptive.full_partition()
        trace = generate_trace(
            csr,
            TraceConfig(iterations=2, modifiers_per_iteration=20, seed=4),
        )
        # Kernels are aggregated under the innermost open span, so the
        # loop runs under one: the fallback's FGP kernels are recorded.
        tracer = Tracer(ledger=ctx.ledger)
        with tracer.activate(), span("session"):
            for batch in trace:
                adaptive.apply(batch)
        assert adaptive.fallbacks_taken >= 1
        kernels = [e for e in tracer.events if e.kind == "kernel"]
        names = {e.name for e in kernels}
        # Incremental kernels and the fallback's FGP kernels both appear.
        assert "apply-modifiers" in names
        assert "uf-match" in names
        sections = {e.section for e in kernels}
        assert {"modification", "partitioning"} <= sections


class TestAnalysisOnEvolvingGraph:
    def test_structure_class_stable_under_modification(self):
        csr = circuit_graph(800, 1.4, seed=5)
        ig = IGKway(csr, PartitionConfig(k=2, seed=5))
        ig.full_partition()
        before = graph_summary(csr)
        trace = generate_trace(
            csr,
            TraceConfig(iterations=5, modifiers_per_iteration=30, seed=6),
        )
        for batch in trace:
            ig.apply(batch)
        evolved, _ = ig.graph.to_csr()
        after = graph_summary(evolved)
        assert before["structure_class"] == "circuit-like"
        # Light modification keeps the class (the Figure 8 small-batch
        # regime where incremental refinement stays effective).
        assert after["structure_class"] == before["structure_class"]
        assert abs(
            after["edge_vertex_ratio"] - before["edge_vertex_ratio"]
        ) < 0.3


class TestFileRoundtripIntoPartitioner:
    def test_metis_file_through_both_systems(self, tmp_path):
        csr = circuit_graph(400, 1.4, seed=7)
        path = tmp_path / "g.graph"
        write_metis(csr, path)
        loaded = read_metis(path)
        config = PartitionConfig(k=4, seed=7)
        ig = IGKway(loaded, config)
        bl = GKwayDagger(loaded, config)
        ig_report = ig.full_partition()
        bl_report = bl.full_partition()
        # Identical input + identical config => identical FGP.
        assert ig_report.cut == bl_report.cut
        trace = generate_trace(
            loaded,
            TraceConfig(iterations=3, modifiers_per_iteration=10, seed=8),
        )
        for batch in trace:
            ig.apply(batch)
            bl.apply(batch)
        # Both track the same evolving graph.
        host = HostGraph.from_csr(loaded)
        for batch in trace:
            host.apply_batch(batch)
        ig_host = ig.graph.to_host_graph()
        for u in range(host.num_vertex_slots):
            assert ig_host.adj[u] == host.adj[u]
        assert bl.host.adj == host.adj


class TestCostModelConsistency:
    def test_section_times_sum_to_total(self):
        csr = circuit_graph(400, 1.4, seed=9)
        ctx = GpuContext()
        ig = IGKway(csr, PartitionConfig(k=2, seed=9), ctx=ctx)
        ig.full_partition()
        trace = generate_trace(
            csr,
            TraceConfig(iterations=3, modifiers_per_iteration=15,
                        seed=10),
        )
        for batch in trace:
            ig.apply(batch)
        ledger = ctx.ledger
        section_sum = sum(
            ledger.seconds(name) for name in ledger.sections
        )
        assert section_sum == pytest.approx(ledger.seconds(), rel=1e-9)

    def test_iteration_reports_sum_to_sections(self):
        csr = circuit_graph(400, 1.4, seed=9)
        ctx = GpuContext()
        ig = IGKway(csr, PartitionConfig(k=2, seed=9), ctx=ctx)
        ig.full_partition()
        trace = generate_trace(
            csr,
            TraceConfig(iterations=4, modifiers_per_iteration=15,
                        seed=10),
        )
        mod_total = part_total = 0.0
        for batch in trace:
            report = ig.apply(batch)
            mod_total += report.modification_seconds
            part_total += report.partitioning_seconds
        assert mod_total == pytest.approx(
            ctx.ledger.seconds("modification"), rel=1e-6
        )
        assert part_total == pytest.approx(
            ctx.ledger.seconds("partitioning"), rel=1e-6
        )
