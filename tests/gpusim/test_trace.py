"""Kernel tracing / profiling support in the cost ledger."""

import pytest

from repro import IGKway, PartitionConfig
from repro.gpusim import CostLedger, GpuContext
from repro.graph import EdgeInsert, ModifierBatch, circuit_graph


class TestLedgerTrace:
    def test_disabled_by_default(self):
        ledger = CostLedger()
        with ledger.kernel("k1"):
            ledger.charge_instructions(10)
        assert ledger.kernel_trace == []

    def test_records_when_enabled(self):
        ledger = CostLedger()
        ledger.enable_trace()
        with ledger.kernel("k1"):
            ledger.charge_instructions(10)
            ledger.charge_transactions(3)
        assert len(ledger.kernel_trace) == 1
        record = ledger.kernel_trace[0]
        assert record.name == "k1"
        assert record.warp_instructions == 10
        assert record.transactions == 3
        assert record.seconds > 0

    def test_section_attribution(self):
        ledger = CostLedger()
        ledger.enable_trace()
        with ledger.section("modification"):
            with ledger.kernel("k1"):
                pass
        assert ledger.kernel_trace[0].section == "modification"

    def test_top_kernels_aggregates(self):
        ledger = CostLedger()
        ledger.enable_trace()
        for _ in range(3):
            with ledger.kernel("hot"):
                ledger.charge_instructions(10**6)
        with ledger.kernel("cold"):
            ledger.charge_instructions(1)
        top = ledger.top_kernels()
        assert top[0][0] == "hot"
        assert top[0][2] == 3
        assert top[0][1] > top[1][1]

    def test_top_kernels_limit(self):
        ledger = CostLedger()
        ledger.enable_trace()
        for i in range(5):
            with ledger.kernel(f"k{i}"):
                pass
        assert len(ledger.top_kernels(limit=2)) == 2

    def test_format_trace(self):
        ledger = CostLedger()
        ledger.enable_trace()
        with ledger.kernel("alpha"):
            ledger.charge_instructions(100)
        text = ledger.format_trace()
        assert "alpha" in text
        assert "launches" in text

    def test_format_trace_empty(self):
        assert "no kernels traced" in CostLedger().format_trace()

    def test_reset_clears_trace(self):
        ledger = CostLedger()
        ledger.enable_trace()
        with ledger.kernel("a"):
            pass
        ledger.reset()
        assert ledger.kernel_trace == []


class TestEndToEndProfile:
    @pytest.mark.parametrize("mode", ["warp", "vector"])
    def test_incremental_iteration_names_kernels(self, mode):
        csr = circuit_graph(300, 1.4, seed=1)
        ctx = GpuContext()
        ctx.ledger.enable_trace()
        ig = IGKway(csr, PartitionConfig(k=2, seed=1, mode=mode), ctx=ctx)
        ig.full_partition()
        ig.apply(ModifierBatch([EdgeInsert(0, 250), EdgeInsert(1, 200)]))
        names = {record.name for record in ctx.ledger.kernel_trace}
        assert "apply-modifiers" in names
        assert "affected-dispatch" in names
        # FGP kernels are named too (the warp path uses the
        # lane-faithful matching/gain kernels).
        if mode == "warp":
            assert "uf-match-select" in names
            assert "refine-gains" in names
        else:
            assert "uf-match" in names
            assert "refine-pass" in names
        assert "contract" in names

    def test_profile_identifies_dispatch_cost(self):
        """On larger graphs the |V|-warp dispatch tops the incremental
        profile — the documented scaling behavior."""
        csr = circuit_graph(3000, 1.4, seed=1)
        ctx = GpuContext()
        ig = IGKway(csr, PartitionConfig(k=2, seed=1), ctx=ctx)
        ig.full_partition()
        ctx.ledger.enable_trace()
        ig.apply(ModifierBatch([EdgeInsert(0, 2500)]))
        top = ctx.ledger.top_kernels(limit=3)
        assert any(name == "affected-dispatch" for name, _s, _c in top)
