"""Cost ledger and model behavior."""

import pytest

from repro.gpusim import A6000, CostLedger, CostModel, Counters


class TestCounters:
    def test_iadd_accumulates(self):
        a = Counters(kernel_launches=1, warp_instructions=10)
        b = Counters(kernel_launches=2, transactions=5)
        a += b
        assert a.kernel_launches == 3
        assert a.warp_instructions == 10
        assert a.transactions == 5

    def test_copy_is_independent(self):
        a = Counters(host_ops=7)
        b = a.copy()
        b.host_ops += 1
        assert a.host_ops == 7

    def test_diff(self):
        a = Counters(warp_instructions=100, h2d_bytes=50)
        base = Counters(warp_instructions=40)
        d = a.diff(base)
        assert d.warp_instructions == 60
        assert d.h2d_bytes == 50


class TestCostModel:
    def test_seconds_zero_for_empty(self):
        assert CostModel(A6000).seconds(Counters()) == 0.0

    def test_launch_overhead(self):
        model = CostModel(A6000)
        c = Counters(kernel_launches=10)
        assert model.seconds(c) == pytest.approx(
            10 * A6000.kernel_launch_overhead_s
        )

    def test_pcie_both_directions(self):
        model = CostModel(A6000)
        c = Counters(h2d_bytes=1000, d2h_bytes=500)
        assert model.seconds(c) == pytest.approx(
            1500 / A6000.pcie_bytes_per_second
        )

    def test_kernel_overlap_max_of_compute_and_memory(self):
        model = CostModel(A6000)
        compute_heavy = model.kernel_seconds(10**9, 1)
        memory_heavy = model.kernel_seconds(1, 10**9)
        both = model.kernel_seconds(10**9, 10**9)
        assert both == pytest.approx(max(compute_heavy, memory_heavy))


class TestCostLedger:
    def test_sections_are_separated(self):
        ledger = CostLedger()
        with ledger.section("modification"):
            ledger.charge_instructions(10)
        with ledger.section("partitioning"):
            ledger.charge_instructions(30)
        assert ledger.sections["modification"].warp_instructions == 10
        assert ledger.sections["partitioning"].warp_instructions == 30
        assert ledger.total.warp_instructions == 40

    def test_nested_sections_attribute_to_innermost(self):
        ledger = CostLedger()
        with ledger.section("outer"):
            with ledger.section("inner"):
                ledger.charge_transactions(5)
            ledger.charge_transactions(2)
        assert ledger.sections["inner"].transactions == 5
        assert ledger.sections["outer"].transactions == 2

    def test_default_section(self):
        ledger = CostLedger()
        ledger.charge_host_ops(9)
        assert ledger.sections[CostLedger.DEFAULT_SECTION].host_ops == 9

    def test_kernel_scope_overlaps(self):
        ledger = CostLedger()
        with ledger.kernel():
            ledger.charge_instructions(10**9)
            ledger.charge_transactions(1)
        # Overlapped kernel seconds equal the compute component (larger).
        expected = 10**9 / ledger.model.device.warp_instruction_rate
        assert ledger.total.overlapped_kernel_seconds == pytest.approx(
            expected
        )
        assert ledger.total.kernel_launches == 1

    def test_kernel_counts_launch(self):
        ledger = CostLedger()
        with ledger.kernel():
            pass
        with ledger.kernel():
            pass
        assert ledger.total.kernel_launches == 2

    def test_adjust_instructions_inside_kernel(self):
        ledger = CostLedger()
        with ledger.kernel():
            ledger.charge_instructions(100)
            ledger.adjust_instructions(-60)
        assert ledger.total.warp_instructions == 40

    def test_charges_ignore_nonpositive(self):
        ledger = CostLedger()
        ledger.charge_instructions(0)
        ledger.charge_transactions(-5)
        ledger.charge_h2d(0)
        assert ledger.total.warp_instructions == 0
        assert ledger.total.transactions == 0
        assert ledger.total.h2d_bytes == 0

    def test_snapshot_diff_isolates_interval(self):
        ledger = CostLedger()
        ledger.charge_instructions(10)
        snap = ledger.snapshot()
        ledger.charge_instructions(25)
        assert ledger.total.diff(snap).warp_instructions == 25

    def test_seconds_per_section(self):
        ledger = CostLedger()
        with ledger.section("a"):
            ledger.charge_h2d(10**6)
        assert ledger.seconds("a") > 0
        assert ledger.seconds("missing") == 0.0
        assert ledger.seconds() == pytest.approx(ledger.seconds("a"))

    def test_atomics_charged(self):
        ledger = CostLedger()
        ledger.charge_atomics(50)
        assert ledger.total.atomic_ops == 50
        assert ledger.seconds() > 0
