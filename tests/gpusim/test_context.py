"""GpuContext launch bookkeeping and parallel cost pricing."""

import numpy as np
import pytest

from repro.gpusim import TINY_GPU, GpuContext
from repro.gpusim.atomics import atomic_add
from repro.gpusim.kernel import launch_threads, launch_warps


class TestWaves:
    def test_resident_warps(self):
        ctx = GpuContext(TINY_GPU)
        assert ctx.resident_warps == TINY_GPU.sm_count * TINY_GPU.warps_per_sm

    def test_wavefront_throughput_bound(self):
        ctx = GpuContext(TINY_GPU)
        ctx.charge_wavefront(100, instructions_per_warp=10)
        assert ctx.ledger.total.warp_instructions == 1000

    def test_wavefront_latency_bound_for_tiny_grid(self):
        ctx = GpuContext(TINY_GPU)  # sm_count = 2
        ctx.charge_wavefront(1, instructions_per_warp=10)
        # One warp occupies one SM: counts sm_count-fold.
        assert ctx.ledger.total.warp_instructions == 20

    def test_wavefront_transactions_sum(self):
        ctx = GpuContext(TINY_GPU)
        ctx.charge_wavefront(7, 1, transactions_per_warp=3)
        assert ctx.ledger.total.transactions == 21

    def test_wavefront_zero_warps_noop(self):
        ctx = GpuContext(TINY_GPU)
        ctx.charge_wavefront(0, 100, 100)
        assert ctx.ledger.total.warp_instructions == 0


class TestIrregularWarps:
    def test_balanced_total(self):
        ctx = GpuContext(TINY_GPU)
        ctx.charge_irregular_warps([10] * 100)
        assert ctx.ledger.total.warp_instructions == 1000

    def test_critical_path_dominates(self):
        ctx = GpuContext(TINY_GPU)  # sm_count = 2
        ctx.charge_irregular_warps([1, 1, 1000])
        assert ctx.ledger.total.warp_instructions == 2000

    def test_empty_noop(self):
        ctx = GpuContext(TINY_GPU)
        ctx.charge_irregular_warps([])
        assert ctx.ledger.total.warp_instructions == 0

    def test_transactions_optional(self):
        ctx = GpuContext(TINY_GPU)
        ctx.charge_irregular_warps([5, 5], [2, 3])
        assert ctx.ledger.total.transactions == 5


class TestLaunchWarps:
    def test_body_runs_per_item(self, ctx):
        seen = []
        launch_warps(ctx, [10, 20, 30], lambda warp, item: seen.append(item))
        assert seen == [10, 20, 30]

    def test_charges_one_launch(self, ctx):
        launch_warps(ctx, [1, 2], lambda warp, item: None)
        assert ctx.ledger.total.kernel_launches == 1

    def test_empty_grid(self, ctx):
        launch_warps(ctx, [], lambda warp, item: None)
        assert ctx.ledger.total.kernel_launches == 1
        assert ctx.ledger.total.warp_instructions == 0

    def test_reprices_to_critical_path(self):
        ctx = GpuContext(TINY_GPU)  # sm_count = 2

        def body(warp, item):
            warp.charge(instructions=item)

        launch_warps(ctx, [100, 1], body)
        # sum = 101, longest * sm_count = 200 -> 200 wins.
        assert ctx.ledger.total.warp_instructions == 200


class TestLaunchThreads:
    def test_body_gets_index_and_item(self, ctx):
        seen = []
        launch_threads(ctx, ["a", "b"], lambda i, item: seen.append((i, item)))
        assert seen == [(0, "a"), (1, "b")]

    def test_charges_by_warp_groups(self, ctx):
        launch_threads(ctx, list(range(33)), lambda i, item: None)
        # 33 threads = 2 warps.
        assert ctx.ledger.total.transactions >= 2


class TestAtomics:
    def test_add_returns_old(self, ctx):
        arr = np.array([5])
        assert atomic_add(ctx, arr, 0, 3) == 5
        assert arr[0] == 8

    def test_atomics_are_charged(self, ctx):
        arr = np.array([0])
        for _ in range(5):
            atomic_add(ctx, arr, 0, 1)
        assert ctx.ledger.total.atomic_ops == 5
