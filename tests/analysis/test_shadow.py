"""Unit tests for the shadow-memory warp-access sanitizer."""

import pickle

import numpy as np
import pytest

from repro.analysis.fixtures import (
    run_clean_kernel,
    run_intra_warp_racy_kernel,
    run_racy_kernel,
)
from repro.analysis.shadow import (
    ShadowArray,
    ShadowSession,
    ShadowTracker,
    compare_traces,
    shadow_wrap,
)
from repro.gpusim.atomics import atomic_add
from repro.gpusim.context import WARP_SIZE, GpuContext
from repro.gpusim.kernel import launch_warps
from repro.gpusim.warp import Warp


def _run(body, n_warps=2, name="k", ordered=False, arrays=()):
    """Launch ``body`` under a fresh session with ``arrays`` wrapped."""
    ctx = GpuContext()
    tracker = ShadowTracker()
    with ShadowSession(ctx, tracker):
        wrapped = [shadow_wrap(a, f"t.a{i}", tracker) for i, a in enumerate(arrays)]

        def kernel(warp: Warp, item: int) -> None:
            body(ctx, warp, item, wrapped)

        launch_warps(ctx, list(range(n_warps)), kernel, name=name, ordered=ordered)
    return tracker


class TestFixtureKernels:
    def test_racy_kernel_flagged(self):
        tracker = run_racy_kernel()
        assert tracker.n_conflicts > 0
        kinds = {f.kind for f in tracker.findings}
        assert kinds <= {"read-write", "write-write"}
        f = tracker.findings[0]
        assert f.array == "fixture.out"
        assert f.address == 0
        assert f.first_warp != f.second_warp

    def test_racy_kernel_flagged_any_seed(self):
        # Detection is address-based, independent of the data written.
        for seed in (0, 1, 99):
            assert run_racy_kernel(seed=seed).n_conflicts > 0

    def test_intra_warp_scatter_flagged(self):
        tracker = run_intra_warp_racy_kernel()
        intra = [f for f in tracker.findings if f.kind == "intra-warp-write"]
        assert intra
        assert intra[0].address == 3
        assert "lanes" in intra[0].detail

    def test_clean_kernel_no_false_positive(self):
        tracker = run_clean_kernel()
        assert tracker.n_conflicts == 0
        assert tracker.findings == []
        # The launch still produced a trace digest.
        assert len(tracker.launches) == 1
        assert tracker.launches[0].n_events > 0


class TestConflictModel:
    def test_atomic_vs_atomic_is_mediated(self):
        def body(ctx, warp, item, arrays):
            atomic_add(ctx, arrays[0], 0, 1)

        tracker = _run(body, arrays=[np.zeros(4, dtype=np.int64)])
        assert tracker.n_conflicts == 0

    def test_atomic_vs_plain_is_flagged(self):
        def body(ctx, warp, item, arrays):
            if item == 0:
                atomic_add(ctx, arrays[0], 0, 1)
            else:
                arrays[0][0] = 5

        tracker = _run(body, arrays=[np.zeros(4, dtype=np.int64)])
        assert tracker.n_conflicts == 1
        assert "one side is atomic" in tracker.findings[0].detail

    def test_disjoint_writes_clean(self):
        def body(ctx, warp, item, arrays):
            arrays[0][item] = item

        tracker = _run(body, n_warps=4, arrays=[np.zeros(4, dtype=np.int64)])
        assert tracker.n_conflicts == 0

    def test_read_read_never_conflicts(self):
        def body(ctx, warp, item, arrays):
            _ = arrays[0][0]

        tracker = _run(body, n_warps=4, arrays=[np.zeros(4, dtype=np.int64)])
        assert tracker.n_conflicts == 0

    def test_ordered_launch_exempts_cross_warp(self):
        def body(ctx, warp, item, arrays):
            arrays[0][0] = item  # dependent by design

        tracker = _run(body, ordered=True, arrays=[np.zeros(4, dtype=np.int64)])
        assert tracker.n_conflicts == 0
        assert tracker.launches[0].ordered

    def test_ordered_launch_still_checks_intra_warp_scatter(self):
        def body(ctx, warp, item, arrays):
            warp.store(
                arrays[0], np.full(WARP_SIZE, 1, dtype=np.int64), warp.lane_id
            )

        tracker = _run(
            body, n_warps=1, ordered=True,
            arrays=[np.zeros(WARP_SIZE, dtype=np.int64)],
        )
        assert any(f.kind == "intra-warp-write" for f in tracker.findings)

    def test_boolean_mask_and_slice_indexing_tracked(self):
        def body(ctx, warp, item, arrays):
            mask = np.zeros(8, dtype=bool)
            mask[2] = True
            arrays[0][mask] = 1  # both warps write address 2
            _ = arrays[0][1:3]

        tracker = _run(body, arrays=[np.zeros(8, dtype=np.int64)])
        assert tracker.n_conflicts >= 1
        assert tracker.findings[0].address == 2

    def test_finding_cap_counts_all(self):
        def body(ctx, warp, item, arrays):
            for addr in range(8):
                arrays[0][addr] = item

        tracker = ShadowTracker(max_findings=3)
        ctx = GpuContext()
        with ShadowSession(ctx, tracker):
            arr = shadow_wrap(np.zeros(8, dtype=np.int64), "t.a0", tracker)

            def kernel(warp, item):
                body(ctx, warp, item, [arr])

            launch_warps(ctx, [0, 1], kernel, name="flood")
        assert len(tracker.findings) == 3
        assert tracker.n_conflicts == 8


class TestShadowArray:
    def test_wrapping_shares_buffer(self):
        base = np.zeros(4, dtype=np.int64)
        view = shadow_wrap(base, "x", ShadowTracker())
        view[1] = 7
        assert base[1] == 7

    def test_accesses_outside_launch_ignored(self):
        tracker = ShadowTracker()
        view = shadow_wrap(np.zeros(4, dtype=np.int64), "x", tracker)
        view[0] = 1
        _ = view[0]
        assert tracker.launches == []
        assert tracker.n_conflicts == 0

    def test_derived_views_lose_instrumentation(self):
        view = shadow_wrap(np.zeros(4, dtype=np.int64), "x", ShadowTracker())
        assert view[:2]._shadow_tracker is None
        assert (view + 1)._shadow_tracker is None

    def test_pickles_as_plain_array(self):
        view = shadow_wrap(np.arange(4), "x", ShadowTracker())
        restored = pickle.loads(pickle.dumps(view))
        assert not isinstance(restored, ShadowArray)
        np.testing.assert_array_equal(restored, np.arange(4))


class TestSession:
    def test_nested_sessions_rejected(self):
        ctx = GpuContext()
        with ShadowSession(ctx):
            with pytest.raises(RuntimeError):
                ShadowSession(ctx).__enter__()

    def test_attach_restores_on_exit(self):
        class Holder:
            pass

        holder = Holder()
        holder.data = np.zeros(4, dtype=np.int64)
        original = holder.data
        ctx = GpuContext()
        with ShadowSession(ctx) as session:
            session.attach(holder, ("data",), "h")
            assert isinstance(holder.data, ShadowArray)
        assert holder.data is original
        assert ctx.shadow is None

    def test_attach_before_enter_rejected(self):
        session = ShadowSession(GpuContext())
        with pytest.raises(RuntimeError):
            session.attach(object(), (), "x")


class TestTraces:
    def test_same_kernel_same_digest(self):
        first = run_clean_kernel()
        second = run_clean_kernel()
        assert compare_traces(first.launches, second.launches) == []

    def test_divergent_streams_reported(self):
        a = run_clean_kernel(n_warps=2)
        b = run_clean_kernel(n_warps=3)
        assert compare_traces(a.launches, b.launches)

    def test_collectives_affect_digest(self):
        def run(pred_value):
            ctx = GpuContext()
            tracker = ShadowTracker()
            with ShadowSession(ctx, tracker):

                def body(warp, item):
                    warp.ballot_sync(
                        0xFFFFFFFF,
                        np.full(WARP_SIZE, pred_value, dtype=bool),
                    )

                launch_warps(ctx, [0], body, name="ballot-only")
            return tracker.launches[0].digest

        assert run(True) != run(False)
