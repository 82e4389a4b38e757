"""Device-wide parallel primitives: segmented scan and radix sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import GpuContext
from repro.gpusim.primitives import segmented_inclusive_scan, sort_by_key


class TestSegmentedScan:
    def test_figure5_example(self, ctx):
        # Figure 5: two moves, two partitions, unit weights.
        # delta_p_wgt = [1, 0 | 0, 1]  (move 1 -> p1, move 2 -> p2)
        delta = np.array([1, 0, 0, 1])
        segments = np.array([0, 0, 1, 1])
        got = segmented_inclusive_scan(ctx, delta, segments)
        assert np.array_equal(got, np.array([1, 1, 0, 1]))

    def test_restarts_at_boundaries(self, ctx):
        values = np.array([1, 2, 3, 4, 5, 6])
        segments = np.array([0, 0, 1, 1, 1, 2])
        got = segmented_inclusive_scan(ctx, values, segments)
        assert np.array_equal(got, np.array([1, 3, 3, 7, 12, 6]))

    def test_single_segment_is_plain_scan(self, ctx):
        values = np.arange(10)
        got = segmented_inclusive_scan(ctx, values, np.zeros(10, int))
        assert np.array_equal(got, np.cumsum(values))

    def test_all_singleton_segments(self, ctx):
        values = np.array([5, 6, 7])
        got = segmented_inclusive_scan(ctx, values, np.arange(3))
        assert np.array_equal(got, values)

    def test_empty(self, ctx):
        got = segmented_inclusive_scan(
            ctx, np.array([], dtype=int), np.array([], dtype=int)
        )
        assert got.size == 0

    def test_mismatched_shapes_raise(self, ctx):
        with pytest.raises(ValueError):
            segmented_inclusive_scan(ctx, np.arange(3), np.arange(4))

    def test_unsorted_segments_raise(self, ctx):
        with pytest.raises(ValueError):
            segmented_inclusive_scan(
                ctx, np.arange(3), np.array([1, 0, 1])
            )

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=-50, max_value=50),
            ),
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_against_reference(self, pairs):
        ctx = GpuContext()
        pairs.sort(key=lambda p: p[0])
        segments = np.array([p[0] for p in pairs], dtype=np.int64)
        values = np.array([p[1] for p in pairs], dtype=np.int64)
        got = segmented_inclusive_scan(ctx, values, segments)
        expected = np.zeros_like(values)
        running = {}
        for i, (seg, val) in enumerate(zip(segments, values)):
            running[seg] = running.get(seg, 0) + val
            expected[i] = running[seg]
        assert np.array_equal(got, expected)


class TestSortByKey:
    def test_ascending(self, ctx):
        keys, values = sort_by_key(
            ctx, np.array([3, 1, 2]), np.array([30, 10, 20])
        )
        assert np.array_equal(keys, [1, 2, 3])
        assert np.array_equal(values, [10, 20, 30])

    def test_descending(self, ctx):
        keys, values = sort_by_key(
            ctx, np.array([3, 1, 2]), np.array([30, 10, 20]),
            descending=True,
        )
        assert np.array_equal(keys, [3, 2, 1])
        assert np.array_equal(values, [30, 20, 10])

    def test_stable_on_ties(self, ctx):
        keys, values = sort_by_key(
            ctx, np.array([1, 1, 1]), np.array([0, 1, 2]), descending=True
        )
        assert np.array_equal(values, [0, 1, 2])

    def test_keys_only(self, ctx):
        keys, values = sort_by_key(ctx, np.array([2, 1]))
        assert values is None
        assert np.array_equal(keys, [1, 2])

    def test_charges_four_passes(self, ctx):
        sort_by_key(ctx, np.arange(100))
        # 4 radix passes + 4 digit-histogram scans.
        assert ctx.ledger.total.kernel_launches == 8
