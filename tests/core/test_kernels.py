"""The bulk array kernels of :mod:`repro.core.kernels`."""

import numpy as np

from repro.core import kernels


class TestNumpyKernels:
    """Each kernel against a straightforward recomputation."""

    def test_choose_partition_tie_breaks(self):
        counts = np.array([[3, 3, 1], [0, 0, 0]], dtype=np.int64)
        feasible = np.array([True, True, True])
        weights = np.array([10, 4, 4], dtype=np.int64)
        targets, chosen = kernels.choose_partition(counts, feasible, weights)
        # Row 0: tie on count -> lighter partition 1.
        # Row 1: all-zero counts tie -> lightest; 1 and 2 tie on
        # weight -> smaller index 1.
        assert targets.tolist() == [1, 1]
        assert chosen.tolist() == [3, 0]

    def test_choose_partition_infeasible_fallback(self):
        counts = np.array([[5, 2]], dtype=np.int64)
        feasible = np.array([False, False])
        weights = np.array([9, 3], dtype=np.int64)
        targets, chosen = kernels.choose_partition(counts, feasible, weights)
        assert targets.tolist() == [1]
        assert chosen.tolist() == [2]

    def test_feasible_prefix_matches_sequential(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(0, 40))
            targets = rng.integers(0, k, m).astype(np.int64)
            weights = rng.integers(0, 9, m).astype(np.int64)
            pw = rng.integers(0, 30, k).astype(np.int64)
            w_pmax = int(rng.integers(20, 80))
            acc = pw.copy()
            expected = m
            for j in range(m):
                acc[targets[j]] += weights[j]
                if acc.max() > w_pmax:
                    expected = j
                    break
            got = kernels.feasible_prefix(targets, weights, pw, w_pmax, k)
            assert got == expected

    def test_fold_cut_deltas_stays_int64(self):
        flat = np.zeros(9, dtype=np.int64)
        kernels.fold_cut_deltas(
            flat,
            np.array([4], dtype=np.int64),
            np.array([2], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
            np.array([3, 3], dtype=np.int64),
        )
        assert flat.dtype == np.int64
        assert flat[4] == -2 and flat[1] == 6

    def test_apply_move_deltas_matches_loop(self):
        rng = np.random.default_rng(8)
        k, pseudo = 4, 4
        src = rng.integers(-1, k + 1, 50).astype(np.int64)
        dst = rng.integers(-1, k + 1, 50).astype(np.int64)
        w = rng.integers(1, 7, 50).astype(np.int64)
        part_delta, pseudo_delta = kernels.apply_move_deltas(src, dst, w, k, pseudo)
        expect = np.zeros(k, dtype=np.int64)
        expect_pseudo = 0
        for s, d, ww in zip(src, dst, w):
            if 0 <= s < k:
                expect[s] -= ww
            elif s == pseudo:
                expect_pseudo -= ww
            if 0 <= d < k:
                expect[d] += ww
            elif d == pseudo:
                expect_pseudo += ww
        assert np.array_equal(part_delta, expect)
        assert pseudo_delta == expect_pseudo
