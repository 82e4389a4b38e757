"""Warp primitive semantics (CUDA-conformant behavior)."""

import numpy as np
import pytest

from repro.gpusim import FULL_MASK, WARP_SIZE, GpuContext, Warp, ffs, popc


@pytest.fixture
def warp(ctx):
    return Warp(ctx)


class TestFfs:
    def test_zero_returns_zero(self):
        assert ffs(0) == 0

    def test_bit_zero_is_position_one(self):
        assert ffs(0b1) == 1

    def test_least_significant_wins(self):
        assert ffs(0b1010_1000) == 4

    def test_high_bit(self):
        assert ffs(1 << 31) == 32

    def test_paper_slot_convention(self):
        # The paper computes slot = __ffs(ballot) - 1: no empty slot -> -1.
        assert ffs(0) - 1 == -1
        assert ffs(0b100) - 1 == 2


class TestPopc:
    def test_zero(self):
        assert popc(0) == 0

    def test_full_mask(self):
        assert popc(FULL_MASK) == 32

    def test_mixed(self):
        assert popc(0b1011) == 3

    def test_truncates_to_32_bits(self):
        assert popc((1 << 40) | 0b11) == 2


class TestBallotSync:
    def test_all_true(self, warp):
        assert warp.ballot_sync(FULL_MASK, np.ones(32, bool)) == FULL_MASK

    def test_all_false(self, warp):
        assert warp.ballot_sync(FULL_MASK, np.zeros(32, bool)) == 0

    def test_single_lane(self, warp):
        pred = np.zeros(32, bool)
        pred[7] = True
        assert warp.ballot_sync(FULL_MASK, pred) == 1 << 7

    def test_mask_excludes_lanes(self, warp):
        pred = np.ones(32, bool)
        mask = 0b1111
        assert warp.ballot_sync(mask, pred) == 0b1111

    def test_wrong_shape_raises(self, warp):
        with pytest.raises(ValueError):
            warp.ballot_sync(FULL_MASK, np.ones(16, bool))

    def test_charges_one_instruction(self, ctx):
        warp = Warp(ctx)
        before = ctx.ledger.total.warp_instructions
        warp.ballot_sync(FULL_MASK, np.zeros(32, bool))
        assert ctx.ledger.total.warp_instructions == before + 1

    def test_ballot_then_ffs_finds_first_empty(self, warp):
        # The Algorithm 1 idiom: first lane whose slot is empty.
        slots = np.arange(32)
        empty = slots >= 29  # lanes 29..31 empty
        mask = warp.ballot_sync(FULL_MASK, empty)
        assert ffs(mask) - 1 == 29


class TestAnyAllSync:
    def test_any_true(self, warp):
        pred = np.zeros(32, bool)
        pred[31] = True
        assert warp.any_sync(FULL_MASK, pred)

    def test_any_false(self, warp):
        assert not warp.any_sync(FULL_MASK, np.zeros(32, bool))

    def test_any_respects_mask(self, warp):
        pred = np.zeros(32, bool)
        pred[31] = True
        assert not warp.any_sync(0x7FFFFFFF, pred)


class TestShflReduce:
    def test_reduce_min(self, warp):
        values = np.arange(32) + 7
        assert warp.reduce_min_sync(FULL_MASK, values) == 7

    def test_reduce_min_masked(self, warp):
        values = np.arange(32)
        assert warp.reduce_min_sync(0xFFFF0000, values) == 16


class TestLoadStore:
    def test_load_gathers(self, warp):
        arr = np.arange(100)
        got = warp.load(arr, np.arange(32) + 10)
        assert np.array_equal(got, np.arange(32) + 10)

    def test_coalesced_load_is_one_transaction(self, ctx):
        warp = Warp(ctx)
        arr = np.arange(64)
        before = ctx.ledger.total.transactions
        warp.load(arr, np.arange(32))
        assert ctx.ledger.total.transactions == before + 1

    def test_scattered_load_is_many_transactions(self, ctx):
        warp = Warp(ctx)
        arr = np.zeros(32 * 64, dtype=np.int64)
        before = ctx.ledger.total.transactions
        warp.load(arr, np.arange(32) * 64)  # every index a new segment
        assert ctx.ledger.total.transactions == before + 32

    def test_store_scatters(self, warp):
        arr = np.zeros(64, dtype=np.int64)
        warp.store(arr, np.arange(32), np.arange(32) + 1)
        assert np.array_equal(arr[:32], np.arange(32) + 1)
        assert np.all(arr[32:] == 0)

    def test_lane_id_is_identity(self, warp):
        assert np.array_equal(warp.lane_id, np.arange(WARP_SIZE))
