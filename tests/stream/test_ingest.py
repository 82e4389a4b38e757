"""Bounded ingest queue: sequencing, backpressure, recovery requeue."""

import pytest

from repro.graph import EdgeInsert
from repro.stream import IngestQueue, SequencedModifier
from repro.utils import BackpressureError


class TestSequencing:
    def test_offers_assign_monotonic_seqs(self):
        queue = IngestQueue(capacity=8)
        seqs = [queue.offer(EdgeInsert(0, i + 1)) for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert queue.next_seq == 5
        assert queue.depth == 5

    def test_drain_preserves_fifo_order(self):
        queue = IngestQueue(capacity=8)
        mods = [EdgeInsert(0, i + 1) for i in range(4)]
        for mod in mods:
            queue.offer(mod)
        window = queue.drain()
        assert [sm.modifier for sm in window] == mods
        assert [sm.seq for sm in window] == [0, 1, 2, 3]
        assert queue.is_empty()

    def test_drain_with_limit_pops_oldest(self):
        queue = IngestQueue(capacity=8)
        for i in range(5):
            queue.offer(EdgeInsert(0, i + 1))
        window = queue.drain(2)
        assert [sm.seq for sm in window] == [0, 1]
        assert queue.depth == 3

    def test_seq_survives_drain(self):
        queue = IngestQueue(capacity=4)
        queue.offer(EdgeInsert(0, 1))
        queue.drain()
        assert queue.offer(EdgeInsert(0, 2)) == 1


class TestBounds:
    def test_offer_raises_when_full(self):
        queue = IngestQueue(capacity=2)
        queue.offer(EdgeInsert(0, 1))
        queue.offer(EdgeInsert(0, 2))
        assert queue.is_full()
        with pytest.raises(BackpressureError):
            queue.offer(EdgeInsert(0, 3))

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            IngestQueue(capacity=0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            IngestQueue(policy="drop-oldest")


class TestRecoveryPaths:
    def test_requeue_restores_original_seqs(self):
        queue = IngestQueue(capacity=8)
        queue.requeue(10, EdgeInsert(0, 1))
        queue.requeue(12, EdgeInsert(0, 2))
        assert queue.depth == 2
        assert queue.next_seq == 13
        assert [sm.seq for sm in queue.drain()] == [10, 12]

    def test_requeue_out_of_order_rejected(self):
        queue = IngestQueue(capacity=8)
        queue.requeue(5, EdgeInsert(0, 1))
        with pytest.raises(ValueError, match="out of order"):
            queue.requeue(4, EdgeInsert(0, 2))

    def test_reserve_seq_only_advances(self):
        queue = IngestQueue(capacity=4)
        queue.reserve_seq(100)
        queue.reserve_seq(50)  # never goes backwards
        assert queue.offer(EdgeInsert(0, 1)) == 100

    def test_sequenced_modifier_is_frozen(self):
        sm = SequencedModifier(0, EdgeInsert(0, 1))
        with pytest.raises(Exception):
            sm.seq = 9
