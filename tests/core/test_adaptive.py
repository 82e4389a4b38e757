"""Adaptive hybrid partitioner (the Section VI.C fallback policy)."""

import hashlib

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveIGKway
from repro.eval.workloads import TraceConfig, generate_trace
from repro.graph import EdgeInsert, ModifierBatch, circuit_graph
from repro.partition import PartitionConfig


@pytest.fixture
def adaptive(small_circuit):
    partitioner = AdaptiveIGKway(
        small_circuit, PartitionConfig(k=2, seed=2)
    )
    partitioner.full_partition()
    return partitioner


class TestTriggers:
    def test_small_batches_stay_incremental(self, adaptive):
        report = adaptive.apply(ModifierBatch([EdgeInsert(0, 250)]))
        assert not report.used_fallback
        assert report.fallback_reason is None
        assert adaptive.fallbacks_taken == 0

    def test_big_batch_triggers_fallback(self, small_circuit):
        adaptive = AdaptiveIGKway(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            batch_threshold=0.05,
        )
        adaptive.full_partition()
        # 5% of 300 vertices = 15 modifiers.
        trace = generate_trace(
            small_circuit,
            TraceConfig(iterations=1, modifiers_per_iteration=30, seed=4),
        )
        report = adaptive.apply(trace[0])
        assert report.used_fallback
        assert "batch" in report.fallback_reason
        assert adaptive.fallbacks_taken == 1

    def test_volume_accumulates_until_fallback(self, small_circuit):
        adaptive = AdaptiveIGKway(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            volume_threshold=0.2,
            batch_threshold=0.15,
        )
        adaptive.full_partition()
        trace = generate_trace(
            small_circuit,
            TraceConfig(iterations=10, modifiers_per_iteration=20, seed=4),
        )
        fallback_iterations = []
        for index, batch in enumerate(trace):
            report = adaptive.apply(batch)
            if report.used_fallback:
                fallback_iterations.append(index)
        # 20 per iteration vs threshold 0.2 * 300 = 60 -> every ~3rd.
        assert fallback_iterations
        assert fallback_iterations[0] in (1, 2, 3)
        # The counter resets after each fallback.
        assert adaptive.modifiers_since_full < 60

    def test_fallback_resets_volume(self, small_circuit):
        adaptive = AdaptiveIGKway(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            volume_threshold=0.1,
        )
        adaptive.full_partition()
        trace = generate_trace(
            small_circuit,
            TraceConfig(iterations=2, modifiers_per_iteration=30, seed=4),
        )
        first = adaptive.apply(trace[0])
        assert first.used_fallback
        assert adaptive.modifiers_since_full == 0

    def test_invalid_thresholds_rejected(self, small_circuit):
        with pytest.raises(ValueError):
            AdaptiveIGKway(
                small_circuit, PartitionConfig(k=2), volume_threshold=0.0
            )
        with pytest.raises(ValueError):
            AdaptiveIGKway(
                small_circuit, PartitionConfig(k=2), drift_threshold=1.0
            )


class TestFallbackQuality:
    def test_fallback_restores_reference_cut(self, small_circuit):
        adaptive = AdaptiveIGKway(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            batch_threshold=0.05,
        )
        adaptive.full_partition()
        trace = generate_trace(
            small_circuit,
            TraceConfig(iterations=1, modifiers_per_iteration=40, seed=4),
        )
        report = adaptive.apply(trace[0])
        assert report.used_fallback
        # After the fallback the reference cut tracks the fresh FGP.
        assert adaptive.reference_cut == report.iteration.cut
        assert report.iteration.balanced
        adaptive.validate()

    def test_fallback_reports_cut_maintenance(self):
        # The incremental half of a fallback iteration charges the
        # cut_maintenance section; the report must carry that time.
        csr = circuit_graph(600, 1.3, seed=1)
        adaptive = AdaptiveIGKway(
            csr, PartitionConfig(k=4), batch_threshold=0.05
        )
        adaptive.full_partition()
        trace = generate_trace(
            csr,
            TraceConfig(iterations=1, modifiers_per_iteration=40, seed=3),
        )
        report = adaptive.apply(trace[0])
        assert report.used_fallback
        charged = adaptive.inner.ctx.ledger.seconds("cut_maintenance")
        assert charged > 0.0
        assert report.iteration.cut_maintenance_seconds == pytest.approx(
            charged, rel=1e-12
        )

    def test_partition_consistent_after_fallback(self, small_circuit):
        adaptive = AdaptiveIGKway(
            small_circuit,
            PartitionConfig(k=4, seed=2),
            batch_threshold=0.02,
        )
        adaptive.full_partition()
        trace = generate_trace(
            small_circuit,
            TraceConfig(iterations=3, modifiers_per_iteration=25, seed=5),
        )
        for batch in trace:
            adaptive.apply(batch)
        adaptive.validate()
        labels = adaptive.partition[
            adaptive.graph.active_vertices()
        ]
        assert labels.min() >= 0
        assert labels.max() < 4

    def test_incremental_path_unchanged(self, small_circuit):
        """With huge thresholds the adaptive wrapper is pure iG-kway."""
        from repro import IGKway

        trace = generate_trace(
            small_circuit,
            TraceConfig(iterations=3, modifiers_per_iteration=15, seed=6),
        )
        adaptive = AdaptiveIGKway(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            volume_threshold=100.0,
            batch_threshold=100.0,
            drift_threshold=1000.0,
        )
        adaptive.full_partition()
        plain = IGKway(small_circuit, PartitionConfig(k=2, seed=2))
        plain.full_partition()
        for batch in trace:
            a = adaptive.apply(batch)
            b = plain.apply(batch)
            assert not a.used_fallback
            assert a.iteration.cut == b.cut
        assert np.array_equal(adaptive.partition, plain.partition)


def _nonedge_batch(csr, count, offset=0):
    """A batch of exactly ``count`` valid edge inserts for ``csr``."""
    from repro.graph import HostGraph

    host = HostGraph.from_csr(csr)
    mods = []
    n = csr.num_vertices
    u = 0
    stride = 101 + offset
    while len(mods) < count:
        v = (u + stride) % n
        if u != v and not host.has_edge(u, v):
            mods.append(EdgeInsert(u, v))
            host.apply(mods[-1])
        u = (u + 1) % n
        stride += 1
    return ModifierBatch(mods)


class TestTriggerBoundaries:
    """The exact comparison semantics at each threshold."""

    def test_batch_exactly_at_threshold_fires(self, small_circuit):
        # batch_threshold is inclusive: len(batch) >= threshold * |V|.
        adaptive = AdaptiveIGKway(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            batch_threshold=0.05,
        )
        adaptive.full_partition()
        n = adaptive.graph.num_active_vertices()
        assert n == 300
        report = adaptive.apply(_nonedge_batch(small_circuit, 15))
        assert report.used_fallback
        assert "batch" in report.fallback_reason

    def test_batch_one_below_threshold_does_not_fire(
        self, small_circuit
    ):
        adaptive = AdaptiveIGKway(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            batch_threshold=0.05,
        )
        adaptive.full_partition()
        report = adaptive.apply(_nonedge_batch(small_circuit, 14))
        assert not report.used_fallback

    def test_volume_exactly_at_threshold_fires(self, small_circuit):
        # volume trigger is inclusive too: pending >= threshold * |V|.
        adaptive = AdaptiveIGKway(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            volume_threshold=0.05,
            batch_threshold=0.5,
        )
        adaptive.full_partition()
        a = adaptive.apply(_nonedge_batch(small_circuit, 10))
        assert not a.used_fallback
        b = adaptive.apply(_nonedge_batch(small_circuit, 5, offset=60))
        assert b.used_fallback
        assert "since last FGP" in b.fallback_reason

    def _cut_after(self, csr, batch):
        """Deterministic probe: the incremental cut this batch lands on
        when no trigger interferes."""
        probe = AdaptiveIGKway(csr, PartitionConfig(k=2, seed=2))
        probe.full_partition()
        probe.reference_cut = None  # disable the drift check entirely
        return probe.apply(batch).iteration.cut

    def test_drift_exactly_at_threshold_does_not_fire(
        self, small_circuit
    ):
        # The drift trigger is strict: cut > threshold * reference, so a
        # cut landing exactly on the threshold stays incremental.
        batch = _nonedge_batch(small_circuit, 8)
        cut = self._cut_after(small_circuit, batch)
        if cut % 2:  # need an even cut for an exact 2.0x reference
            batch = _nonedge_batch(small_circuit, 9, offset=30)
            cut = self._cut_after(small_circuit, batch)
        assert cut % 2 == 0, "probe batches should yield an even cut"

        adaptive = AdaptiveIGKway(
            small_circuit, PartitionConfig(k=2, seed=2),
            drift_threshold=2.0,
        )
        adaptive.full_partition()
        adaptive.reference_cut = cut // 2  # cut == 2.0 * reference
        report = adaptive.apply(batch)
        assert report.iteration.cut == cut
        assert not report.used_fallback

    def test_drift_just_past_threshold_fires(self, small_circuit):
        batch = _nonedge_batch(small_circuit, 8)
        cut = self._cut_after(small_circuit, batch)
        adaptive = AdaptiveIGKway(
            small_circuit, PartitionConfig(k=2, seed=2),
            drift_threshold=2.0,
        )
        adaptive.full_partition()
        adaptive.reference_cut = cut // 2 - 1  # cut > 2.0 * reference
        report = adaptive.apply(batch)
        assert report.used_fallback
        assert "drifted" in report.fallback_reason


class TestFromInner:
    """``AdaptiveIGKway.restore`` wraps a restored inner partitioner."""

    def test_wraps_restored_partitioner(self, adaptive):
        adaptive.apply(ModifierBatch([EdgeInsert(0, 250)]))
        adaptive.batch_threshold = 0.2
        meta = adaptive.as_meta()
        restored = AdaptiveIGKway.restore(adaptive.inner, meta)
        assert restored.inner is adaptive.inner
        assert restored.as_meta() == meta
        assert restored.batch_threshold == 0.2
        assert restored.modifiers_since_full == 1
        report = restored.apply(ModifierBatch([EdgeInsert(0, 251)]))
        assert not report.used_fallback

    def test_missing_keys_take_constructor_defaults(self, adaptive):
        restored = AdaptiveIGKway.restore(adaptive.inner, {})
        fresh = AdaptiveIGKway(None, adaptive.config)
        assert restored.as_meta() == fresh.as_meta()

    def test_invalid_thresholds_rejected(self, adaptive):
        with pytest.raises(ValueError):
            AdaptiveIGKway.restore(adaptive.inner, {"drift_threshold": 1.0})
        with pytest.raises(ValueError):
            AdaptiveIGKway.restore(adaptive.inner, {"volume_threshold": 0.0})


def _digest(labels):
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    ).hexdigest()


class TestFullRebuild:
    def test_pinned_rebuild_and_next_batch(self):
        """The escalation rebuild compacts the live graph (weighted, with
        deleted and re-inserted IDs, gamma=0) into the same fresh pool
        and partition as the per-vertex host rebuild it replaced, and
        the next batch reports the same cut and costs."""
        csr = circuit_graph(400, 1.4, seed=5)
        adaptive = AdaptiveIGKway(csr, PartitionConfig(k=4, gamma=0, seed=5))
        adaptive.full_partition()
        trace = generate_trace(
            csr,
            TraceConfig(
                iterations=7,
                modifiers_per_iteration=(20, 40),
                edge_weight_range=(1, 5),
                vertex_weight_range=(1, 4),
                seed=5,
            ),
        )
        for batch in trace[:6]:
            adaptive.apply(batch)

        report = adaptive.repartition(compact=True)
        graph, ledger = adaptive.graph, adaptive.ctx.ledger.total
        assert (report.cut, report.balanced, report.num_levels) == (72, True, 1)
        assert report.seconds == 0.034801898333333324
        assert (graph.capacity, graph.pool_buckets) == (614, 615)
        assert graph.num_buckets_used == 409
        assert (ledger.warp_instructions, ledger.transactions) == (
            615150,
            84576,
        )
        assert _digest(adaptive.partition) == (
            "1c012cf323385f7060f7a3e33ad24fc41aa7b8f06bf0459649c3382c76931f0b"
        )
        graph.validate()

        nxt = adaptive.apply(trace[6])
        ledger = adaptive.ctx.ledger.total
        assert not nxt.used_fallback
        assert nxt.iteration.cut == 85
        assert nxt.iteration.modification_seconds == 7.880000000000186e-05
        assert nxt.iteration.partitioning_seconds == 0.0009694882154882345
        # The rebuild installs a live cut accumulator, so the next batch
        # pays its cut-update kernel whether or not the cut was read.
        assert nxt.iteration.cut_maintenance_seconds == 6.413333333326939e-06
        assert (ledger.warp_instructions, ledger.transactions) == (
            630158,
            85727,
        )
        assert _digest(adaptive.partition) == (
            "820c19755dca1e2af5b9d357e8bb6aa0ae9d3fa30e33c7d55a00234782e386ba"
        )
