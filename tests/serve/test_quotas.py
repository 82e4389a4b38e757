"""Admission control: typed codes, window rolls, validation."""

import pytest

from repro.serve.protocol import (
    E_QUOTA_CYCLES,
    E_QUOTA_QUEUE,
    E_QUOTA_SESSIONS,
)
from repro.serve.quotas import (
    SERVE_LATENCY_BUCKETS,
    SERVE_LATENCY_OPS,
    SERVE_LATENCY_SLO_SECONDS,
    TenantAccount,
    TenantQuota,
)
from repro.serve.shedding import LoadShedder, ShedPolicy
from repro.obs.metrics import MetricsRegistry, to_prometheus_labeled


class TestQuotaValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sessions": 0},
            {"max_queued_modifiers": 0},
            {"window_cycles": 0.0},
            {"cycle_budget_per_window": -1.0},
        ],
    )
    def test_bad_quota_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)


class TestAdmission:
    def test_session_quota_returns_typed_code(self):
        account = TenantAccount("t", TenantQuota(max_sessions=2))
        assert account.admit_session(1) is None
        assert account.admit_session(2) == E_QUOTA_SESSIONS

    def test_queue_quota_counts_incoming(self):
        account = TenantAccount(
            "t", TenantQuota(max_queued_modifiers=10)
        )
        assert account.admit_submit(8, 2, worker_cycles=0.0) is None
        assert (
            account.admit_submit(8, 3, worker_cycles=0.0)
            == E_QUOTA_QUEUE
        )

    def test_cycle_budget_exhausts_and_rolls(self):
        quota = TenantQuota(
            cycle_budget_per_window=100.0, window_cycles=1000.0
        )
        account = TenantAccount("t", quota)
        assert account.admit_submit(0, 1, worker_cycles=0.0) is None
        account.charge_cycles(150.0)
        assert (
            account.admit_submit(0, 1, worker_cycles=500.0)
            == E_QUOTA_CYCLES
        )
        # Crossing the window boundary resets the spent budget.
        assert account.admit_submit(0, 1, worker_cycles=1500.0) is None

    def test_no_budget_means_no_cycle_rejections(self):
        account = TenantAccount("t", TenantQuota())
        account.charge_cycles(1e18)
        assert account.admit_submit(0, 1, worker_cycles=1e18) is None

    def test_negative_charge_rejected(self):
        account = TenantAccount("t", TenantQuota())
        with pytest.raises(ValueError):
            account.charge_cycles(-1.0)

    def test_metrics_registry_tracks_usage(self):
        account = TenantAccount("t", TenantQuota())
        account.record_request()
        account.record_reject()
        account.record_shed()
        account.charge_cycles(12.5)
        account.publish_usage(live_sessions=2, queued=7)
        snapshot = account.registry.as_dict()
        assert snapshot["serve_tenant_requests_total"] == 1
        assert snapshot["serve_tenant_rejected_total"] == 1
        assert snapshot["serve_tenant_shed_total"] == 1
        assert snapshot["serve_tenant_device_cycles_total"] == 12.5
        assert snapshot["serve_tenant_sessions_live"] == 2
        assert snapshot["serve_tenant_queued_modifiers"] == 7


class TestOpLatencyHistograms:
    def test_every_latency_op_registered(self):
        account = TenantAccount("t", TenantQuota())
        for op in SERVE_LATENCY_OPS:
            metric = account.registry.get(
                f"serve_tenant_op_latency_seconds_{op}"
            )
            assert metric is not None
            assert metric.buckets == SERVE_LATENCY_BUCKETS

    def test_slo_is_an_exact_bucket_bound(self):
        # The dashboard reads "within SLO" straight off one cumulative
        # bucket; that only works while the SLO is a bound.
        assert SERVE_LATENCY_SLO_SECONDS in SERVE_LATENCY_BUCKETS

    def test_observations_are_cumulative(self):
        account = TenantAccount("t", TenantQuota())
        account.observe_op_latency("submit", 0.0004)
        account.observe_op_latency("submit", 0.003)
        account.observe_op_latency("submit", 0.02)
        account.observe_op_latency("submit", 0.4)
        snapshot = account.registry.as_dict()
        base = "serve_tenant_op_latency_seconds_submit"
        assert snapshot[f"{base}_count"] == 4
        assert snapshot[f"{base}_sum"] == pytest.approx(0.4234)
        # Cumulative: each bound counts everything at or below it.
        assert snapshot[f"{base}_bucket_0.0005"] == 1
        assert snapshot[f"{base}_bucket_0.005"] == 2
        assert snapshot[f"{base}_bucket_0.025"] == 3
        assert snapshot[f"{base}_bucket_1.0"] == 4
        assert snapshot[f"{base}_bucket_+Inf"] == 4

    def test_unknown_op_is_a_noop(self):
        account = TenantAccount("t", TenantQuota())
        account.observe_op_latency("hello", 1.0)
        snapshot = account.registry.as_dict()
        assert all(
            snapshot[f"serve_tenant_op_latency_seconds_{op}_count"] == 0
            for op in SERVE_LATENCY_OPS
        )

    def test_labeled_export_carries_tenant_and_le(self):
        acme = TenantAccount("acme", TenantQuota())
        bravo = TenantAccount("bravo", TenantQuota())
        acme.observe_op_latency("flush", 0.01)
        bravo.observe_op_latency("flush", 0.3)
        text = to_prometheus_labeled(
            {"acme": acme.registry, "bravo": bravo.registry},
            label="tenant",
        )
        base = "serve_tenant_op_latency_seconds_flush"
        assert f'{base}_bucket{{tenant="acme",le="0.01"}} 1' in text
        assert f'{base}_bucket{{tenant="acme",le="0.025"}} 1' in text
        assert f'{base}_bucket{{tenant="bravo",le="0.025"}} 0' in text
        assert f'{base}_bucket{{tenant="bravo",le="+Inf"}} 1' in text
        assert f'{base}_count{{tenant="acme"}} 1' in text
        assert f'{base}_sum{{tenant="bravo"}} 0.3' in text
        # One TYPE header for the family, ahead of every sample.
        assert text.count(f"# TYPE {base} histogram") == 1


class TestShedding:
    def _shedder(self, high=10, low=4):
        return LoadShedder(
            ShedPolicy(high_watermark=high, low_watermark=low),
            MetricsRegistry(),
        )

    def test_hysteresis_enters_high_exits_low(self):
        shedder = self._shedder()
        assert shedder.should_shed_submit(9) is False
        assert shedder.should_shed_submit(10) is True
        # Between low and high: still shedding (hysteresis).
        assert shedder.should_shed_submit(7) is True
        assert shedder.should_shed_submit(4) is False
        assert shedder.should_shed_submit(9) is False

    def test_default_low_watermark_is_half(self):
        policy = ShedPolicy(high_watermark=100)
        assert policy.resolved_low_watermark == 50

    def test_low_above_high_rejected(self):
        with pytest.raises(ValueError):
            ShedPolicy(high_watermark=10, low_watermark=11)

    def test_shed_rate_and_counter(self):
        registry = MetricsRegistry()
        shedder = LoadShedder(
            ShedPolicy(
                high_watermark=10, low_watermark=0, rate_window=4
            ),
            registry,
        )
        for backlog in (10, 10, 10, 10):
            shedder.should_shed_submit(backlog)
        snapshot = registry.as_dict()
        assert snapshot["serve_shed_total"] == 4
        assert snapshot["serve_shed_rate"] == 1.0
        assert snapshot["serve_shedding"] == 1
        shedder.should_shed_submit(0)
        snapshot = registry.as_dict()
        assert snapshot["serve_shedding"] == 0
        assert snapshot["serve_shed_rate"] == 0.75
