"""Metrics registry contracts: typing, idempotency, sorted exports."""

from __future__ import annotations

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_monotonic():
    c = Counter("c")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    c.sync(17)
    assert c.value == 17


def test_gauge_moves_both_ways():
    g = Gauge("g")
    g.set(10)
    g.dec(3)
    g.inc()
    assert g.value == 8


def test_histogram_cumulative_buckets_and_quantiles():
    h = Histogram("h", buckets=(1.0, 10.0))
    for v in (0.5, 2.0, 5.0, 100.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(107.5)
    # Cumulative: le=1 sees 1, le=10 sees 3, +Inf sees all 4.
    assert h.buckets == (1.0, 10.0, float("inf"))
    assert h.counts == [1, 3, 4]


def test_histogram_always_inf_terminated():
    h = Histogram("h", buckets=(5.0, 1.0))
    assert h.buckets == (1.0, 5.0, float("inf"))


def test_registry_idempotent_and_type_checked():
    registry = MetricsRegistry()
    first = registry.counter("x_total", "help text")
    again = registry.counter("x_total")
    assert first is again
    with pytest.raises(TypeError):
        registry.gauge("x_total")
    assert "x_total" in registry
    assert len(registry) == 1


def test_as_dict_sorted_regardless_of_registration_order():
    a = MetricsRegistry()
    a.counter("zeta_total").inc(1)
    a.gauge("alpha").set(2)
    b = MetricsRegistry()
    b.gauge("alpha").set(2)
    b.counter("zeta_total").inc(1)
    assert a.as_dict() == b.as_dict()
    assert list(a.as_dict()) == sorted(a.as_dict())


def test_as_dict_flattens_histograms():
    registry = MetricsRegistry()
    h = registry.histogram("lat", buckets=(1.0,))
    h.observe(0.5)
    snapshot = registry.as_dict()
    assert snapshot["lat_count"] == 1
    assert snapshot["lat_sum"] == 0.5
    assert snapshot["lat_bucket_1.0"] == 1
    assert snapshot["lat_bucket_+Inf"] == 1


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.counter("requests_total", "requests seen").inc(3)
    registry.gauge("depth").set(2.5)
    registry.histogram("lat", buckets=(1.0,)).observe(0.25)
    text = registry.to_prometheus()
    assert "# TYPE requests_total counter" in text
    assert "requests_total 3" in text
    assert "# HELP requests_total requests seen" in text
    assert "# TYPE depth gauge" in text
    assert "depth 2.5" in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_count 1" in text
    assert text.endswith("\n")
    assert MetricsRegistry().to_prometheus() == ""


class TestMergeInto:
    def test_counters_and_gauges_merge(self):
        from repro.obs import merge_into

        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("reqs", "h").inc(3)
        a.gauge("depth", "h").set(7)
        b.counter("reqs", "h").inc(4)
        b.counter("only_b", "h").inc(1)
        merged = MetricsRegistry()
        merge_into(merged, a)
        merge_into(merged, b)
        snapshot = merged.as_dict()
        assert snapshot["reqs"] == 7
        assert snapshot["depth"] == 7
        assert snapshot["only_b"] == 1

    def test_histograms_merge_bucketwise(self):
        from repro.obs import merge_into

        a, b = MetricsRegistry(), MetricsRegistry()
        bounds = (1.0, 10.0)
        a.histogram("lat", "h", buckets=bounds).observe(0.5)
        b.histogram("lat", "h", buckets=bounds).observe(5.0)
        merged = MetricsRegistry()
        merge_into(merged, a)
        merge_into(merged, b)
        hist = merged.get("lat")
        assert hist.count == 2
        assert hist.sum == 5.5

    def test_mismatched_buckets_rejected(self):
        from repro.obs import merge_into

        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", "h", buckets=(1.0,)).observe(0.5)
        b.histogram("lat", "h", buckets=(2.0,)).observe(0.5)
        merged = MetricsRegistry()
        merge_into(merged, a)
        with pytest.raises(ValueError, match="bucket"):
            merge_into(merged, b)


class TestLabeledExport:
    def _registries(self):
        from collections import OrderedDict

        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("reqs_total", "requests").inc(3)
        b.counter("reqs_total", "requests").inc(5)
        b.gauge("depth", "queue depth").set(2)
        # Deliberately insertion-ordered b-first: export must sort.
        return OrderedDict((("beta", b), ("alpha", a)))

    def test_help_type_once_sample_per_label(self):
        from repro.obs import to_prometheus_labeled

        text = to_prometheus_labeled(self._registries(), label="tenant")
        assert text.count("# HELP reqs_total") == 1
        assert text.count("# TYPE reqs_total counter") == 1
        assert 'reqs_total{tenant="alpha"} 3' in text
        assert 'reqs_total{tenant="beta"} 5' in text
        # Only beta has the gauge; alpha contributes no sample for it.
        assert 'depth{tenant="beta"} 2' in text
        assert 'depth{tenant="alpha"}' not in text
        # Label values sorted within a metric block.
        assert text.index('reqs_total{tenant="alpha"}') < text.index(
            'reqs_total{tenant="beta"}'
        )

    def test_histogram_labels_ride_with_le(self):
        from repro.obs import to_prometheus_labeled

        a = MetricsRegistry()
        a.histogram("lat", "h", buckets=(1.0,)).observe(0.5)
        text = to_prometheus_labeled({"t0": a}, label="tenant")
        assert 'lat_bucket{tenant="t0",le="1.0"} 1' in text
        assert 'lat_bucket{tenant="t0",le="+Inf"} 1' in text
        assert 'lat_count{tenant="t0"} 1' in text

    def test_cross_registry_type_conflict_rejected(self):
        from repro.obs import to_prometheus_labeled

        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x", "h")
        b.gauge("x", "h")
        with pytest.raises(TypeError):
            to_prometheus_labeled({"a": a, "b": b}, label="tenant")

    def test_label_values_escaped(self):
        from repro.obs import escape_label_value, to_prometheus_labeled

        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        a = MetricsRegistry()
        a.counter("x", "h").inc()
        text = to_prometheus_labeled({'we"ird': a}, label="tenant")
        assert 'x{tenant="we\\"ird"} 1' in text
