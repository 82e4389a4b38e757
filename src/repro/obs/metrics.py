"""Typed metrics registry: counters, gauges, and histograms.

The streaming telemetry, scheduler and quarantine publish into a
session's :class:`MetricsRegistry`, the serve layer into its own;
exporters render one registry as a flat dict (eval/JSON), Prometheus
text exposition, or a block in a report.  The registry is deliberately
minimal — a name maps to exactly one typed instrument, re-registering
with the same type returns the existing instrument, and re-registering
with a different type raises — so independent components can share a
registry without coordination.

Exports are *sorted by metric name* (and histogram buckets by bound):
two registries that saw the same updates in different orders serialize
identically, the contract the ``flushes_by_reason`` checkpoint bug
taught us to hold everywhere (see ``StreamTelemetry.as_dict``).

Usage::

    registry = MetricsRegistry()
    flushes = registry.counter("stream_flushes_total", "windows flushed")
    flushes.inc()
    print(registry.to_prometheus())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds (seconds-flavored).
DEFAULT_BUCKETS: tuple = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, float("inf"),
)


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    help: str = ""
    value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        self.value += amount

    def sync(self, value: Number) -> None:
        """Set the absolute value (telemetry snapshot publishing).

        Counters normally only :meth:`inc`; ``sync`` exists for
        components like :class:`~repro.stream.telemetry.StreamTelemetry`
        that own their own monotonic counts and mirror them into a
        registry after the fact.
        """
        self.value = value


@dataclass
class Gauge:
    """A value that can go up and down."""

    name: str
    help: str = ""
    value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount


@dataclass
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an observation lands in every bucket
    whose bound is >= the value, plus ``sum``/``count``.
    """

    name: str
    help: str = ""
    buckets: Sequence[float] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        bounds = sorted(float(b) for b in self.buckets)
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.buckets = tuple(bounds)
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: Number) -> None:
        self.sum += float(value)
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name-keyed store of typed instruments."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def _register(
        self, cls: type, name: str, help: str, **kwargs: object
    ) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        metric = cls(name=name, help=help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict:
        """Flat ``{name: value}`` snapshot, sorted by name.

        Histograms flatten to ``name_sum`` / ``name_count`` plus
        per-bucket ``name_bucket_<le>`` entries.
        """
        out: dict = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[f"{name}_count"] = metric.count
                out[f"{name}_sum"] = metric.sum
                for bound, cnt in zip(metric.buckets, metric.counts):
                    out[f"{name}_bucket_{_format_bound(bound)}"] = cnt
            else:
                out[name] = metric.value
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_format_value(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_format_value(metric.value)}")
            else:
                lines.append(f"# TYPE {name} histogram")
                for bound, cnt in zip(metric.buckets, metric.counts):
                    lines.append(
                        f'{name}_bucket{{le="{_format_bound(bound)}"}} {cnt}'
                    )
                lines.append(f"{name}_sum {_format_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def merge_into(dest: MetricsRegistry, src: MetricsRegistry) -> None:
    """Fold ``src``'s instruments into ``dest`` by name, summing values.

    The serving layer aggregates one scrape per tenant out of several
    per-session registries: counters and gauges add, histograms add
    bucket counts / sum / count (and must agree on bucket bounds).
    Registering a name under two different types — or two bucket
    layouts — raises, mirroring :class:`MetricsRegistry`'s own
    single-type contract.
    """
    for name in sorted(src._metrics):
        metric = src._metrics[name]
        if isinstance(metric, Counter):
            dest.counter(name, metric.help).inc(metric.value)
        elif isinstance(metric, Gauge):
            dest.gauge(name, metric.help).inc(metric.value)
        else:
            merged = dest.histogram(
                name, metric.help, buckets=metric.buckets
            )
            if merged.buckets != metric.buckets:
                raise ValueError(
                    f"histogram {name!r} bucket mismatch: "
                    f"{merged.buckets} vs {metric.buckets}"
                )
            merged.sum += metric.sum
            merged.count += metric.count
            for i, cnt in enumerate(metric.counts):
                merged.counts[i] += cnt


def escape_label_value(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def to_prometheus_labeled(
    registries: "dict[str, MetricsRegistry]", label: str
) -> str:
    """Render several registries as one labeled Prometheus exposition.

    ``registries`` maps a label *value* (e.g. a tenant name) to that
    tenant's registry.  Metrics sharing a name across registries are
    grouped under a single ``# HELP`` / ``# TYPE`` header — required by
    the text format — with one sample per label value, sorted by metric
    name then label value.  A name registered with different instrument
    types in two registries raises :class:`TypeError`.
    """
    by_name: Dict[str, List[tuple]] = {}
    for value in sorted(registries):
        registry = registries[value]
        for name in sorted(registry._metrics):
            by_name.setdefault(name, []).append(
                (value, registry._metrics[name])
            )
    lines: List[str] = []
    for name in sorted(by_name):
        samples = by_name[name]
        first = samples[0][1]
        for _value, metric in samples[1:]:
            if type(metric) is not type(first):
                raise TypeError(
                    f"metric {name!r} registered as "
                    f"{type(first).__name__} and "
                    f"{type(metric).__name__} across labeled registries"
                )
        help_text = next((m.help for _v, m in samples if m.help), "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        if isinstance(first, Counter):
            lines.append(f"# TYPE {name} counter")
        elif isinstance(first, Gauge):
            lines.append(f"# TYPE {name} gauge")
        else:
            lines.append(f"# TYPE {name} histogram")
        for value, metric in samples:
            pair = f'{label}="{escape_label_value(value)}"'
            if isinstance(metric, (Counter, Gauge)):
                lines.append(
                    f"{name}{{{pair}}} {_format_value(metric.value)}"
                )
            else:
                for bound, cnt in zip(metric.buckets, metric.counts):
                    lines.append(
                        f'{name}_bucket{{{pair},le='
                        f'"{_format_bound(bound)}"}} {cnt}'
                    )
                lines.append(
                    f"{name}_sum{{{pair}}} {_format_value(metric.sum)}"
                )
                lines.append(f"{name}_count{{{pair}}} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == float("inf") else repr(bound)


def _format_value(value: Number) -> str:
    if isinstance(value, bool):  # bools are ints; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
