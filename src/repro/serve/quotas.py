"""Per-tenant quotas and admission control.

Every tenant the server hosts gets a :class:`TenantAccount`: its quota,
its metrics registry (one scrape label per tenant), and the live usage
the admission checks read.  Admission runs *before* any engine work and
returns a typed error code from :mod:`repro.serve.protocol`, so a
rejected request costs no simulated device cycles and never touches
session state.

Three budgets, all reusing machinery the stream layer already has:

* **sessions** — at most ``max_sessions`` concurrently *live* (not
  evicted) sessions.  Evicted sessions don't count: their state lives
  in the journal, not on a device.
* **queued modifiers** — the sum of the tenant's session ingest-queue
  depths stays under ``max_queued_modifiers``; past it, submits are
  rejected with ``quota-queue`` (the multi-session analogue of one
  session's ``"reject"`` backpressure policy).
* **device cycles per window** — each request's simulated-device cost
  (the session ledger's cycle delta) is charged to the tenant; once a
  window's budget is spent, work-adding requests get ``quota-cycles``
  until the window rolls.  Windows are anchored to the *worker's*
  aggregate cycle clock, so the accounting is deterministic for a given
  request order — no wall time anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import (
    E_QUOTA_CYCLES,
    E_QUOTA_QUEUE,
    E_QUOTA_SESSIONS,
)

#: Ops whose per-tenant serve latency is histogrammed — the closed set
#: of engine-touching wire ops (``hello``/``stats`` are free).
SERVE_LATENCY_OPS = (
    "attach",
    "checkpoint",
    "create",
    "evict",
    "flush",
    "submit",
)

#: Latency bucket upper bounds (seconds).  Chosen around the serve
#: SLO: the dashboard draws its threshold line at
#: :data:`SERVE_LATENCY_SLO_SECONDS`, which is also a bucket bound so
#: "within SLO" is exactly a cumulative bucket read.
SERVE_LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    1.0,
    float("inf"),
)

#: Default per-op latency objective the dashboard visualizes.
SERVE_LATENCY_SLO_SECONDS = 0.025


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    Attributes:
        max_sessions: Concurrent live sessions (evicted ones are free).
        max_queued_modifiers: Total pending modifiers across the
            tenant's session ingest queues.
        cycle_budget_per_window: Simulated device cycles the tenant may
            consume per accounting window; None disables the budget.
        window_cycles: Window length on the worker's aggregate cycle
            clock.
    """

    max_sessions: int = 8
    max_queued_modifiers: int = 4096
    cycle_budget_per_window: Optional[float] = None
    window_cycles: float = 1e9

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.max_queued_modifiers < 1:
            raise ValueError("max_queued_modifiers must be >= 1")
        if self.window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if (
            self.cycle_budget_per_window is not None
            and self.cycle_budget_per_window <= 0
        ):
            raise ValueError(
                "cycle_budget_per_window must be positive (or None)"
            )


class TenantAccount:
    """One tenant's quota, usage, and metrics registry."""

    def __init__(self, name: str, quota: TenantQuota):
        self.name = name
        self.quota = quota
        self.registry = MetricsRegistry()
        self.cycles_total = 0.0
        self._window_index = 0
        self._window_cycles_used = 0.0
        self._requests = self.registry.counter(
            "serve_tenant_requests_total",
            "requests handled for this tenant",
        )
        self._rejected = self.registry.counter(
            "serve_tenant_rejected_total",
            "requests rejected by admission control",
        )
        self._shed = self.registry.counter(
            "serve_tenant_shed_total",
            "requests shed under load pressure",
        )
        self._cycles = self.registry.counter(
            "serve_tenant_device_cycles_total",
            "simulated device cycles charged to this tenant",
        )
        self._sessions_gauge = self.registry.gauge(
            "serve_tenant_sessions_live",
            "live (non-evicted) sessions owned by this tenant",
        )
        self._queued_gauge = self.registry.gauge(
            "serve_tenant_queued_modifiers",
            "pending modifiers across this tenant's ingest queues",
        )
        self._recoveries = self.registry.counter(
            "serve_tenant_recoveries_total",
            "tenant sessions rebuilt from their journal after state "
            "loss (server restart or worker failover)",
        )
        self._recovery_cycles = self.registry.counter(
            "serve_tenant_recovery_replay_cycles_total",
            "simulated device cycles spent replaying this tenant's "
            "journals during recovery",
        )
        self._quarantined_gauge = self.registry.gauge(
            "serve_tenant_quarantined_modifiers",
            "poison modifiers currently quarantined across this "
            "tenant's sessions",
        )
        self._dead_letter_gauge = self.registry.gauge(
            "serve_tenant_dead_letters",
            "permanently rejected modifiers recorded in this tenant's "
            "journals",
        )
        #: Per-op serve latency histograms.  They live in the tenant's
        #: own registry, so the /metrics scrape renders them through
        #: ``to_prometheus_labeled`` with the tenant label attached —
        #: the ``unlabeled-tenant-metric`` lint contract.
        self._op_latency = {}
        for op in SERVE_LATENCY_OPS:
            self._op_latency[op] = self.registry.histogram(
                f"serve_tenant_op_latency_seconds_{op}",
                f"request latency of {op} ops for this tenant "
                "(host seconds, cumulative buckets)",
                buckets=SERVE_LATENCY_BUCKETS,
            )

    # -- bookkeeping ---------------------------------------------------------------

    def record_request(self) -> None:
        self._requests.inc()

    def record_reject(self) -> None:
        self._rejected.inc()

    def record_shed(self) -> None:
        self._shed.inc()

    def observe_op_latency(self, op: str, seconds: float) -> None:
        """Histogram one request's host latency (no-op for ops outside
        :data:`SERVE_LATENCY_OPS`)."""
        histogram = self._op_latency.get(op)
        if histogram is not None:
            histogram.observe(seconds)

    def publish_usage(self, live_sessions: int, queued: int) -> None:
        self._sessions_gauge.set(live_sessions)
        self._queued_gauge.set(queued)

    def record_recovery(self, replay_cycles: float) -> None:
        """Count one journal-rebuild of a tenant session and the
        simulated cycles its replay consumed."""
        self._recoveries.inc()
        if replay_cycles > 0:
            self._recovery_cycles.inc(replay_cycles)

    def publish_resilience(
        self, quarantined: int, dead_letters: int
    ) -> None:
        """Refresh the tenant's quarantine/dead-letter exposure.

        Fed from the registry's per-entry telemetry caches so the
        figures stay current even while every session is evicted."""
        self._quarantined_gauge.set(quarantined)
        self._dead_letter_gauge.set(dead_letters)

    def charge_cycles(self, delta: float) -> None:
        """Attribute ``delta`` simulated device cycles to this tenant."""
        if delta < 0:
            raise ValueError("cycle charge must be non-negative")
        self.cycles_total += delta
        self._window_cycles_used += delta
        self._cycles.inc(delta)

    def roll_window(self, worker_cycles: float) -> None:
        """Reset the window budget when the worker clock crosses a
        window boundary.  Called before each admission check."""
        index = int(worker_cycles // self.quota.window_cycles)
        if index > self._window_index:
            self._window_index = index
            self._window_cycles_used = 0.0

    # -- admission -----------------------------------------------------------------

    def admit_session(self, live_sessions: int) -> Optional[str]:
        """Code rejecting a new session, or None to admit."""
        if live_sessions >= self.quota.max_sessions:
            return E_QUOTA_SESSIONS
        return None

    def admit_submit(
        self, queued: int, incoming: int, worker_cycles: float
    ) -> Optional[str]:
        """Code rejecting an ``incoming``-modifier submit, or None.

        ``queued`` is the tenant's current total ingest-queue depth;
        ``worker_cycles`` the assigned worker's aggregate clock (rolls
        the budget window).
        """
        if queued + incoming > self.quota.max_queued_modifiers:
            return E_QUOTA_QUEUE
        budget = self.quota.cycle_budget_per_window
        if budget is not None:
            self.roll_window(worker_cycles)
            if self._window_cycles_used >= budget:
                return E_QUOTA_CYCLES
        return None
