"""Load shedding: protect the shared devices when demand outruns them.

Quotas are per-tenant fairness; shedding is *global* survival.  The
pressure signal is the total backlog across every live session's ingest
queue — the work the simulated devices have accepted but not yet
executed.  When the backlog crosses the policy's high watermark the
server stops accepting work-*adding* requests (``submit``) with the
typed ``shed-overload`` rejection, while work-*draining* requests
(``flush``, ``checkpoint``, ``evict``) always pass — shedding that
blocked drains could never recover.

Hysteresis: shedding starts at ``high_watermark`` and stops only once
the backlog falls to ``low_watermark``, so the server doesn't flap
accept/reject on every request at the boundary.  Both thresholds are
counts of queued modifiers, making the whole mechanism deterministic
for a given request order.

Shed responses are retryable by contract
(:data:`repro.serve.protocol.RETRYABLE_CODES`): a client that backs
off and resubmits converges to the same partition it would have gotten
without the shed, because rejection happens before any engine state is
touched — `tools/serve_gate.py` proves this bit-identically.

Brownout: when device workers die, the surviving pool's capacity
shrinks; :meth:`LoadShedder.set_capacity_fraction` scales the
effective watermarks by the alive fraction so shedding tightens
proportionally (graceful degradation) instead of letting the smaller
pool drown under the same backlog the full pool could carry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class ShedPolicy:
    """Backlog thresholds, in queued modifiers across all sessions.

    Attributes:
        high_watermark: Backlog at (or above) which submits are shed.
        low_watermark: Backlog at which shedding stops; defaults to
            half the high watermark when None.
        rate_window: Number of recent submit decisions over which the
            ``serve_shed_rate`` gauge is computed.
    """

    high_watermark: int = 16384
    low_watermark: "int | None" = None
    rate_window: int = 128

    def __post_init__(self) -> None:
        if self.high_watermark < 1:
            raise ValueError("high_watermark must be >= 1")
        low = self.resolved_low_watermark
        if not (0 <= low <= self.high_watermark):
            raise ValueError(
                "low_watermark must be in [0, high_watermark]"
            )
        if self.rate_window < 1:
            raise ValueError("rate_window must be >= 1")

    @property
    def resolved_low_watermark(self) -> int:
        if self.low_watermark is not None:
            return self.low_watermark
        return self.high_watermark // 2


class LoadShedder:
    """Hysteresis gate over the global backlog, with a shed-rate metric."""

    def __init__(
        self, policy: ShedPolicy, registry: MetricsRegistry
    ):
        self.policy = policy
        self._shedding = False
        self._capacity_fraction = 1.0
        self._decisions: deque = deque(maxlen=policy.rate_window)
        self._shed_counter = registry.counter(
            "serve_shed_total",
            "submit requests shed under backlog pressure",
        )
        self._shedding_gauge = registry.gauge(
            "serve_shedding",
            "1 while the server is in the shedding state",
        )
        self._rate_gauge = registry.gauge(
            "serve_shed_rate",
            "shed fraction of recent submit decisions",
        )
        self._backlog_gauge = registry.gauge(
            "serve_backlog_modifiers",
            "queued modifiers across all live sessions",
        )
        self._capacity_gauge = registry.gauge(
            "serve_capacity_fraction",
            "alive fraction of the device pool scaling the watermarks",
        )
        self._capacity_gauge.set(1.0)

    @property
    def shedding(self) -> bool:
        return self._shedding

    def set_capacity_fraction(self, fraction: float) -> None:
        """Scale the effective watermarks to the alive device fraction.

        Called by the worker supervisor on every failure/failover, so a
        brownout tightens admission *before* the shrunken pool is
        already saturated.  ``fraction`` is clamped to (0, 1]; the
        effective watermarks never drop below 1.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("capacity fraction must be in (0, 1]")
        self._capacity_fraction = fraction
        self._capacity_gauge.set(fraction)

    @property
    def effective_high_watermark(self) -> int:
        return max(
            1,
            int(self.policy.high_watermark * self._capacity_fraction),
        )

    @property
    def effective_low_watermark(self) -> int:
        return min(
            int(
                self.policy.resolved_low_watermark
                * self._capacity_fraction
            ),
            self.effective_high_watermark,
        )

    def observe_backlog(self, backlog: int) -> None:
        """Update the hysteresis state from the current global backlog."""
        self._backlog_gauge.set(backlog)
        if self._shedding:
            if backlog <= self.effective_low_watermark:
                self._shedding = False
        elif backlog >= self.effective_high_watermark:
            self._shedding = True
        self._shedding_gauge.set(int(self._shedding))

    def should_shed_submit(self, backlog: int) -> bool:
        """Decide one submit; updates state, counters, and the rate."""
        self.observe_backlog(backlog)
        shed = self._shedding
        self._decisions.append(shed)
        if shed:
            self._shed_counter.inc()
        self._rate_gauge.set(
            sum(1 for d in self._decisions if d) / len(self._decisions)
        )
        return shed
