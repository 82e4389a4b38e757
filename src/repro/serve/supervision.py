"""Worker supervision: detect dead device workers and fail over.

The pool's failure model is *fail-stop* (the standard model for device
loss): a :class:`~repro.serve.registry.DeviceWorker` that faults never
executes again, and every session resident on it loses its in-memory
engine state.  Nothing durable is lost — each session's journal holds
its last checkpoint plus the journaled modifier suffix — so failover is
recovery: rebuild each lost session on a surviving worker via
:meth:`SessionRegistry.restore` and keep serving.

Supervisor state machine (per worker)::

            fault observed / injected
    ALIVE ──────────────────────────────> DEAD (unswept)
                                            │ sweep() / fail_worker()
                                            ▼
                                       DEAD (drained)
      sessions dropped + restored on survivors, watermarks tightened

A worker is marked dead either explicitly (:meth:`fail_worker`, the
chaos path) or by observation: the server wraps unexpected execution
errors as :class:`~repro.utils.errors.WorkerFault` and records the
fault on the worker; the next :meth:`sweep` — which the server runs
after every dispatch — notices and drains it.  Sweeping is idempotent
and deterministic: entries are drained in sorted key order and placed
round-robin over the sorted survivors.

Degradation is graceful, never corrupting: while any worker is dead
the supervisor reports *degraded* (surfaced as HTTP 503 on
``/healthz``) and scales the :class:`~repro.serve.shedding.LoadShedder`
watermarks by the alive fraction, so admission tightens to what the
shrunken pool can actually carry.

Everything the supervisor does is observable: ``serve_worker_*``
gauges/counters for pool health and ``serve_recovery_*`` counters for
failover volume and replay cost land in the server's metrics registry;
per-tenant recovery counts flow through the ``on_recovery`` callback
(the server wires it to each :class:`~repro.serve.quotas.
TenantAccount`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.serve.registry import (
    DeviceWorker,
    SessionEntry,
    SessionRegistry,
)
from repro.serve.shedding import LoadShedder
from repro.utils.errors import ReproError, ServeError
from repro.serve.protocol import E_WORKER_FAILED


class WorkerSupervisor:
    """Health authority for the device-worker pool."""

    def __init__(
        self,
        registry: SessionRegistry,
        metrics: MetricsRegistry,
        shedder: Optional[LoadShedder] = None,
        on_recovery: Optional[
            Callable[[SessionEntry, float], None]
        ] = None,
        on_worker_dead: Optional[
            Callable[[DeviceWorker], None]
        ] = None,
    ):
        self.registry = registry
        self.shedder = shedder
        self.on_recovery = on_recovery
        #: Fired once per dead worker, before its sessions drain — the
        #: server's flight recorder dumps its ring here so the black
        #: box captures the pool state *at* the failure, not after the
        #: failover already rewrote it.
        self.on_worker_dead = on_worker_dead
        #: Workers marked dead whose sessions were already drained.
        self._drained: set = set()
        self._alive_gauge = metrics.gauge(
            "serve_workers_alive", "device workers still executing"
        )
        self._dead_gauge = metrics.gauge(
            "serve_workers_dead", "device workers lost to faults"
        )
        self._failures = metrics.counter(
            "serve_worker_failures_total",
            "device workers declared dead",
        )
        self._failovers = metrics.counter(
            "serve_recovery_sessions_total",
            "sessions restored onto survivors after a worker death",
        )
        self._replay_cycles = metrics.counter(
            "serve_recovery_replay_cycles_total",
            "simulated device cycles spent replaying journals during "
            "failover",
        )
        self._publish_pool()

    # -- queries -------------------------------------------------------------------

    @property
    def alive_workers(self) -> List[DeviceWorker]:
        return [w for w in self.registry.workers if w.alive]

    @property
    def dead_workers(self) -> List[DeviceWorker]:
        return [w for w in self.registry.workers if not w.alive]

    @property
    def degraded(self) -> bool:
        """True while any worker is dead (the pool is browned out)."""
        return bool(self.dead_workers)

    def status(self) -> dict:
        """Wire-friendly pool health (the ``/healthz`` payload)."""
        return {
            "degraded": self.degraded,
            "workers_alive": len(self.alive_workers),
            "workers_dead": len(self.dead_workers),
            "dead": [
                {"index": w.index, "fault": w.fault}
                for w in self.dead_workers
            ],
        }

    # -- failure handling ----------------------------------------------------------

    def fail_worker(
        self, index: int, reason: str
    ) -> List[SessionEntry]:
        """Declare worker ``index`` dead and fail its sessions over.

        Idempotent; returns the entries restored by this call.
        """
        if not 0 <= index < len(self.registry.workers):
            raise ServeError(
                f"no device worker {index}", code=E_WORKER_FAILED
            )
        worker = self.registry.workers[index]
        if worker.alive:
            worker.fail(reason)
            self._failures.inc()
        return self.sweep()

    def sweep(self) -> List[SessionEntry]:
        """Drain every dead-but-undrained worker; returns restored
        entries.  Safe to call after every dispatch — it is a no-op
        while the pool is healthy."""
        restored: List[SessionEntry] = []
        for worker in self.registry.workers:
            if worker.alive or worker.index in self._drained:
                continue
            if self.on_worker_dead is not None:
                self.on_worker_dead(worker)
            restored.extend(self._drain(worker))
            self._drained.add(worker.index)
        if restored or self._publish_pool():
            self._tighten()
        return restored

    def _drain(self, worker: DeviceWorker) -> List[SessionEntry]:
        """Move every session off a dead worker, journal-first."""
        survivors = self.alive_workers
        if not survivors:
            raise ServeError(
                "every device worker is dead; cannot fail over",
                code=E_WORKER_FAILED,
            )
        restored: List[SessionEntry] = []
        entries = self.registry.entries_on_worker(worker)
        for position, entry in enumerate(entries):
            target = survivors[position % len(survivors)]
            if not entry.live:
                # Evicted sessions hold no device state to lose: just
                # re-point at a survivor; attach revives them lazily.
                entry.worker = target
                continue
            # Fail-stop: in-memory state is gone, drop without
            # checkpointing, then rebuild from the journal.  A journal
            # that cannot be read leaves the session evicted on its
            # survivor, where its next op answers the error typed.
            self.registry.drop_lost(entry)
            try:
                self.registry.restore(entry, target)
            except (ReproError, OSError):
                continue
            replay = entry.charged_cycles  # fresh ledger == replay cost
            self._failovers.inc()
            if replay > 0:
                self._replay_cycles.inc(replay)
            if self.on_recovery is not None:
                self.on_recovery(entry, replay)
            restored.append(entry)
        return restored

    # -- degradation ---------------------------------------------------------------

    def _publish_pool(self) -> bool:
        alive = len(self.alive_workers)
        dead = len(self.dead_workers)
        self._alive_gauge.set(alive)
        self._dead_gauge.set(dead)
        return dead > 0

    def _tighten(self) -> None:
        if self.shedder is None:
            return
        total = len(self.registry.workers)
        alive = len(self.alive_workers)
        if alive:
            self.shedder.set_capacity_fraction(alive / total)
