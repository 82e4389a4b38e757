"""Session registry: tenant-scoped session lifecycle over shared devices.

The registry owns every hosted :class:`~repro.stream.session.
StreamSession` and the mapping onto the worker pool of simulated
devices.  It is deliberately synchronous — a pure state machine the
asyncio server drives — so the whole lifecycle is unit-testable without
sockets or an event loop.

Lifecycle::

    create ──> live ──submit/flush/checkpoint──> live
                │  ▲
          evict │  │ attach (StreamSession.recover, transparent)
                ▼  │
              evicted (journal only, no device state)

Every session is journaled under ``data_dir/<tenant>/<session>/``, and
that directory's checkpoint is the session's only durable record: it
carries what the registry must know of the session after a crash (its
creation index, origin trace and settled lifetime cycles), so a crash
between two writes can never leave the two disagreeing.  **Evict** is
cheap: :meth:`StreamSession.suspend` checkpoints (including
the logged-but-unflushed queue suffix) and drops the in-memory engine
state; a later **attach** — or any op routed at an evicted session —
recovers it bit-identically via :meth:`StreamSession.recover`.  Idle
eviction runs the same path from a deterministic op-count clock: a
session untouched for ``idle_evict_after_ops`` registry operations is
suspended on the next sweep.

Device sharing: each :class:`DeviceWorker` models one simulated GPU.
Sessions keep private :class:`~repro.gpusim.context.GpuContext`\\ s
(device *state* is per-session — exactly what makes tenant partitions
bit-identical to standalone runs), while the worker serializes
execution and owns the cycle accounting: every operation's ledger
delta is charged to ``(worker, tenant)``, and the per-tenant charges
sum exactly to the worker total — the attribution invariant
``tools/serve_gate.py`` enforces.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.generators import (
    circuit_graph,
    community_graph,
    mesh_graph_2d,
    random_graph,
)
from repro.partition.config import PartitionConfig
from repro.stream.journal import StreamJournal, fsync_directory
from repro.stream.scheduler import SchedulerConfig, ledger_cycles
from repro.stream.session import StreamSession
from repro.utils.errors import JournalError, ReproError, ServeError
from repro.serve.protocol import (
    E_BAD_REQUEST,
    E_SESSION_EXISTS,
    E_UNKNOWN_SESSION,
    E_WORKER_FAILED,
)

#: Graph generators a ``create`` request may name.  Closed set: the
#: wire protocol must not become an arbitrary-code front door.
GRAPH_GENERATORS = {
    "circuit": circuit_graph,
    "community": community_graph,
    "mesh2d": mesh_graph_2d,
    "random": random_graph,
}


#: A tenant or session name: one path component under ``data_dir``,
#: 1-64 characters of ``[A-Za-z0-9._-]`` that do not start with ``.``
#: (so never ``.`` or ``..``).
_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,63}")


def check_name(kind: str, value) -> None:
    """Raise ``bad-request`` unless ``value`` is a valid ``kind``
    (tenant or session) name; checked before anything is created for
    it, on disk or in memory."""
    if not isinstance(value, str) or not _NAME.fullmatch(value):
        raise ServeError(
            f"{kind} name {value!r} must be 1-64 characters "
            "of [A-Za-z0-9._-] not starting with '.'",
            code=E_BAD_REQUEST,
        )


def build_graph(spec: dict):
    """Construct the CSR graph a ``create`` request describes.

    ``spec`` is ``{"generator": <name>, "args": {...}}`` with the
    generator drawn from :data:`GRAPH_GENERATORS`.  Specs are
    deterministic by construction (every generator is seeded), which is
    what lets the gate rebuild the identical graph for its standalone
    reference runs.
    """
    if not isinstance(spec, dict):
        raise ServeError(
            "graph spec must be an object", code=E_BAD_REQUEST
        )
    name = spec.get("generator")
    factory = GRAPH_GENERATORS.get(name)
    if factory is None:
        raise ServeError(
            f"unknown graph generator {name!r} "
            f"(expected one of {sorted(GRAPH_GENERATORS)})",
            code=E_BAD_REQUEST,
        )
    args = spec.get("args", {})
    if not isinstance(args, dict):
        raise ServeError(
            "graph spec args must be an object", code=E_BAD_REQUEST
        )
    try:
        return factory(**args)
    except (TypeError, ValueError) as err:
        raise ServeError(
            f"graph generator {name!r} rejected args: {err}",
            code=E_BAD_REQUEST,
        ) from err


def partition_sha256(partition: np.ndarray) -> str:
    """SHA-256 of the raw partition label array (bit-identity witness)."""
    return hashlib.sha256(
        np.ascontiguousarray(partition).tobytes()
    ).hexdigest()


class DeviceWorker:
    """One simulated device of the shared pool.

    The server runs each op to completion on its event loop, so a
    worker executes one kernel stream at a time without a lock; the
    cycle counters are the device's aggregate clock and its per-tenant
    attribution.
    """

    def __init__(self, index: int):
        self.index = index
        self.total_cycles = 0.0
        self.cycles_by_tenant: Dict[str, float] = {}
        #: Fail-stop liveness: a dead worker never runs again; its
        #: in-memory session state is lost and must be rebuilt from
        #: journals on a survivor.  The cycle counters survive — the
        #: work *was* done and attributed before the failure.
        self.alive = True
        self.fault: Optional[str] = None

    def fail(self, reason: str) -> None:
        """Mark the worker dead (idempotent; keeps the first reason)."""
        if self.alive:
            self.alive = False
            self.fault = reason

    def charge(self, tenant: str, delta: float) -> None:
        if delta < 0:
            raise ValueError("cycle charge must be non-negative")
        self.total_cycles += delta
        self.cycles_by_tenant[tenant] = (
            self.cycles_by_tenant.get(tenant, 0.0) + delta
        )

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "alive": self.alive,
            "fault": self.fault,
            "total_cycles": self.total_cycles,
            "cycles_by_tenant": {
                tenant: self.cycles_by_tenant[tenant]
                for tenant in sorted(self.cycles_by_tenant)
            },
        }


@dataclass
class SessionEntry:
    """Registry record for one hosted session."""

    tenant: str
    name: str
    journal_dir: Path
    worker: DeviceWorker
    #: Registry creation counter at ``create``; recovery places
    #: sessions in this order, reproducing round-robin placement.
    index: int
    session: Optional[StreamSession] = None
    #: Registry op-counter value of the last operation that touched
    #: this session (the idle clock; no wall time).
    last_active_op: int = 0
    evictions: int = 0
    #: Ledger cycle reading already charged to the worker, so each op
    #: charges only its delta.
    charged_cycles: float = 0.0
    #: Cumulative cycles charged across every engine incarnation (the
    #: per-incarnation ledger resets on attach/recover).  Each
    #: checkpoint saves this figure, as of its cursor.
    lifetime_cycles: float = 0.0
    #: Times this entry was rebuilt from its journal after state loss
    #: (server restart or worker death) — *not* counting plain
    #: evict/attach round trips.
    recoveries: int = 0
    #: Telemetry caches refreshed at every settle, so per-tenant
    #: resilience metrics stay observable while the session is evicted.
    quarantined: int = 0
    dead_lettered: int = 0
    #: Trace id of the ``create`` request that made this session
    #: (``repro.obs.distrib``).  Saved with every checkpoint, so
    #: recovery and failover replay spans re-attach to the trace that
    #: originated the session — across process restarts.
    origin_trace: Optional[str] = None

    @property
    def live(self) -> bool:
        return self.session is not None

    @property
    def key(self) -> Tuple[str, str]:
        return (self.tenant, self.name)


class SessionRegistry:
    """All hosted sessions, keyed ``(tenant, session_name)``."""

    def __init__(
        self,
        data_dir: "str | Path",
        workers: int = 1,
        idle_evict_after_ops: int = 0,
    ):
        if workers < 1:
            raise ValueError("need at least one device worker")
        if idle_evict_after_ops < 0:
            raise ValueError("idle_evict_after_ops must be >= 0")
        self.data_dir = Path(data_dir)
        self.workers = [DeviceWorker(i) for i in range(workers)]
        self.idle_evict_after_ops = idle_evict_after_ops
        self._entries: Dict[Tuple[str, str], SessionEntry] = {}
        self._op_counter = 0
        self._created = 0

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def op_counter(self) -> int:
        return self._op_counter

    def entries_for(self, tenant: str) -> List[SessionEntry]:
        return [
            self._entries[key]
            for key in sorted(self._entries)
            if key[0] == tenant
        ]

    def live_session_count(self, tenant: str) -> int:
        return sum(1 for e in self.entries_for(tenant) if e.live)

    def queued_modifiers(self, tenant: Optional[str] = None) -> int:
        """Pending ingest-queue depth, per tenant or globally.

        Evicted sessions count zero: their backlog is journaled, not
        occupying a device.
        """
        total = 0
        for key in sorted(self._entries):
            entry = self._entries[key]
            if tenant is not None and entry.tenant != tenant:
                continue
            if entry.live:
                total += entry.session.queue.depth
        return total

    def get(self, tenant: str, name: str) -> SessionEntry:
        entry = self._entries.get((tenant, name))
        if entry is None:
            raise ServeError(
                f"tenant {tenant!r} has no session {name!r}",
                code=E_UNKNOWN_SESSION,
            )
        return entry

    # -- lifecycle -----------------------------------------------------------------

    def touch(self, entry: SessionEntry) -> None:
        """Advance the op clock and stamp ``entry`` as just-used."""
        self._op_counter += 1
        entry.last_active_op = self._op_counter

    def create(
        self,
        tenant: str,
        name: str,
        graph_spec: dict,
        k: int,
        seed: int = 0,
        target_batch_size: Optional[int] = None,
        queue_capacity: int = 4096,
        policy: str = "reject",
        origin_trace: Optional[str] = None,
    ) -> SessionEntry:
        """Create, start, and journal a new session.

        The server defaults the backpressure policy to ``"reject"``:
        a remote producer gets the typed ``backpressure`` response and
        retries, instead of the server silently flushing on its behalf
        (the library's single-process ``"block"`` default).

        ``start()`` writes the session's first checkpoint, its durable
        record, before this returns (and so before the ack).  A crash
        earlier leaves no checkpoint: the session is absent after
        recovery, and the client, which never saw the ack, retries.
        A directory that already holds a checkpoint, which
        :class:`StreamSession` refuses, is refused with
        ``session-exists``: it belongs to a session this registry has
        not recovered, whose journal a new session must not inherit.
        """
        check_name("tenant", tenant)
        check_name("session", name)
        key = (tenant, name)
        if key in self._entries:
            raise ServeError(
                f"tenant {tenant!r} already has a session {name!r}",
                code=E_SESSION_EXISTS,
            )
        journal_dir = self.data_dir / tenant / name
        csr = build_graph(graph_spec)  # validate before touching disk
        worker = self._assign_worker(self._created)
        new_tenant = not journal_dir.parent.exists()
        try:
            # repro-lint: allow[wal-after-ack] a create's durable record is its session's first checkpoint, so the session exists before it; start() writes it before the ack
            session = StreamSession(
                csr,
                PartitionConfig(k=k, seed=seed),
                journal_dir=journal_dir,
                queue_capacity=queue_capacity,
                policy=policy,
                scheduler=(
                    SchedulerConfig(target_batch_size=target_batch_size)
                    if target_batch_size is not None
                    else None
                ),
            )
        except JournalError as err:
            raise ServeError(
                f"{journal_dir} holds a checkpoint of session {name!r} "
                f"of tenant {tenant!r}: restart the server with "
                "--recover to revive it",
                code=E_SESSION_EXISTS,
            ) from err
        entry = SessionEntry(
            tenant=tenant,
            name=name,
            journal_dir=journal_dir,
            worker=worker,
            index=self._created,
            session=session,
            origin_trace=origin_trace,
        )
        self._created += 1
        self._bind(entry)
        session.start()
        # The checkpoint's own entry is durable; make the session
        # directory's entry, and a new tenant directory's, durable too.
        fsync_directory(journal_dir.parent)
        if new_tenant:
            fsync_directory(self.data_dir)
        self._entries[key] = entry
        self.touch(entry)
        return entry

    def _assign_worker(self, index: int) -> DeviceWorker:
        """Round-robin over *alive* workers, anchored at creation index
        ``index`` — with a fully healthy pool this reproduces the
        original assignment bit-identically during recovery."""
        count = len(self.workers)
        start = index % count
        for offset in range(count):
            worker = self.workers[(start + offset) % count]
            if worker.alive:
                return worker
        raise ServeError(
            "no alive device workers", code=E_WORKER_FAILED
        )

    def _bind(self, entry: SessionEntry) -> None:
        """Hook the entry's live session so every checkpoint saves what
        :meth:`recover_entries` needs of the entry.

        The hook fires *inside* ``StreamSession.checkpoint`` — the only
        point where the cycle figure and the checkpoint cursor are
        guaranteed to correspond (a ``checkpoint_every`` checkpoint can
        fire mid-drain, with more flushes landing after it in the same
        serve op).
        """
        entry.session.on_checkpoint = lambda: {
            "index": entry.index,
            "trace": entry.origin_trace,
            "cycles": self._lifetime_now(entry),
        }

    def _lifetime_now(self, entry: SessionEntry) -> float:
        """Lifetime cycles including the not-yet-settled ledger delta."""
        total = entry.lifetime_cycles
        if entry.live:
            now = ledger_cycles(entry.session.partitioner.ctx.ledger)
            total += max(0.0, now - entry.charged_cycles)
        return total

    def attach(self, tenant: str, name: str) -> SessionEntry:
        """Return the entry with a live session, recovering if evicted."""
        entry = self.get(tenant, name)
        if not entry.live:
            self._revive(entry)
        self.touch(entry)
        return entry

    def _revive(self, entry: SessionEntry) -> None:
        """Rebuild the entry's engine state from its journal."""
        entry.session = StreamSession.recover(entry.journal_dir)
        # A fresh engine means a fresh ledger: the recovery replay's
        # cycles are this entry's first post-attach charge.
        entry.charged_cycles = 0.0
        self._bind(entry)

    def _suspend(self, entry: SessionEntry) -> None:
        """Settle, checkpoint and drop a live session's engine state."""
        self.settle_cycles(entry)
        entry.session.suspend()
        entry.session = None
        entry.evictions += 1

    def _try_suspend(self, entry: SessionEntry) -> bool:
        """Suspend ``entry`` unless its journal cannot be written, in
        which case the session stays live: one session's bad directory
        must fail neither the other sessions' requests nor a shutdown."""
        try:
            self._suspend(entry)
        except (ReproError, OSError):
            return False
        return True

    def evict(self, tenant: str, name: str) -> SessionEntry:
        """Checkpoint-and-drop a live session (no-op when evicted)."""
        entry = self.get(tenant, name)
        if entry.live:
            self._suspend(entry)
        self.touch(entry)
        return entry

    def sweep_idle(self) -> List[SessionEntry]:
        """Evict sessions idle past the op-count threshold; one that
        cannot be suspended stays live, and the next sweep retries it."""
        if self.idle_evict_after_ops <= 0:
            return []
        horizon = self._op_counter - self.idle_evict_after_ops
        evicted = []
        for key in sorted(self._entries):
            entry = self._entries[key]
            if entry.live and entry.last_active_op <= horizon:
                if self._try_suspend(entry):
                    evicted.append(entry)
        return evicted

    def close(self) -> None:
        """Suspend every live session (server shutdown).  One that
        cannot be suspended keeps its last checkpoint and journal; only
        its journal handle is released."""
        for key in sorted(self._entries):
            entry = self._entries[key]
            if entry.live and not self._try_suspend(entry):
                self.drop_lost(entry)

    # -- crash recovery & failover --------------------------------------------------

    def recover_entries(self) -> List[SessionEntry]:
        """Revive every session ``data_dir`` holds a checkpoint of,
        after a process crash.

        Each ``<tenant>/<session>`` directory with a checkpoint is
        recovered from it (:meth:`StreamSession.recover`), and what the
        registry saved with that checkpoint places it: sessions come
        back in creation order on the worker their creation index
        picks, so round-robin placement matches the crashed process,
        and the creation counter resumes after the largest index.  The
        lifetime cycles saved with the loaded checkpoint are restored
        into worker/tenant attribution first; the deterministic journal
        replay then charges exactly the cycles that figure does not
        cover, so recovered totals equal the uncrashed run's.  A
        directory without a checkpoint (a create that crashed before
        its ack), or whose path is not a valid tenant and session name,
        is skipped.
        """
        revived = []
        for journal_dir in sorted(self.data_dir.glob("*/*")):
            key = (journal_dir.parent.name, journal_dir.name)
            if (
                key in self._entries
                or not journal_dir.is_dir()
                or not all(_NAME.fullmatch(part) for part in key)
            ):
                continue
            if StreamJournal(journal_dir).exists():
                revived.append((key, StreamSession.recover(journal_dir)))
        # Checkpoints written without the registry's hook carry no
        # index: they come last, in name order.
        revived.sort(
            key=lambda item: (
                item[1].host_meta.get("index", math.inf),
                item[0],
            )
        )
        recovered: List[SessionEntry] = []
        for (tenant, name), session in revived:
            host = session.host_meta
            index = host.get("index", self._created)
            entry = SessionEntry(
                tenant=tenant,
                name=name,
                journal_dir=self.data_dir / tenant / name,
                worker=self._assign_worker(index),
                index=index,
                session=session,
                lifetime_cycles=host.get("cycles", 0.0),
                recoveries=1,
                origin_trace=host.get("trace"),
            )
            self._created = max(self._created, index + 1)
            if entry.lifetime_cycles > 0.0:
                entry.worker.charge(tenant, entry.lifetime_cycles)
            self._bind(entry)
            self.settle_cycles(entry)
            self._entries[entry.key] = entry
            self.touch(entry)
            recovered.append(entry)
        return recovered

    def entries_on_worker(
        self, worker: DeviceWorker
    ) -> List[SessionEntry]:
        return [
            self._entries[key]
            for key in sorted(self._entries)
            if self._entries[key].worker is worker
        ]

    def drop_lost(self, entry: SessionEntry) -> None:
        """Discard an entry's in-memory state after its worker died (or
        at a shutdown that could not suspend it).

        Fail-stop: no suspend, no checkpoint — the device that would
        run them is gone.  Only the journal's file handle is released;
        everything durable (last checkpoint + journal suffix) stays, and
        :meth:`restore` rebuilds the exact pre-failure state from it.
        """
        if entry.live:
            if entry.session.journal is not None:
                entry.session.journal.close()
            entry.session = None

    def restore(
        self, entry: SessionEntry, worker: DeviceWorker
    ) -> SessionEntry:
        """Rebuild a lost entry onto ``worker`` from its journal."""
        if not worker.alive:
            raise ServeError(
                f"cannot restore onto dead worker {worker.index}",
                code=E_WORKER_FAILED,
            )
        entry.worker = worker
        self._revive(entry)
        entry.recoveries += 1
        self.settle_cycles(entry)
        self.touch(entry)
        return entry

    # -- device-cycle attribution ---------------------------------------------------

    def settle_cycles(self, entry: SessionEntry) -> float:
        """Charge the entry's un-attributed ledger cycles to its worker.

        Returns the delta.  Called after every operation that may have
        run engine work, and before eviction drops the ledger.
        """
        if not entry.live:
            return 0.0
        entry.quarantined = entry.session.telemetry.quarantined
        entry.dead_lettered = entry.session.telemetry.dead_lettered
        now = ledger_cycles(entry.session.partitioner.ctx.ledger)
        delta = now - entry.charged_cycles
        if delta <= 0.0:
            return 0.0
        entry.charged_cycles = now
        entry.lifetime_cycles += delta
        entry.worker.charge(entry.tenant, delta)
        return delta

    def info(self, entry: SessionEntry) -> dict:
        """Wire-friendly summary of one entry."""
        out = {
            "tenant": entry.tenant,
            "session": entry.name,
            "live": entry.live,
            "worker": entry.worker.index,
            "worker_alive": entry.worker.alive,
            "evictions": entry.evictions,
            "recoveries": entry.recoveries,
            "last_active_op": entry.last_active_op,
        }
        if entry.live:
            out.update(
                {
                    "queue_depth": entry.session.queue.depth,
                    "applied_seq": entry.session.applied_seq,
                    # Exactly-once resume: a client whose submit's fate
                    # is ambiguous (timeout) reads next_seq to learn
                    # how much of its batch landed before resubmitting.
                    "next_seq": entry.session.queue.next_seq,
                    "cut": entry.session.cut_size(),
                }
            )
        return out
