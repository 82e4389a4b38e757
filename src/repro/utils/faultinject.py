"""Deterministic fault injection for the transactional layer.

The chaos harness (``tools/chaos_gate.py``) and the failure-parity
tests need *reproducible* ways of making batch application fail at
well-defined points.  :class:`FaultInjector` packages every supported
fault class behind one seeded RNG:

* **poison modifiers** — operations the expansion gate must reject:
  duplicate edge inserts, deletes of missing edges, operations on dead
  vertices;
* **pool exhaustion** — a context manager that shrinks the bucket
  pool's capacity so the next allocation raises
  :class:`~repro.utils.errors.CapacityError` mid-batch;
* **mid-kernel abort** — a one-shot write probe on the graph that
  raises :class:`InjectedAbort` after N logged slot-write units,
  simulating a device fault with partial writes already landed (the
  undo log must still roll them back);
* **journal truncation** — chops the tail off an on-disk file,
  simulating a torn write / crashed checkpoint.

All generators read the *live* graph so the poison is guaranteed to be
poison at injection time, not just statistically likely.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.utils.errors import ModifierError

if TYPE_CHECKING:  # graph imports stay lazy: utils must not pull in
    # repro.graph at module load (repro.graph itself imports
    # repro.utils.errors, which initializes this package).
    from repro.graph.bucketlist import BucketListGraph
    from repro.graph.modifiers import Modifier

#: Every fault class the injector implements, for gates that must
#: prove coverage.
FAULT_CLASSES = (
    "duplicate_edge",
    "missing_edge",
    "dead_vertex_op",
    "pool_exhaustion",
    "kernel_abort",
    "journal_truncation",
)


#: Transport/worker fault kinds the serve layer injects
#: (:class:`ServeFaultPlan`), for gates that must prove coverage.
SERVE_FAULT_KINDS = (
    "torn_response",
    "drop_connection",
    "delay_response",
    "worker_abort",
    "crash_after_wal",
)


class InjectedAbort(ModifierError):
    """A simulated mid-kernel device abort (fault injection only)."""


class FaultInjector:
    """Seeded source of every supported fault class."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    # -- poison modifiers ----------------------------------------------------------

    def _random_active(self, graph: BucketListGraph) -> int:
        active = graph.active_vertices()
        if len(active) == 0:
            raise ValueError("graph has no active vertices")
        return int(active[self.rng.integers(len(active))])

    def duplicate_edge(self, graph: BucketListGraph) -> Modifier:
        """An insert of an edge the graph already has."""
        from repro.graph.bucketlist import EMPTY
        from repro.graph.modifiers import EdgeInsert

        for _ in range(256):
            u = self._random_active(graph)
            slots = graph.slots(u)
            neighbors = slots[slots != EMPTY]
            if len(neighbors):
                v = int(neighbors[self.rng.integers(len(neighbors))])
                return EdgeInsert(u, v)
        raise ValueError("could not find an existing edge to duplicate")

    def missing_edge(self, graph: BucketListGraph) -> Modifier:
        """A delete of an edge the graph does not have."""
        from repro.graph.modifiers import EdgeDelete

        for _ in range(256):
            u = self._random_active(graph)
            v = self._random_active(graph)
            if u != v and not graph.has_edge(u, v):
                return EdgeDelete(u, v)
        raise ValueError("could not find a missing edge to delete")

    def dead_vertex_op(self, graph: BucketListGraph) -> Modifier:
        """An operation referencing a deleted or never-created vertex."""
        from repro.graph.modifiers import EdgeInsert, VertexDelete

        dead = [
            w
            for w in range(graph.num_vertices)
            if not graph.is_active(w)
        ]
        if dead and self.rng.integers(2):
            w = int(dead[self.rng.integers(len(dead))])
        else:
            # Beyond every ID ever created: "unknown vertex".
            w = graph.num_vertices + int(self.rng.integers(1, 50))
        if self.rng.integers(2):
            return EdgeInsert(self._random_active(graph), w)
        return VertexDelete(w)

    def poison(self, graph: BucketListGraph, kind: str) -> Modifier:
        """Dispatch by fault-class name (the first three classes)."""
        return {
            "duplicate_edge": self.duplicate_edge,
            "missing_edge": self.missing_edge,
            "dead_vertex_op": self.dead_vertex_op,
        }[kind](graph)

    # -- structural / timing faults ------------------------------------------------

    @contextmanager
    def pool_exhaustion(
        self, graph: BucketListGraph, spare_buckets: int = 0
    ) -> "Iterator[BucketListGraph]":
        """Temporarily shrink the bucket pool to its current fill.

        Any allocation needing more than ``spare_buckets`` extra
        buckets raises :class:`~repro.utils.errors.CapacityError` —
        the exact failure of a real pre-allocated device pool running
        dry.  The original capacity is restored on exit (the simulated
        "bigger redeploy").
        """
        original = graph.pool_buckets
        graph.pool_buckets = min(
            original, graph.num_buckets_used + spare_buckets
        )
        try:
            yield graph
        finally:
            graph.pool_buckets = original

    @contextmanager
    def kernel_abort(
        self, graph: BucketListGraph, after_writes: int
    ) -> "Iterator[BucketListGraph]":
        """Raise :class:`InjectedAbort` once ``after_writes`` slot-write
        units have been logged inside the current batch.

        The abort fires from the graph's write probe, i.e. *between*
        slot writes of a partially applied batch — the worst case the
        undo log exists for.  One-shot: after firing (or a clean exit)
        the probe is removed.
        """
        if graph._write_probe is not None:
            raise ValueError("another write probe is already installed")
        fired = [False]

        def probe(total_writes: int) -> None:
            if not fired[0] and total_writes >= after_writes:
                fired[0] = True
                raise InjectedAbort(
                    f"injected device abort after {total_writes} "
                    f"slot writes (threshold {after_writes})"
                )

        graph._write_probe = probe
        try:
            yield graph
        finally:
            graph._write_probe = None

    def truncate(self, path: "str | Path", fraction: float = 0.5) -> int:
        """Chop a file down to ``fraction`` of its size (torn write).

        Returns the new size in bytes.  ``fraction=0`` empties the
        file; the file must exist.
        """
        if not 0 <= fraction < 1:
            raise ValueError("fraction must be in [0, 1)")
        path = Path(path)
        size = path.stat().st_size
        keep = int(size * fraction)
        with path.open("rb+") as handle:
            handle.truncate(keep)
        return keep


# -- serve-layer fault plan ------------------------------------------------------


@dataclass
class ServeFault:
    """One armed transport/worker fault.

    ``kind`` is one of :data:`SERVE_FAULT_KINDS`.  ``op`` restricts the
    fault to requests with that ``"op"`` field (None matches any).
    ``after_matches`` skips that many matching requests before firing,
    so a fault can target e.g. "the third submit".  ``delay`` is the
    response delay in seconds for ``delay_response``; ``keep_bytes``
    caps how much of the encoded response frame a ``torn_response``
    still sends (None → seeded choice strictly inside the frame).
    """

    kind: str
    op: Optional[str] = None
    after_matches: int = 0
    delay: float = 0.05
    keep_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SERVE_FAULT_KINDS:
            raise ValueError(f"unknown serve fault kind {self.kind!r}")


class ServeFaultPlan:
    """A seeded, one-shot schedule of serve-layer faults.

    The server consults the plan at two stages:

    * ``"execute"`` — before running a request on a device worker
      (``worker_abort`` fires here, simulating the device dying
      mid-request);
    * ``"response"`` — after the journal write and state change, before the
      response frame goes out (``torn_response`` / ``drop_connection``
      / ``delay_response`` / ``crash_after_wal`` fire here — the
      request *executed*, only its acknowledgement is disturbed).

    Each armed fault fires at most once; fired faults move to
    :attr:`fired` so gates can assert the sweep actually exercised
    every planned fault.  All randomness (torn-frame cut points) comes
    from one seeded RNG, keeping chaos runs reproducible.
    """

    #: Fault kinds consumed at each stage.
    _STAGES = {
        "execute": ("worker_abort",),
        "response": (
            "torn_response",
            "drop_connection",
            "delay_response",
            "crash_after_wal",
        ),
    }

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.armed: list[ServeFault] = []
        self.fired: list[ServeFault] = []
        self._seen: dict[tuple[str, Optional[str]], int] = {}

    def arm(
        self,
        kind: str,
        op: Optional[str] = None,
        after_matches: int = 0,
        **kwargs,
    ) -> ServeFault:
        """Schedule one fault; returns it for later identity checks."""
        fault = ServeFault(
            kind=kind, op=op, after_matches=after_matches, **kwargs
        )
        self.armed.append(fault)
        return fault

    def take(self, stage: str, op: str) -> Optional[ServeFault]:
        """The fault to fire now for a ``stage``/``op`` pair, if any.

        Counts every matching request per (kind, op) filter so
        ``after_matches`` is honored, pops the fault from the armed
        list, and records it in :attr:`fired`.  At most one fault fires
        per call — a second armed fault on the same request waits for
        the next match.
        """
        if stage not in self._STAGES:
            raise ValueError(f"unknown serve fault stage {stage!r}")
        kinds = self._STAGES[stage]
        for fault in self.armed:
            if fault.kind not in kinds:
                continue
            if fault.op is not None and fault.op != op:
                continue
            key = (fault.kind, fault.op)
            seen = self._seen.get(key, 0)
            self._seen[key] = seen + 1
            if seen < fault.after_matches:
                continue
            self.armed.remove(fault)
            self.fired.append(fault)
            return fault
        return None

    def torn_length(self, fault: ServeFault, frame_len: int) -> int:
        """How many bytes of a ``frame_len``-byte response to send.

        Honors ``fault.keep_bytes`` when set (clamped strictly inside
        the frame); otherwise a seeded cut point in ``[0, frame_len)``
        — always short of a complete frame, so the client observes a
        mid-frame disconnect, never a clean reply.
        """
        if frame_len <= 0:
            return 0
        if fault.keep_bytes is not None:
            return max(0, min(fault.keep_bytes, frame_len - 1))
        return int(self.rng.integers(frame_len))
