"""Bounded ingest queue: the front door of the streaming service.

Producers submit *individual* modifiers; the queue stamps each with a
monotonically increasing sequence number (the recovery journal's
cursor space) and holds it until the scheduler decides the pending
window is worth a GPU round-trip.

The queue is bounded.  What happens at the bound is the session's
*backpressure policy*:

* ``"block"`` — the session flushes the pending window to the
  partitioner and then accepts the modifier (the single-threaded
  analogue of blocking the producer until the consumer catches up);
* ``"reject"`` — :class:`~repro.utils.errors.BackpressureError` is
  raised to the producer, which is expected to retry later.

The queue itself only *enforces* the bound; the policy lives here but
is *acted on* by :class:`~repro.stream.session.StreamSession`, which is
the component able to flush.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List

from repro.graph.modifiers import Modifier
from repro.utils.errors import BackpressureError

#: Recognized backpressure policies.
POLICIES = ("block", "reject")


@dataclass(frozen=True)
class SequencedModifier:
    """A modifier stamped with its ingest sequence number."""

    seq: int
    modifier: Modifier


class IngestQueue:
    """Bounded FIFO of sequence-stamped modifiers.

    Args:
        capacity: Maximum pending modifiers.
        policy: ``"block"`` or ``"reject"`` (see module docstring).
    """

    def __init__(self, capacity: int = 4096, policy: str = "block"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r} "
                f"(expected one of {POLICIES})"
            )
        self.capacity = capacity
        self.policy = policy
        self._items: Deque[SequencedModifier] = deque()
        self._next_seq = 0

    # -- queries ----------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next :meth:`offer` will assign."""
        return self._next_seq

    @property
    def depth(self) -> int:
        return len(self._items)

    def is_empty(self) -> bool:
        return not self._items

    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    # -- mutation ---------------------------------------------------------------

    def offer(self, modifier: Modifier) -> int:
        """Enqueue ``modifier``; returns its sequence number.

        Raises :class:`BackpressureError` when full, regardless of
        policy — the session decides whether to flush-and-retry
        (``"block"``) or propagate (``"reject"``).
        """
        if self.is_full():
            raise BackpressureError(
                f"ingest queue full ({self.capacity} pending modifiers)"
            )
        seq = self._next_seq
        self._next_seq += 1
        self._items.append(SequencedModifier(seq, modifier))
        return seq

    def requeue(self, seq: int, modifier: Modifier) -> None:
        """Re-enqueue a journaled modifier under its original sequence
        number (recovery path).  Must be called in ascending seq order
        before any new :meth:`offer`."""
        if self._items and self._items[-1].seq >= seq:
            raise ValueError(
                f"requeue out of order: seq {seq} after "
                f"{self._items[-1].seq}"
            )
        self._items.append(SequencedModifier(seq, modifier))
        self._next_seq = max(self._next_seq, seq + 1)

    def reserve_seq(self, next_seq: int) -> None:
        """Advance the sequence counter (recovery: skip journaled seqs)."""
        self._next_seq = max(self._next_seq, next_seq)

    def drain(self, limit: int | None = None) -> List[SequencedModifier]:
        """Pop and return the oldest ``limit`` pending modifiers
        (everything pending when ``limit`` is None)."""
        if limit is None or limit >= len(self._items):
            window = list(self._items)
            self._items.clear()
            return window
        return [self._items.popleft() for _ in range(max(limit, 0))]
