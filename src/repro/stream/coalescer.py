"""Coalescer: collapse redundant pending work before it reaches the GPU.

Dynamic-graph ingestion layers win or lose on update coalescing: a
stream of fine-grained modifiers routinely contains work that cancels
out (an edge inserted and deleted within the same window), duplicates
(idempotent double-submission), or is subsumed (edge operations on a
vertex the same window deletes).  Shipping that work to the modifier
kernels wastes modeled GPU cycles *and* inflates the adaptive
partitioner's volume triggers with modifiers that have no net effect.

The rules themselves live in
:func:`repro.graph.modifiers.coalesce_modifiers_indexed` (they are a
property of modifier semantics, not of streaming); this module packages
them for the stream path: a drained ingest window goes in, a *validated*
:class:`~repro.graph.modifiers.ModifierBatch` plus per-window stats
come out.  Coalescing never changes the final graph — applying the raw
window and the coalesced batch to the same graph yields identical
adjacency (property-tested in ``tests/stream/test_coalescer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.graph.modifiers import (
    ModifierBatch,
    coalesce_modifiers_indexed,
    validate_batch,
)
from repro.stream.ingest import SequencedModifier
from repro.utils.errors import StreamError


@dataclass(frozen=True)
class CoalesceResult:
    """One ingest window collapsed into an applicable batch.

    Attributes:
        batch: The surviving modifiers, in original submission order.
        first_seq / last_seq: Inclusive sequence range the window
            covers — the unit the recovery journal records, so replay
            can re-coalesce exactly the same raw window.
        stats: Counters from the coalescing pass (``input``,
            ``output``, ``cancelled``, ``deduplicated``, ``subsumed``).
        seqs: Journal sequence number of each surviving modifier, in
            batch order — ``seqs[i]`` is the seq of ``batch[i]``.  This
            is what lets the session map a transactional failure's
            ``modifier_index`` straight back to the poison submission
            without bisecting.
    """

    batch: ModifierBatch
    first_seq: int
    last_seq: int
    stats: Dict[str, int]
    seqs: Tuple[int, ...] = field(default=())

    @property
    def raw_count(self) -> int:
        return self.stats["input"]

    @property
    def dropped(self) -> int:
        return self.stats["input"] - self.stats["output"]


class Coalescer:
    """Stateless window collapser used by the session and by replay."""

    def collapse(
        self, window: Sequence[SequencedModifier]
    ) -> CoalesceResult:
        """Coalesce a drained window and validate the survivors.

        Raises :class:`StreamError` on an empty window and
        :class:`~repro.utils.errors.ModifierError` if the surviving
        sequence is internally inconsistent (e.g. a producer submitted
        an edge insert for a vertex it deleted earlier in the window
        without re-inserting it).
        """
        if not window:
            raise StreamError("cannot coalesce an empty window")
        survivors, indices, stats = coalesce_modifiers_indexed(
            sm.modifier for sm in window
        )
        validate_batch(survivors)
        return CoalesceResult(
            batch=ModifierBatch(survivors),
            first_seq=window[0].seq,
            last_seq=window[-1].seq,
            stats=stats,
            seqs=tuple(window[i].seq for i in indices),
        )
