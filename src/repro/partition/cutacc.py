"""Incremental cut maintenance: the per-batch pool scan, killed.

``IGKway.cut_size()`` used to re-scan the entire bucket pool after every
batch — ~67% of the post-vectorization sweep's host time, and the one
remaining cost proportional to *graph size* rather than *batch size*.
The whole premise of the paper is incrementality, and the engine already
knows every committed move and modifier delta; :class:`CutAccumulator`
folds those deltas into a small matrix instead.

Representation
--------------
A dense ``(k+2) x (k+2)`` int64 **directed-arc weight matrix** over
extended labels (real partitions ``0..k-1``, pseudo ``k``, UNASSIGNED
``k+1``), kept flat for scatter-add folds.  The maintained invariant:

    matrix == arc_matrix_bucketlist(graph, partition, k)

under the *current* graph and labels, at every point where all pending
deltas have been folded.  Folds are plain integer scatter-adds, so they
commute — the invariant needs to hold only at read time (cut size / cut
matrix queries, the sanitizer cross-check), not between individual
hooks.  From the invariant, ``cut = (total - trace) // 2`` equals
``cut_size_bucketlist`` bit-exactly whenever labels compare the same
way, which they always do (extended labels are a bijection on the label
alphabet).

Delta sources
-------------
* **Move deltas** — :class:`~repro.partition.state.PartitionState`
  calls :meth:`on_move` / :meth:`on_moves` *before* writing the new
  labels.  A mover's arcs are re-keyed from its current slots; arcs to
  co-movers (both endpoints moving in one bulk call) are updated
  single-sided from each endpoint's own scan, while arcs to non-movers
  also update the mirrored entry.
* **Modifier deltas** — the walk that applies a batch
  (``core.modification.apply_ops``) reports every arc it adds or
  removes, a removed arc with the weight its slot held just before the
  kernel blanked it.  ``IGKway`` passes them to :meth:`fold_arcs` after
  the modification kernels commit, so nothing replays the batch.

Lifecycle
---------
The matrix is **live from construction**: the constructor bootstraps it
from one (uncharged, host-side) pool scan, and every
:class:`~repro.partition.state.PartitionState` builds one, so each
partition ``IGKway.install`` puts on a graph — the initial full
partition, a checkpoint load, an adaptive fallback and an escalation
rebuild alike — has a live accumulator: every hook folds from the first
batch on, and a batch's ``cut-update`` charge never depends on whether
something read the cut before it.  It is **derived state** — never serialized,
excluded from ``state_digest`` — so checkpoints and digests stay
independent of it; a loaded checkpoint bootstraps a fresh one.
Transactional rollback restores it bit-identically through
:meth:`PartitionState.copy`/``restore`` (see :meth:`clone` /
:meth:`restore_from`).

Cost model: the owner (``IGKway``) drains :meth:`take_touched` once per
batch and charges a ``cut-update`` kernel in a ``cut_maintenance``
ledger section proportional to the arcs actually touched — never to
pool size.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import fold_cut_deltas
from repro.graph.bucketlist import EMPTY, BucketListGraph
from repro.partition.metrics import arc_matrix_bucketlist


class CutAccumulator:
    """Incrementally maintained extended-label cut matrix.

    Attributes:
        graph: The bucket-list graph whose arcs are tracked.
        k: Number of real partitions.
        touched_arcs: Arc-delta count since the last
            :meth:`take_touched` (the cost-model's unit of work).
    """

    def __init__(
        self, graph: BucketListGraph, k: int, partition: np.ndarray
    ) -> None:
        """Bootstrap the matrix of ``graph`` under ``partition``."""
        self.graph = graph
        self.k = int(k)
        self.ext_n = self.k + 2
        # Flat (ext_n * ext_n) int64 arc matrix.
        # repro-lint: allow[pool-scan-outside-sanitizer] one bootstrap per installed partition; every later read is incremental
        self._flat = arc_matrix_bucketlist(
            graph, partition, self.k
        ).reshape(-1)
        #: Scratch: vertex -> position in the current bulk-move batch
        #: (-1 outside a batch).  Persistent to avoid per-call allocation.
        self._mover_pos: np.ndarray | None = None
        self.touched_arcs = 0

    # -- snapshots ----------------------------------------------------------

    def clone(self) -> "CutAccumulator":
        """Snapshot for transactional rollback (matrix + counters).

        The mover-position scratch is not copied: it is transient
        within one bulk-move call and always reset to -1 between calls.
        """
        out = CutAccumulator.__new__(CutAccumulator)
        out.graph, out.k, out.ext_n = self.graph, self.k, self.ext_n
        out._flat = self._flat.copy()
        out._mover_pos = None
        out.touched_arcs = self.touched_arcs
        return out

    def restore_from(self, snapshot: "CutAccumulator") -> None:
        """Restore matrix + counters from a :meth:`clone` snapshot."""
        self._flat[:] = snapshot._flat
        self.touched_arcs = snapshot.touched_arcs

    # -- queries ------------------------------------------------------------

    def cut_size(self) -> int:
        """Exact weighted cut between distinct labels, O(k^2)."""
        matrix = self._flat.reshape(self.ext_n, self.ext_n)
        return int(self._flat.sum() - np.trace(matrix)) // 2

    def cut_matrix(self) -> np.ndarray:
        """``k x k`` cut matrix (same semantics as ``metrics.cut_matrix``):
        symmetric inter-partition weight, diagonal = internal weight."""
        matrix = self._flat.reshape(self.ext_n, self.ext_n)[
            : self.k, : self.k
        ].copy()
        np.fill_diagonal(matrix, np.diagonal(matrix) // 2)
        return matrix

    def arc_matrix(self) -> np.ndarray:
        """The full extended-label arc matrix (sanitizer cross-check)."""
        return self._flat.reshape(self.ext_n, self.ext_n).copy()

    def take_touched(self) -> int:
        """Drain and return the arc-delta count since the last drain."""
        arcs, self.touched_arcs = self.touched_arcs, 0
        return arcs

    # -- delta folds ---------------------------------------------------------

    def _ext(self, labels: np.ndarray) -> np.ndarray:
        """Map labels onto extended indices (-1 -> k+1)."""
        return np.where(labels < 0, np.int64(self.k + 1), labels)

    def on_move(self, partition: np.ndarray, u: int, old: int, new: int) -> None:
        """Re-key vertex ``u``'s arcs from label ``old`` to ``new``.

        Called by ``PartitionState.move`` *before* the label write, so
        ``partition`` still holds every pre-move label.  ``u`` has no
        self-loop, hence ``partition[nbr]`` is never ``u``'s own stale
        label.
        """
        values = self.graph.slots(u)
        filled = values != EMPTY
        nbrs = values[filled]
        if nbrs.size == 0:
            return
        weights = self.graph.slot_weights(u)[filled]
        nbr_ext = self._ext(partition[nbrs])
        old_e = np.int64(old if old >= 0 else self.k + 1)
        new_e = np.int64(new if new >= 0 else self.k + 1)
        ext_n = np.int64(self.ext_n)
        # Both directions of every incident arc change key.
        sub_keys = np.concatenate(
            [old_e * ext_n + nbr_ext, nbr_ext * ext_n + old_e]
        )
        add_keys = np.concatenate(
            [new_e * ext_n + nbr_ext, nbr_ext * ext_n + new_e]
        )
        w2 = np.concatenate([weights, weights])
        fold_cut_deltas(self._flat, sub_keys, w2, add_keys, w2)
        self.touched_arcs += int(sub_keys.size)

    def on_moves(
        self,
        partition: np.ndarray,
        vertices: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        """Re-key the arcs of a bulk move (``PartitionState.apply_moves``).

        Called before the label writes with the already-filtered
        actually-changing ``(vertices, targets)``; ``vertices`` holds no
        duplicates (the caller's documented contract).  Arcs between two
        co-movers are updated single-sided — each endpoint's own slot
        scan covers its outgoing direction with the *new* label of the
        other endpoint — while arcs to non-movers update the mirrored
        entry too (the non-mover's scan never runs).
        """
        if vertices.size == 0:
            return
        graph = self.graph
        if (
            self._mover_pos is None
            or self._mover_pos.size < graph.capacity
        ):
            self._mover_pos = np.full(graph.capacity, -1, dtype=np.int64)
        pos = self._mover_pos
        pos[vertices] = np.arange(vertices.size)

        slot_idx, owner = graph.slot_index_arrays(vertices)
        slot_vals = graph.bucket_list[slot_idx]
        filled = slot_vals != EMPTY
        owner_f = owner[filled]
        nbrs = slot_vals[filled]
        weights = graph.slot_wgt[slot_idx][filled]

        old_u = self._ext(partition[vertices])[owner_f]
        new_u = self._ext(targets)[owner_f]
        nbr_pos = pos[nbrs]
        co = nbr_pos >= 0
        nbr_old = self._ext(partition[nbrs])
        nbr_new = np.where(
            co, self._ext(targets)[np.maximum(nbr_pos, 0)], nbr_old
        )
        ext_n = np.int64(self.ext_n)
        # Outgoing arc u -> nbr for every mover.
        sub_keys = old_u * ext_n + nbr_old
        add_keys = new_u * ext_n + nbr_new
        # Mirror nbr -> u, only where nbr is NOT itself a mover (a
        # co-mover's scan contributes its own outgoing direction).
        non_co = ~co
        sub_keys = np.concatenate(
            [sub_keys, (nbr_old * ext_n + old_u)[non_co]]
        )
        add_keys = np.concatenate(
            [add_keys, (nbr_old * ext_n + new_u)[non_co]]
        )
        w_all = np.concatenate([weights, weights[non_co]])
        fold_cut_deltas(self._flat, sub_keys, w_all, add_keys, w_all)
        self.touched_arcs += int(sub_keys.size)
        pos[vertices] = -1

    def fold_arcs(
        self, partition: np.ndarray, added: np.ndarray, removed: np.ndarray
    ) -> None:
        """Fold a committed modifier batch's arc changes.

        ``added``/``removed`` are the ``(n, 3)`` ``(u, v, w)`` rows
        ``apply_ops`` returns.  Labels are read from ``partition`` at
        fold time: modification never moves a vertex, so they are the
        labels in force while the batch applied.
        """
        ext_n = np.int64(self.ext_n)

        def keys(arcs: np.ndarray) -> np.ndarray:
            return (
                self._ext(partition[arcs[:, 0]]) * ext_n
                + self._ext(partition[arcs[:, 1]])
            )

        fold_cut_deltas(
            self._flat, keys(removed), removed[:, 2], keys(added), added[:, 2]
        )
        self.touched_arcs += len(removed) + len(added)
