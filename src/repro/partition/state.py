"""Mutable partition state shared by the partitioners.

``PartitionState`` owns the per-vertex partition array plus the cached
partition weights and the balance constraint.  Two reserved labels extend
the ``0 .. k-1`` partition IDs:

* :data:`UNASSIGNED` (-1): deleted vertices,
* :data:`PSEUDO` (k): the paper's pseudo-partition holding affected
  vertices between balancing and refinement (Section V.C).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import apply_move_deltas
from repro.graph.bucketlist import BucketListGraph
from repro.partition.cutacc import CutAccumulator
from repro.partition.metrics import (
    is_balanced,
    max_partition_weight,
    partition_weights,
)
from repro.utils.errors import PartitionError


#: Partition label of deleted / not-yet-assigned vertices.
UNASSIGNED = np.int64(-1)


class PartitionState:
    """Partition assignment, cached weights and incremental cut
    accumulator for ``k`` partitions of a graph.

    The pseudo-partition is labelled ``k`` (one past the real
    partitions); its accumulated weight is tracked separately and never
    counts toward the balance constraint — that is the whole point of
    parking affected vertices there.
    """

    def __init__(
        self,
        graph: BucketListGraph,
        partition: np.ndarray,
        k: int,
        epsilon: float,
    ):
        self.k = int(k)
        self.epsilon = float(epsilon)
        self.partition = np.asarray(partition, dtype=np.int64).copy()
        if self.partition.ndim != 1:
            raise PartitionError("partition must be one-dimensional")
        # Snapshot, not a view: the graph's weight array may be rewritten
        # by modification kernels *before* the balancing kernel accounts
        # for the change (e.g. a delete + re-insert with a new weight in
        # one batch); the state's weights advance only through
        # ``set_vertex_weight``/``move`` in modifier order.
        self._vwgt = np.asarray(graph.vwgt, dtype=np.int64).copy()
        if self._vwgt.shape != self.partition.shape:
            raise PartitionError("vwgt and partition must align")
        self.part_weights = partition_weights(self._vwgt, self.partition, k)
        self.pseudo_weight = int(
            self._vwgt[self.partition == self.pseudo_label].sum()
        )
        #: Incremental cut accumulator of ``graph`` under these labels,
        #: bootstrapped here (see :mod:`repro.partition.cutacc`).  Derived
        #: state: excluded from ``state_digest`` and checkpoints, but
        #: snapshot/restored through :meth:`copy`/:meth:`restore` so a
        #: transactional rollback restores it bit-identically.
        self.cut_acc = CutAccumulator(graph, self.k, self.partition)

    # -- labels ------------------------------------------------------------------

    @property
    def pseudo_label(self) -> int:
        """The pseudo-partition's label (``k``)."""
        return self.k

    # -- weights -----------------------------------------------------------------

    def total_weight(self) -> int:
        """Weight of all vertices currently assigned or pseudo-parked."""
        return int(self.part_weights.sum()) + self.pseudo_weight

    def w_pmax(self) -> int:
        """Current ``W_pmax`` from the live total weight."""
        return max_partition_weight(self.total_weight(), self.k, self.epsilon)

    def balanced(self) -> bool:
        return is_balanced(
            self.part_weights, self.total_weight(), self.k, self.epsilon
        )

    # -- vertex transitions ---------------------------------------------------------

    def vertex_weight(self, u: int) -> int:
        return int(self._vwgt[u])

    def vertex_weights(self, vertices: np.ndarray) -> np.ndarray:
        """Bulk weight gather (one ``vwgt`` load per vertex)."""
        return self._vwgt[np.asarray(vertices, dtype=np.int64)]

    def set_vertex_weight(self, u: int, weight: int) -> None:
        """Update a vertex's weight, keeping cached sums consistent."""
        old = int(self._vwgt[u])
        label = int(self.partition[u])
        self._vwgt[u] = weight
        if 0 <= label < self.k:
            self.part_weights[label] += weight - old
        elif label == self.pseudo_label:
            self.pseudo_weight += weight - old

    def move(self, u: int, target: int) -> None:
        """Move vertex ``u`` to ``target`` (a real label, PSEUDO or
        UNASSIGNED), updating cached weights."""
        source = int(self.partition[u])
        if source == target:
            return
        if target != UNASSIGNED and not (0 <= target <= self.pseudo_label):
            raise PartitionError(f"invalid target label {target}")
        # Before the label write: the hook re-keys u's arcs from the
        # pre-move labels still in ``partition``.
        self.cut_acc.on_move(self.partition, u, source, int(target))
        weight = int(self._vwgt[u])
        if 0 <= source < self.k:
            # repro-lint: allow[uncharged-device-write] scalar host-side move; the driving refinement/balancing kernels price moves in their own ledger scopes
            self.part_weights[source] -= weight
        elif source == self.pseudo_label:
            self.pseudo_weight -= weight
        if 0 <= target < self.k:
            self.part_weights[target] += weight
        elif target == self.pseudo_label:
            self.pseudo_weight += weight
        self.partition[u] = target

    def move_many(self, vertices: np.ndarray, target: int) -> None:
        """Bulk :meth:`move` of several vertices to one label."""
        vertices = np.asarray(vertices, dtype=np.int64)
        self.apply_moves(vertices, np.full(vertices.shape, target))

    def apply_moves(
        self, vertices: np.ndarray, targets: np.ndarray
    ) -> None:
        """Vectorized :meth:`move` of aligned ``(vertices, targets)``.

        Equivalent to moving each vertex in order; ``vertices`` must not
        contain duplicates (per-label weight deltas are accumulated in
        one scatter-add, so a duplicate would be double-counted).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if vertices.size == 0:
            return
        if np.any(
            (targets != UNASSIGNED) & (targets > self.pseudo_label)
        ) or np.any(targets < UNASSIGNED):
            bad = targets[
                ((targets != UNASSIGNED) & (targets > self.pseudo_label))
                | (targets < UNASSIGNED)
            ][0]
            raise PartitionError(f"invalid target label {int(bad)}")
        src = self.partition[vertices]
        changing = src != targets
        if not np.any(changing):
            return
        vertices = vertices[changing]
        src = src[changing]
        targets = targets[changing]
        weights = self._vwgt[vertices]
        # Before the label writes: the hook re-keys the movers' arcs
        # from the pre-move labels still in ``partition``.
        self.cut_acc.on_moves(self.partition, vertices, targets)
        part_delta, pseudo_delta = apply_move_deltas(
            src, targets, weights, self.k, self.pseudo_label
        )
        self.part_weights += part_delta
        self.pseudo_weight += pseudo_delta
        # repro-lint: allow[uncharged-device-write] bulk label scatter priced by the refinement/balancing kernels that computed the move set
        self.partition[vertices] = targets

    # -- consistency ------------------------------------------------------------------

    def validate(self, active_mask: np.ndarray | None = None) -> None:
        """Check label ranges and cached-weight consistency.

        Args:
            active_mask: If given, every active vertex must have a label
                in ``[0, k]`` (real or pseudo) and every inactive vertex
                must be UNASSIGNED.
        """
        labels = self.partition
        if np.any((labels < UNASSIGNED) | (labels > self.pseudo_label)):
            raise PartitionError("partition label out of range")
        expected = partition_weights(self._vwgt, labels, self.k)
        if not np.array_equal(expected, self.part_weights):
            raise PartitionError(
                f"cached part_weights {self.part_weights} != recomputed "
                f"{expected}"
            )
        expected_pseudo = int(
            self._vwgt[labels == self.pseudo_label].sum()
        )
        if expected_pseudo != self.pseudo_weight:
            raise PartitionError(
                f"cached pseudo_weight {self.pseudo_weight} != "
                f"{expected_pseudo}"
            )
        if active_mask is not None:
            active_mask = np.asarray(active_mask, dtype=bool)
            if np.any(labels[active_mask] == UNASSIGNED):
                raise PartitionError("active vertex is UNASSIGNED")
            if np.any(labels[~active_mask] != UNASSIGNED):
                raise PartitionError("deleted vertex still has a label")

    def copy(self) -> "PartitionState":
        out = PartitionState.__new__(PartitionState)
        out.k = self.k
        out.epsilon = self.epsilon
        out.partition = self.partition.copy()
        out._vwgt = self._vwgt.copy()
        out.part_weights = self.part_weights.copy()
        out.pseudo_weight = self.pseudo_weight
        out.cut_acc = self.cut_acc.clone()
        return out

    def restore(self, snapshot: "PartitionState") -> None:
        """Restore this state in place from a :meth:`copy` snapshot.

        In-place (array contents, not identities) so kernels holding a
        reference to ``partition`` keep seeing the live state after a
        transactional rollback.
        """
        if snapshot.k != self.k or snapshot.partition.shape != (
            self.partition.shape
        ):
            raise PartitionError("snapshot does not match this state")
        self.epsilon = snapshot.epsilon
        # repro-lint: allow[uncharged-device-write] rollback copy-back; core.transaction prices it in the coalesced txn_rollback kernel
        self.partition[:] = snapshot.partition
        self._vwgt[:] = snapshot._vwgt
        self.part_weights[:] = snapshot.part_weights
        self.pseudo_weight = snapshot.pseudo_weight
        # Restores the maintained cut matrix bit-identically.
        self.cut_acc.restore_from(snapshot.cut_acc)
