"""The paper's bucket-list graph representation (Section V.A, Figure 4).

Neighbors of each vertex are stored in *buckets* of 32 slots — one slot
per warp lane — so a warp can scan a whole bucket with a single coalesced
load and combine per-lane results with ``__ballot_sync``.  Vertex ``u``
initially owns ``ceil(D(u) / 32) + gamma`` contiguous buckets, the
``gamma`` spare buckets absorbing future edge insertions.  All buckets
live in one pre-allocated pool; a tail pointer tracks how many are in
use, so growing a vertex (or inserting a new one) is a pointer bump, and
*no modifier ever rebuilds the structure*.

Deviation from the paper's notation (documented in DESIGN.md): we store
``bucket_start[u]`` and ``bucket_count[u]`` instead of a monotonic
``bucket_ptr`` array, because appending buckets for re-inserted vertices
at the pool tail breaks monotonicity for interior vertices.  The paper's
``bucket_ptr[u + 1] - bucket_ptr[u]`` is exactly ``bucket_count[u]``.

Empty slots hold :data:`EMPTY` (the paper's ∅).  Edge weights are kept in
``slot_wgt``, aligned slot-for-slot with ``bucket_list``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.modifiers import HostGraph
from repro.utils.errors import CapacityError, GraphConsistencyError

#: Sentinel for an empty slot (the paper's ∅).
EMPTY = np.int64(-1)

#: Slots per bucket == CUDA warp size (Section V.A).
SLOTS_PER_BUCKET = 32

#: Vertex status values (Algorithm 2's ``vertex_status`` array).
STATUS_DELETED = np.uint8(0)
STATUS_ACTIVE = np.uint8(1)


class GraphUndoLog:
    """Pre-image log for one transactional batch on a bucket-list graph.

    Every mutation path of :class:`BucketListGraph` (slot writes, bucket
    allocation / relocation, status flips, tail-pointer and vertex-ID
    bumps) records the values it is about to overwrite.  ``rollback``
    replays the entries in reverse, restoring the graph bit-identically
    to its state when the log was opened — the n-Level insight that a
    fine-grained undo log is far cheaper than a rebuild.

    The log never charges the GPU ledger while recording (the pre-images
    ride along with writes the kernels already pay for); rolling back is
    charged by the transaction layer that requested it.
    """

    __slots__ = ("graph", "entries", "slot_writes")

    def __init__(self, graph: "BucketListGraph") -> None:
        self.graph = graph
        #: Reverse-ordered tuples; first element is the entry kind.
        self.entries: list[tuple] = []
        #: Total slots whose pre-image was recorded (rollback cost /
        #: fault-injection probe counter).
        self.slot_writes = 0

    def note_slots(self, idx: "int | np.integer | np.ndarray") -> None:
        """Record ``bucket_list`` / ``slot_wgt`` pre-images for ``idx``
        (a scalar slot position or an int64 array of positions)."""
        g = self.graph
        if isinstance(idx, (int, np.integer)):
            self.entries.append(
                (
                    "slot",
                    int(idx),
                    int(g.bucket_list[idx]),
                    int(g.slot_wgt[idx]),
                )
            )
            self.slot_writes += 1
        else:
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size == 0:
                return
            self.entries.append(
                (
                    "slots",
                    idx.copy(),
                    g.bucket_list[idx].copy(),
                    g.slot_wgt[idx].copy(),
                )
            )
            self.slot_writes += int(idx.size)

    def note_vertex_meta(self, u: int) -> None:
        g = self.graph
        self.entries.append(
            ("meta", int(u), int(g.bucket_start[u]), int(g.bucket_count[u]))
        )

    def note_status(self, u: int) -> None:
        g = self.graph
        self.entries.append(
            ("status", int(u), g.vertex_status[u], int(g.vwgt[u]))
        )

    def note_scalars(self) -> None:
        g = self.graph
        self.entries.append(
            (
                "scalars",
                g.num_vertices,
                g.num_buckets_used,
                g.geometry_generation,
            )
        )

    def rollback(self) -> None:
        """Restore every recorded pre-image, newest first."""
        g = self.graph
        for entry in reversed(self.entries):
            kind = entry[0]
            if kind == "slot":
                _, idx, value, weight = entry
                g.bucket_list[idx] = value
                g.slot_wgt[idx] = weight
            elif kind == "slots":
                _, idx, values, weights = entry
                g.bucket_list[idx] = values
                g.slot_wgt[idx] = weights
            elif kind == "meta":
                _, u, start, count = entry
                g.bucket_start[u] = start
                g.bucket_count[u] = count
            elif kind == "status":
                _, u, status, weight = entry
                g.vertex_status[u] = status
                g.vwgt[u] = weight
            else:  # scalars
                _, num_vertices, num_buckets_used, generation = entry
                g.num_vertices = num_vertices
                g.num_buckets_used = num_buckets_used
                g.geometry_generation = generation
        self.entries.clear()
        # The gather cache may hold geometry from the aborted batch; the
        # generation counter was rolled back, so a *future* bump could
        # collide with a stale stamp.  Drop it — it rebuilds lazily.
        g._gather_cache.clear()


class BucketListGraph:
    """GPU-resident dynamic undirected graph stored in 32-slot buckets.

    The arrays below are "device memory"; kernels in :mod:`repro.core`
    operate on them through the warp model.  Host-side helper methods
    (``neighbors``, ``degree``, ``to_host_graph`` ...) exist for tests,
    verification and reporting and are never charged to the GPU ledger.

    Attributes:
        bucket_list: ``int64[pool_slots]`` neighbor IDs, EMPTY when free.
        slot_wgt: ``int64[pool_slots]`` edge weights aligned with slots.
        bucket_start: ``int64[capacity]`` first bucket index of each vertex.
        bucket_count: ``int64[capacity]`` buckets owned by each vertex.
        vertex_status: ``uint8[capacity]`` ACTIVE / DELETED flags.
        vwgt: ``int64[capacity]`` vertex weights.
        num_vertices: current vertex-ID high-water mark.
        num_buckets_used: pool tail pointer.
    """

    def __init__(
        self,
        capacity: int,
        pool_buckets: int,
        gamma: int = 1,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if pool_buckets <= 0:
            raise ValueError("pool_buckets must be positive")
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        self.gamma = gamma
        self.capacity = capacity
        self.pool_buckets = pool_buckets
        pool_slots = pool_buckets * SLOTS_PER_BUCKET
        self.bucket_list = np.full(pool_slots, EMPTY, dtype=np.int64)
        self.slot_wgt = np.zeros(pool_slots, dtype=np.int64)
        self.bucket_start = np.zeros(capacity, dtype=np.int64)
        self.bucket_count = np.zeros(capacity, dtype=np.int64)
        self.vertex_status = np.full(capacity, STATUS_DELETED, dtype=np.uint8)
        self.vwgt = np.ones(capacity, dtype=np.int64)
        self.num_vertices = 0
        self.num_buckets_used = 0
        # Bucket-geometry generation: bumped whenever any vertex's
        # bucket_start/bucket_count changes (allocation, relocation, new
        # vertex ID).  Host-side gather caches are stamped with it, so a
        # stale cache can never be observed.  Edge inserts/deletes do not
        # bump it — they only rewrite slot *contents*, which the caches
        # never store.
        self.geometry_generation = 0
        self._gather_cache: dict[bytes, tuple[int, np.ndarray, np.ndarray]] = {}
        # Active undo log (one transactional batch at a time) and an
        # optional fault-injection probe called after each slot-group
        # pre-image is captured (see repro.utils.faultinject).
        self._undo: GraphUndoLog | None = None
        self._write_probe = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_csr(
        cls,
        csr: CSRGraph,
        gamma: int = 1,
        capacity_factor: float = 1.5,
        pool_slack_buckets: int | None = None,
    ) -> "BucketListGraph":
        """Build the bucket list from a CSR (the initial FGP output graph).

        Args:
            csr: Source graph.
            gamma: Spare buckets per vertex (paper default: 1).
            capacity_factor: Vertex-ID capacity as a multiple of ``n``,
                reserving room for future vertex insertions.
            pool_slack_buckets: Extra buckets kept free at the pool tail
                for vertices inserted later; defaults to one bucket per
                reserved vertex slot.
        """
        n = csr.num_vertices
        capacity = max(n, int(math.ceil(n * capacity_factor)))
        degrees = csr.degrees()
        counts = np.ceil(degrees / SLOTS_PER_BUCKET).astype(np.int64) + gamma
        counts = np.maximum(counts, 1)
        needed = int(counts.sum())
        if pool_slack_buckets is None:
            pool_slack_buckets = max(capacity - n, n // 4) + 64
        graph = cls(capacity, needed + pool_slack_buckets, gamma=gamma)
        graph.num_vertices = n
        graph.bucket_count[:n] = counts
        graph.bucket_start[1:n] = np.cumsum(counts[:-1])
        graph.num_buckets_used = needed
        graph.vertex_status[:n] = STATUS_ACTIVE
        graph.vwgt[:n] = csr.vwgt
        # Scatter neighbors into the head slots of each vertex's buckets.
        slot_base = graph.bucket_start[:n] * SLOTS_PER_BUCKET
        positions = (
            np.repeat(slot_base, degrees)
            + _ramp(degrees)
        )
        graph.bucket_list[positions] = csr.adjncy
        graph.slot_wgt[positions] = csr.adjwgt
        return graph

    def compacted(
        self, gamma: int = 1, capacity_factor: float = 1.5
    ) -> "BucketListGraph":
        """A fresh bucket list holding this graph, vertex IDs preserved.

        The pool is rebuilt tight: every vertex ID below
        :attr:`num_vertices` gets ``ceil(D(u) / 32) + gamma`` contiguous
        buckets in ID order, its filled slots packed at the head in
        their old slot order, and the tail keeps one spare bucket per
        reserved vertex ID (plus one).  Deleted IDs stay deleted, with
        weight 1.  This is the escalation path's repair for a pool that
        relocations and re-inserts have exhausted.
        """
        n = self.num_vertices
        capacity = max(n, int(math.ceil(n * capacity_factor)))
        positions, neighbors, weights = self.filled_slots()
        owner = self.slot_owners(positions)
        # Stable: a vertex's slots keep their pool (= slot) order.
        order = np.argsort(owner, kind="stable")
        degrees = np.bincount(owner, minlength=n)
        counts = np.maximum(
            np.ceil(degrees / SLOTS_PER_BUCKET).astype(np.int64) + gamma, 1
        )
        needed = int(counts.sum())
        graph = BucketListGraph(
            capacity, needed + (capacity - n + 1), gamma=gamma
        )
        graph.num_vertices = n
        graph.bucket_count[:n] = counts
        graph.bucket_start[1:n] = np.cumsum(counts[:-1])
        graph.num_buckets_used = needed
        active = self.vertex_status[:n] == STATUS_ACTIVE
        graph.vertex_status[:n] = self.vertex_status[:n]
        graph.vwgt[:n] = np.where(active, self.vwgt[:n], 1)
        new_positions = (
            np.repeat(graph.bucket_start[:n] * SLOTS_PER_BUCKET, degrees)
            + _ramp(degrees)
        )
        graph.bucket_list[new_positions] = neighbors[order]
        graph.slot_wgt[new_positions] = weights[order]
        return graph

    # -- slot geometry -----------------------------------------------------------

    def slot_range(self, u: int) -> tuple[int, int]:
        """Return ``(first_slot, n_slots)`` of vertex ``u``'s buckets."""
        start = int(self.bucket_start[u]) * SLOTS_PER_BUCKET
        n_slots = int(self.bucket_count[u]) * SLOTS_PER_BUCKET
        return start, n_slots

    def slots(self, u: int) -> np.ndarray:
        """View of ``u``'s slot values (including EMPTY slots)."""
        start, n_slots = self.slot_range(u)
        return self.bucket_list[start : start + n_slots]

    def slot_weights(self, u: int) -> np.ndarray:
        start, n_slots = self.slot_range(u)
        return self.slot_wgt[start : start + n_slots]

    #: Max memoized gather entries (FIFO eviction); each entry holds two
    #: int64 arrays roughly the size of the vertex set's slot count.
    GATHER_CACHE_ENTRIES = 8

    def slot_index_arrays(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flattened slot indices for a set of vertices (memoized).

        Returns ``(slot_indices, owner)`` where ``slot_indices`` is every
        slot position belonging to a vertex in ``vertices`` (in vertex
        order) and ``owner[i]`` is the index *into ``vertices``* that owns
        slot ``slot_indices[i]``.  This is the gather pattern the
        vectorized kernels use to process many warps at once.

        Repeated calls with the same vertex set (refinement rounds, the
        per-iteration cut computation) return a cached pair stamped with
        :attr:`geometry_generation`; any bucket allocation, relocation or
        new vertex ID invalidates the stamp.  Callers must treat the
        returned arrays as read-only.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        key = vertices.tobytes()
        hit = self._gather_cache.get(key)
        if hit is not None and hit[0] == self.geometry_generation:
            return hit[1], hit[2]
        n_slots = self.bucket_count[vertices] * SLOTS_PER_BUCKET
        base = self.bucket_start[vertices] * SLOTS_PER_BUCKET
        slot_indices = np.repeat(base, n_slots) + _ramp(n_slots)
        owner = np.repeat(np.arange(vertices.size), n_slots)
        if len(self._gather_cache) >= self.GATHER_CACHE_ENTRIES:
            self._gather_cache.pop(next(iter(self._gather_cache)))
        self._gather_cache[key] = (
            self.geometry_generation, slot_indices, owner
        )
        return slot_indices, owner

    def slot_owners(self, positions: np.ndarray) -> np.ndarray:
        """The vertex whose bucket range holds each slot in ``positions``.

        Every position must lie inside some vertex's current range, as
        every filled slot does (a relocation blanks the range it
        leaves).  Ranges are disjoint and only ever handed out from the
        pool tail, so a slot's owner is the vertex with the greatest
        range start at or below it: one ``searchsorted`` over the
        vertices' starts, sized by the vertex count, not the pool.
        """
        owners = np.flatnonzero(self.bucket_count[: self.num_vertices] > 0)
        starts = self.bucket_start[owners] * SLOTS_PER_BUCKET
        order = np.argsort(starts, kind="stable")
        index = np.searchsorted(starts[order], positions, side="right") - 1
        return owners[order[index]]

    def _touch_geometry(self) -> None:
        """Invalidate gather caches after a bucket-geometry change."""
        self.geometry_generation += 1

    # -- transactional undo ------------------------------------------------------

    def begin_undo(self) -> GraphUndoLog:
        """Open a pre-image log; every mutation until ``commit_undo`` /
        ``rollback_undo`` records what it overwrites.  Transactions do
        not nest — the graph is a single device structure."""
        if self._undo is not None:
            raise GraphConsistencyError(
                "an undo log is already active on this graph"
            )
        self._undo = GraphUndoLog(self)
        return self._undo

    def commit_undo(self) -> GraphUndoLog:
        """Discard the active log, keeping all mutations."""
        if self._undo is None:
            raise GraphConsistencyError("no active undo log to commit")
        log, self._undo = self._undo, None
        return log

    def rollback_undo(self) -> GraphUndoLog:
        """Replay the active log in reverse, restoring the pre-batch
        state bit-identically, then close it."""
        if self._undo is None:
            raise GraphConsistencyError("no active undo log to roll back")
        log, self._undo = self._undo, None
        log.rollback()
        return log

    def _undo_slots(self, idx: "int | np.integer | np.ndarray") -> None:
        """Hook: record slot pre-images before overwriting ``idx``.

        When a write probe is installed (fault injection), it fires
        *after* the pre-image is captured — a raised error then models a
        mid-kernel abort whose partial writes the log can still undo.
        """
        if self._undo is not None:
            self._undo.note_slots(idx)
            if self._write_probe is not None:
                self._write_probe(self._undo.slot_writes)
        elif self._write_probe is not None:
            size = 1 if isinstance(idx, (int, np.integer)) else len(idx)
            self._write_probe(size)

    def _undo_vertex_meta(self, u: int) -> None:
        if self._undo is not None:
            self._undo.note_vertex_meta(u)

    def _undo_status(self, u: int) -> None:
        if self._undo is not None:
            self._undo.note_status(u)

    def _undo_scalars(self) -> None:
        if self._undo is not None:
            self._undo.note_scalars()

    # -- host-side queries ---------------------------------------------------------

    def is_active(self, u: int) -> bool:
        return bool(self.vertex_status[u] == STATUS_ACTIVE)

    def active_vertices(self) -> np.ndarray:
        return np.flatnonzero(
            self.vertex_status[: self.num_vertices] == STATUS_ACTIVE
        )

    def num_active_vertices(self) -> int:
        return int(
            (self.vertex_status[: self.num_vertices] == STATUS_ACTIVE).sum()
        )

    def degree(self, u: int) -> int:
        return int((self.slots(u) != EMPTY).sum())

    def degrees(self, vertices: np.ndarray | None = None) -> np.ndarray:
        if vertices is None:
            vertices = np.arange(self.num_vertices)
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return np.zeros(0, dtype=np.int64)
        slot_idx, owner = self.slot_index_arrays(vertices)
        filled = self.bucket_list[slot_idx] != EMPTY
        return np.bincount(
            owner[filled], minlength=vertices.size
        ).astype(np.int64)

    def neighbors(self, u: int) -> np.ndarray:
        values = self.slots(u)
        return values[values != EMPTY]

    def neighbor_weights(self, u: int) -> np.ndarray:
        values = self.slots(u)
        return self.slot_weights(u)[values != EMPTY]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.slots(u) == v))

    def edge_weight(self, u: int, v: int) -> int:
        values = self.slots(u)
        hits = np.flatnonzero(values == v)
        if hits.size == 0:
            raise KeyError(f"edge ({u}, {v}) not present")
        return int(self.slot_weights(u)[hits[0]])

    def num_edges(self) -> int:
        # One contiguous scan over the used pool: every filled slot is
        # one arc (deactivation blanks a vertex's slots and modifier
        # expansion removes dangling references, so deleted vertices
        # contribute nothing — the same invariant ``validate`` checks).
        used_slots = self.num_buckets_used * SLOTS_PER_BUCKET
        if used_slots == 0:
            return 0
        return int(
            np.count_nonzero(self.bucket_list[:used_slots] != EMPTY)
        ) // 2

    def total_active_weight(self) -> int:
        active = self.active_vertices()
        return int(self.vwgt[active].sum())

    def nbytes(self) -> int:
        """Device-memory footprint (used for transfer cost accounting)."""
        return (
            self.bucket_list.nbytes
            + self.slot_wgt.nbytes
            + self.bucket_start.nbytes
            + self.bucket_count.nbytes
            + self.vertex_status.nbytes
            + self.vwgt.nbytes
        )

    # -- allocation ------------------------------------------------------------------

    def allocate_buckets(self, n_buckets: int) -> int:
        """Bump the pool tail by ``n_buckets``; returns the first bucket.

        Mirrors the paper's "pre-allocate a large block of memory ... and
        use a pointer to track the current number of buckets".
        """
        if n_buckets <= 0:
            raise ValueError("n_buckets must be positive")
        if self.num_buckets_used + n_buckets > self.pool_buckets:
            raise CapacityError(
                f"bucket pool exhausted: need {n_buckets} more buckets, "
                f"{self.pool_buckets - self.num_buckets_used} free; "
                f"increase gamma or the pool slack"
            )
        self._undo_scalars()
        start = self.num_buckets_used
        self.num_buckets_used += n_buckets
        first_slot = start * SLOTS_PER_BUCKET
        last_slot = self.num_buckets_used * SLOTS_PER_BUCKET
        self._undo_slots(np.arange(first_slot, last_slot, dtype=np.int64))
        self.bucket_list[first_slot:last_slot] = EMPTY
        self.slot_wgt[first_slot:last_slot] = 0
        self._touch_geometry()
        return start

    def assign_new_buckets(self, u: int, n_buckets: int = 1) -> None:
        """Allocate ``n_buckets`` fresh buckets and hand them to ``u``.

        The Algorithm 2 path for brand-new vertex IDs ("assign u a single
        bucket and add the bucket to the end of the bucket-list"), kept
        here so the geometry caches see the assignment.
        """
        bucket = self.allocate_buckets(n_buckets)
        self._undo_vertex_meta(u)
        self.bucket_start[u] = bucket
        self.bucket_count[u] = n_buckets

    def new_vertex_id(self) -> int:
        """Reserve the next vertex ID from the capacity region."""
        if self.num_vertices >= self.capacity:
            raise CapacityError(
                f"vertex capacity {self.capacity} exhausted; rebuild with a "
                f"larger capacity_factor"
            )
        self._undo_scalars()
        u = self.num_vertices
        self.num_vertices += 1
        return u

    def relocate_with_extra_buckets(self, u: int, extra: int = 1) -> int:
        """Move ``u``'s buckets to the pool tail with ``extra`` more buckets.

        This is the overflow path when every slot of ``u`` is full and an
        edge insertion arrives: instead of failing (the strict reading of
        Algorithm 1), the vertex's slots are copied into a fresh, larger
        allocation.  Returns the number of slots copied so callers can
        charge the move to the ledger.  The old buckets are abandoned in
        place (the pool is append-only, like the paper's).
        """
        old_start, old_slots = self.slot_range(u)
        old_count = int(self.bucket_count[u])
        new_count = old_count + extra
        new_bucket = self.allocate_buckets(new_count)
        new_start = new_bucket * SLOTS_PER_BUCKET
        # The new region's pre-image is covered by allocate_buckets; log
        # the old region (about to be blanked) and u's geometry.
        self._undo_slots(
            np.arange(old_start, old_start + old_slots, dtype=np.int64)
        )
        self._undo_vertex_meta(u)
        self.bucket_list[new_start : new_start + old_slots] = self.bucket_list[
            old_start : old_start + old_slots
        ]
        self.slot_wgt[new_start : new_start + old_slots] = self.slot_wgt[
            old_start : old_start + old_slots
        ]
        # Abandon (and blank) the old region so stale values can never be
        # observed by a later scan of a vertex that reuses the range.
        self.bucket_list[old_start : old_start + old_slots] = EMPTY
        self.slot_wgt[old_start : old_start + old_slots] = 0
        self.bucket_start[u] = new_bucket
        self.bucket_count[u] = new_count
        return old_slots

    # -- checkpoint encoding ------------------------------------------------------------

    def filled_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, neighbors, weights)`` of every filled pool slot.

        Positions are strictly increasing and lie inside the used pool
        prefix.  With the tail pointer and the per-vertex arrays they
        encode the whole pool: every other slot is EMPTY with weight 0,
        because each path that empties a slot also zeroes its weight and
        nothing writes past the tail.  :meth:`scatter_filled_slots` is
        the inverse.
        """
        used_slots = self.num_buckets_used * SLOTS_PER_BUCKET
        positions = np.flatnonzero(self.bucket_list[:used_slots] != EMPTY)
        return (
            positions,
            self.bucket_list[positions],
            self.slot_wgt[positions],
        )

    def scatter_filled_slots(
        self,
        positions: np.ndarray,
        neighbors: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Write slots encoded by :meth:`filled_slots` into this graph's
        fresh, all-EMPTY pool, each at its original position — the first
        empty slot a warp's ``__ffs`` finds is the same as before.

        The arrays come from outside the program (a checkpoint file), so
        they are checked first: three one-dimensional integer arrays of
        equal length, positions strictly increasing inside the used pool
        prefix ``[0, num_buckets_used * 32)``.  Raises ``ValueError``
        otherwise.
        """
        arrays = (positions, neighbors, weights)
        if len({a.shape for a in arrays}) != 1 or positions.ndim != 1:
            raise ValueError(
                "filled-slot arrays must be one-dimensional and of equal "
                f"length, got shapes {[a.shape for a in arrays]}"
            )
        if not all(np.issubdtype(a.dtype, np.integer) for a in arrays):
            raise ValueError(
                "filled-slot arrays must have an integer dtype, got "
                f"{[str(a.dtype) for a in arrays]}"
            )
        positions = positions.astype(np.int64, copy=False)
        used_slots = self.num_buckets_used * SLOTS_PER_BUCKET
        if positions.size and (
            positions[0] < 0
            or positions[-1] >= used_slots
            or np.any(np.diff(positions) <= 0)
        ):
            raise ValueError(
                "filled-slot positions must be strictly increasing inside "
                f"the used pool prefix [0, {used_slots})"
            )
        self.bucket_list[positions] = neighbors
        self.slot_wgt[positions] = weights

    # -- export / verification ----------------------------------------------------------

    def to_host_graph(self) -> HostGraph:
        """Materialize the active subgraph as a :class:`HostGraph`."""
        host = HostGraph(self.num_vertices)
        for u in range(self.num_vertices):
            host.active[u] = self.is_active(u)
            host.vwgt[u] = int(self.vwgt[u])
        for u in range(self.num_vertices):
            if not self.is_active(u):
                continue
            values = self.slots(u)
            weights = self.slot_weights(u)
            mask = values != EMPTY
            for v, w in zip(values[mask], weights[mask]):
                host.adj[u][int(v)] = int(w)
        return host

    def to_csr(self) -> tuple[CSRGraph, np.ndarray]:
        """Compact the active subgraph to CSR (returns ``(csr, id_map)``).

        ``id_map[i]`` is the vertex ID of compacted vertex ``i``.  Each
        undirected edge is taken once, from its lower-ID endpoint's
        slot; :meth:`CSRGraph.from_edges` sorts the arcs, so the result
        equals ``to_host_graph().to_csr()``.
        """
        id_map = self.active_vertices().astype(np.int64)
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[id_map] = np.arange(id_map.size, dtype=np.int64)
        positions, neighbors, weights = self.filled_slots()
        owner = self.slot_owners(positions)
        lower = owner < neighbors
        edges = np.stack(
            [remap[owner[lower]], remap[neighbors[lower]]], axis=1
        )
        csr = CSRGraph.from_edges(
            id_map.size, edges, weights[lower], self.vwgt[id_map]
        )
        return csr, id_map

    def validate(self) -> None:
        """Check every structural invariant; raises on violation.

        Invariants: deleted vertices have no filled slots pointing *to*
        them and none of their own; adjacency is symmetric with equal
        weights; no self-loops; no duplicate neighbors; bucket ranges
        stay within the pool and do not overlap.
        """
        n = self.num_vertices
        # Bucket ranges within pool and non-overlapping.
        intervals = []
        for u in range(n):
            start = int(self.bucket_start[u])
            count = int(self.bucket_count[u])
            if count <= 0:
                raise GraphConsistencyError(f"vertex {u} owns no buckets")
            if start < 0 or start + count > self.num_buckets_used:
                raise GraphConsistencyError(
                    f"vertex {u} bucket range [{start}, {start + count}) "
                    f"outside used pool [0, {self.num_buckets_used})"
                )
            intervals.append((start, start + count, u))
        intervals.sort()
        for (s1, e1, u1), (s2, e2, u2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                raise GraphConsistencyError(
                    f"buckets of vertices {u1} and {u2} overlap"
                )
        # Per-vertex slot content checks.
        adjacency: dict[tuple[int, int], int] = {}
        for u in range(n):
            values = self.slots(u)
            weights = self.slot_weights(u)
            mask = values != EMPTY
            nbrs = values[mask]
            if not self.is_active(u):
                if nbrs.size:
                    raise GraphConsistencyError(
                        f"deleted vertex {u} still has neighbors"
                    )
                continue
            if np.any(nbrs == u):
                raise GraphConsistencyError(f"vertex {u} has a self-loop")
            if np.unique(nbrs).size != nbrs.size:
                raise GraphConsistencyError(
                    f"vertex {u} has duplicate neighbor slots"
                )
            if nbrs.size and (nbrs.min() < 0 or nbrs.max() >= n):
                raise GraphConsistencyError(
                    f"vertex {u} references an out-of-range neighbor"
                )
            for v, w in zip(nbrs, weights[mask]):
                if not self.is_active(int(v)):
                    raise GraphConsistencyError(
                        f"vertex {u} references deleted vertex {int(v)}"
                    )
                adjacency[(u, int(v))] = int(w)
        for (u, v), w in adjacency.items():
            if adjacency.get((v, u)) != w:
                raise GraphConsistencyError(
                    f"asymmetric edge ({u}, {v}): {w} vs "
                    f"{adjacency.get((v, u))}"
                )


def _ramp(lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(L)`` for each L in ``lengths``.

    >>> _ramp(np.array([2, 0, 3]))
    array([0, 1, 0, 1, 2])
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
