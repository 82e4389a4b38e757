"""Seeded, stationary ECO modifier streams for the end-to-end benchmark.

The streams follow the TAU-2015 incremental setting the paper evaluates
on (see ``repro.eval.workloads``): edge inserts biased toward nearby
vertex IDs, edge deletes, and cell replacements (a vertex deleted, and
later re-inserted with fresh local nets).  They differ from
``generate_trace`` in two ways a time-bounded benchmark needs:

* every draw is O(degree), so a run can keep drawing for as long as it
  measures instead of pre-generating a trace of unknown length;
* the stream is *stationary*: new nets follow ``circuit_graph``'s
  wire-length distribution, edge inserts and deletes are steered toward
  the initial edge count, and re-inserted cells get their nets back, so
  a run that gets further into the stream (faster code) meets the same
  graph statistics, and the same cut quality, as one that does not.

Each stream keeps a :class:`~repro.graph.modifiers.HostGraph` mirror of
the graph it has produced so far: the reference the benchmark checks the
server's final state against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.modifiers import (
    EdgeDelete,
    EdgeInsert,
    HostGraph,
    Modifier,
    VertexDelete,
    VertexInsert,
)

#: New nets have ``circuit_graph``'s defaults: a geometric ID distance
#: of this mean, except a LONG_WIRE_FRACTION of uniformly random ones.
LOCALITY = 30.0
LONG_WIRE_FRACTION = 0.02
#: Cell replacements only target cells of at most this degree.
MAX_DELETE_DEGREE = 48
#: Share of draws that are cell replacements (a delete or a re-insert).
VERTEX_SHARE = 0.3
#: Cap on simultaneously deleted cells, as a share of the vertex count.
MAX_DELETED_SHARE = 0.02


class EcoStream:
    """An unbounded, seeded modifier stream over one evolving graph."""

    def __init__(self, csr: CSRGraph, seed: Sequence[int]):
        self.host = HostGraph.from_csr(csr)
        self.rng = np.random.default_rng(list(seed))
        self.target_edges = self.host.num_edges()
        #: Current edge count of the mirror (kept without a scan).
        self.edges = self.target_edges
        #: Live vertex weight of the mirror, and the most it has been.
        self.weight = self.host.total_active_weight()
        self.peak_weight = self.weight
        self._active: List[int] = list(range(csr.num_vertices))
        self._slot = {u: i for i, u in enumerate(self._active)}
        #: Deleted cells with the degree they had: a re-inserted cell
        #: gets that many local nets back.
        self._deleted: List[tuple] = []
        self._max_deleted = max(1, int(csr.num_vertices * MAX_DELETED_SHARE))

    # -- draws ---------------------------------------------------------------

    def batch(self, count: int) -> List[Modifier]:
        """At least ``count`` applicable modifiers of the steady ECO mix
        (a cell re-insert also emits the edges that reconnect it)."""
        whole = (0, self.host.num_vertex_slots)
        out: List[Modifier] = []
        while len(out) < count:
            if self.rng.random() < VERTEX_SHARE:
                self._cell_replacement(out)
            else:
                self._edge_change(out, self._active, whole)
        return out

    def region_batch(self, count: int, span: int) -> List[Modifier]:
        """``count`` edge changes confined to one window of ``span``
        consecutive vertex IDs: an ECO burst reroutes one neighbourhood
        at once, so the affected set is large and dense."""
        n = self.host.num_vertex_slots
        while True:
            lo = int(self.rng.integers(0, max(1, n - span)))
            hi = min(n, lo + span)
            region = [u for u in range(lo, hi) if self.host.is_active(u)]
            if len(region) >= 2:
                break
        out: List[Modifier] = []
        for _ in range(count):
            self._edge_change(out, region, (lo, hi))
        return out

    # -- modifier kinds ------------------------------------------------------

    def _edge_change(
        self, out: List[Modifier], pool: List[int], bounds: tuple
    ) -> None:
        """Insert a net from, or delete a net of, a cell of ``pool``; a
        new net's other end lies in the ID range ``bounds``."""
        # Steer the edge count back toward its initial value: inserts
        # get likelier as the graph loses edges, and rarer as it gains.
        drift = (self.edges - self.target_edges) / max(self.target_edges, 1)
        p_insert = min(0.9, max(0.1, 0.5 - 5.0 * drift))
        u = pool[int(self.rng.integers(0, len(pool)))]
        if self.rng.random() < p_insert:
            modifier = self._new_net(u, bounds)
        else:
            modifier = self._edge_delete(pool, bounds)
        if modifier is not None:
            self._emit(modifier, out)

    def _edge_delete(
        self, pool: List[int], bounds: tuple
    ) -> Optional[Modifier]:
        """Delete a net of a cell of ``pool`` whose other end lies in
        ``bounds``.  In a burst, new nets stay inside the window, so
        deleted ones must too: otherwise bursts would keep replacing
        long wires with local ones, and the graph, and its cut, would
        drift over the stream."""
        lo, hi = bounds
        for _retry in range(32):
            u = pool[int(self.rng.integers(0, len(pool)))]
            nbrs = [v for v in self.host.neighbors(u) if lo <= v < hi]
            if nbrs:
                v = nbrs[int(self.rng.integers(0, len(nbrs)))]
                return EdgeDelete(u, v)
        return None

    def _new_net(self, u: int, bounds: tuple) -> Optional[Modifier]:
        """An edge from ``u`` drawn like ``circuit_graph``'s nets, with
        its other end in ``bounds``; None when 32 draws all collide."""
        host = self.host
        lo, hi = bounds
        for _retry in range(32):
            if self.rng.random() < LONG_WIRE_FRACTION:
                v = int(self.rng.integers(lo, hi))
            else:
                step = int(self.rng.geometric(1.0 / LOCALITY))
                v = u + step if self.rng.random() < 0.5 else u - step
            if (
                lo <= v < hi
                and v != u
                and host.is_active(v)
                and not host.has_edge(u, v)
            ):
                return EdgeInsert(u, v)
        return None

    def _cell_replacement(self, out: List[Modifier]) -> None:
        if self._deleted and (
            len(self._deleted) >= self._max_deleted
            or self.rng.random() < 0.5
        ):
            index = int(self.rng.integers(0, len(self._deleted)))
            self._deleted[index], self._deleted[-1] = (
                self._deleted[-1],
                self._deleted[index],
            )
            u, degree = self._deleted.pop()
            self._emit(VertexInsert(u), out)
            whole = (0, self.host.num_vertex_slots)
            for _ in range(degree):
                edge = self._new_net(u, whole)
                if edge is not None:
                    self._emit(edge, out)
            return
        for _retry in range(32):
            u = self._active[int(self.rng.integers(0, len(self._active)))]
            degree = self.host.degree(u)
            if degree <= MAX_DELETE_DEGREE:
                self._deleted.append((u, degree))
                self._emit(VertexDelete(u), out)
                return

    # -- mirror --------------------------------------------------------------

    def _emit(self, modifier: Modifier, out: List[Modifier]) -> None:
        """Apply ``modifier`` to the mirror and append it to ``out``."""
        if isinstance(modifier, EdgeInsert):
            self.edges += 1
        elif isinstance(modifier, EdgeDelete):
            self.edges -= 1
        elif isinstance(modifier, VertexDelete):
            self.edges -= self.host.degree(modifier.u)
            self.weight -= self.host.vwgt[modifier.u]
            slot = self._slot.pop(modifier.u)
            last = self._active.pop()
            if last != modifier.u:
                self._active[slot] = last
                self._slot[last] = slot
        else:
            self.weight += modifier.weight
            self.peak_weight = max(self.peak_weight, self.weight)
            self._slot[modifier.u] = len(self._active)
            self._active.append(modifier.u)
        self.host.apply(modifier)
        out.append(modifier)
