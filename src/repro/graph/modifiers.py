"""Graph modifiers and a host-side reference graph.

Section II of the paper defines four modifiers: vertex insertion
(``M_u^+``), vertex deletion (``M_u^-``), edge insertion (``M_(u,v)^+``)
and edge deletion (``M_(u,v)^-``).  This module provides:

* typed modifier records and :class:`ModifierBatch` (one incremental
  iteration's worth of modifiers),
* :class:`HostGraph`, a plain dictionary-based dynamic graph that serves
  as the *reference semantics* for modifiers.  The bucket-list GPU
  structure is differentially tested against it, and the baseline
  G-kway† uses it as the CPU-side graph it rebuilds CSRs from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.errors import ModifierError


@dataclass(frozen=True)
class VertexInsert:
    """``M_u^+``: (re-)insert vertex ``u`` with weight ``weight``.

    The vertex starts with no incident edges; edges are added by
    subsequent :class:`EdgeInsert` modifiers, matching Algorithm 2.
    """

    u: int
    weight: int = 1


@dataclass(frozen=True)
class VertexDelete:
    """``M_u^-``: delete vertex ``u`` and all its incident edges."""

    u: int


@dataclass(frozen=True)
class EdgeInsert:
    """``M_(u,v)^+``: insert undirected edge ``(u, v)`` with ``weight``."""

    u: int
    v: int
    weight: int = 1


@dataclass(frozen=True)
class EdgeDelete:
    """``M_(u,v)^-``: delete undirected edge ``(u, v)``."""

    u: int
    v: int


Modifier = Union[VertexInsert, VertexDelete, EdgeInsert, EdgeDelete]


def _edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def coalesce_modifiers_indexed(
    modifiers: Iterable[Modifier],
) -> Tuple[List[Modifier], List[int], Dict[str, int]]:
    """Collapse redundant pending work out of a modifier sequence.

    Three context-free rules, each preserving the net effect on *any*
    base graph the raw sequence applies cleanly to:

    * **cancellation** — a pending :class:`EdgeInsert` followed by an
      :class:`EdgeDelete` of the same edge removes both (the edge was
      absent before the insert and is absent after the delete);
    * **dedup** — an :class:`EdgeInsert` (or :class:`VertexInsert`)
      identical to one still pending is dropped, making idempotent
      double-submission from stream producers harmless;
    * **subsumption** — :class:`VertexDelete` removes every pending edge
      modifier incident to the vertex, since deleting the vertex drops
      all its edges anyway.

    Vertex insert/delete pairs are *never* cancelled: a
    :class:`VertexInsert` of a brand-new ID extends the vertex-ID space,
    which later modifiers may rely on.

    Returns ``(surviving_modifiers, surviving_indices, stats)`` where
    ``surviving_indices[i]`` is the position the ``i``-th survivor held
    in the input sequence (the stream layer maps these back to journal
    sequence numbers when isolating poison modifiers) and ``stats``
    counts ``input`` / ``output`` modifiers and per-rule drops
    (``cancelled`` counts both halves of each insert+delete pair).
    """
    mods = list(modifiers)
    live: Dict[int, Modifier] = {}
    # Per-edge stack of live op indices (in order), and per-vertex set of
    # edge keys with live ops, for O(1) subsumption.
    edge_ops: Dict[Tuple[int, int], List[int]] = {}
    touching: Dict[int, set] = {}
    # Last live vertex-status op per vertex (index into ``live``).
    vert_last: Dict[int, int] = {}
    stats = {
        "input": len(mods),
        "output": 0,
        "cancelled": 0,
        "deduplicated": 0,
        "subsumed": 0,
    }

    def push_edge_op(idx: int, mod: Modifier, key: Tuple[int, int]) -> None:
        live[idx] = mod
        edge_ops.setdefault(key, []).append(idx)
        touching.setdefault(key[0], set()).add(key)
        touching.setdefault(key[1], set()).add(key)

    for idx, mod in enumerate(mods):
        if isinstance(mod, EdgeInsert):
            key = _edge_key(mod.u, mod.v)
            stack = edge_ops.get(key)
            if stack:
                top = live[stack[-1]]
                if isinstance(top, EdgeInsert) and top.weight == mod.weight:
                    stats["deduplicated"] += 1
                    continue
            push_edge_op(idx, mod, key)
        elif isinstance(mod, EdgeDelete):
            key = _edge_key(mod.u, mod.v)
            stack = edge_ops.get(key)
            if stack and isinstance(live[stack[-1]], EdgeInsert):
                del live[stack.pop()]
                stats["cancelled"] += 2
                continue
            push_edge_op(idx, mod, key)
        elif isinstance(mod, VertexDelete):
            for key in touching.pop(mod.u, set()):
                for i in edge_ops.get(key, ()):
                    if i in live:
                        del live[i]
                        stats["subsumed"] += 1
                edge_ops[key] = []
                other = key[0] if key[1] == mod.u else key[1]
                if other in touching:
                    touching[other].discard(key)
            live[idx] = mod
            vert_last[mod.u] = idx
        elif isinstance(mod, VertexInsert):
            prev_idx = vert_last.get(mod.u)
            prev = live.get(prev_idx) if prev_idx is not None else None
            if (
                isinstance(prev, VertexInsert)
                and prev.weight == mod.weight
            ):
                stats["deduplicated"] += 1
                continue
            live[idx] = mod
            vert_last[mod.u] = idx
        else:
            raise ModifierError(f"unknown modifier {mod!r}")

    indices = sorted(live)
    out = [live[idx] for idx in indices]
    stats["output"] = len(out)
    return out, indices, stats


def validate_batch(modifiers: Iterable[Modifier]) -> None:
    """Reject intra-batch inconsistencies before they reach a kernel.

    Context-free checks (no base graph needed): an edge modifier may not
    reference a vertex deleted *earlier in the same batch* (without a
    re-insert in between) — previously such an ``EdgeInsert`` silently
    wrote a neighbor slot into the deleted vertex's blanked buckets,
    corrupting the bucket list.  Also rejected: self-loops, duplicate
    pending edge inserts / deletes of the same edge, and double
    insert/delete of the same vertex.

    Raises :class:`~repro.utils.errors.ModifierError` on the first
    violation.
    """
    # None = untouched this batch; True = (re-)inserted; False = deleted.
    vertex_state: Dict[int, bool] = {}
    # Last pending op kind per edge: True = insert, False = delete.
    edge_state: Dict[Tuple[int, int], bool] = {}

    def check_endpoint(w: int, mod: Modifier) -> None:
        if vertex_state.get(w) is False:
            raise ModifierError(
                f"{mod!r} references vertex {w} deleted earlier "
                "in the same batch"
            )

    for mod in modifiers:
        if isinstance(mod, (EdgeInsert, EdgeDelete)):
            if mod.u == mod.v:
                raise ModifierError(f"{mod!r} is a self-loop")
            check_endpoint(mod.u, mod)
            check_endpoint(mod.v, mod)
            key = _edge_key(mod.u, mod.v)
            inserting = isinstance(mod, EdgeInsert)
            if edge_state.get(key) is inserting:
                kind = "insert" if inserting else "delete"
                raise ModifierError(
                    f"duplicate pending edge {kind} for edge {key} "
                    "in the same batch"
                )
            edge_state[key] = inserting
        elif isinstance(mod, VertexInsert):
            if vertex_state.get(mod.u) is True:
                raise ModifierError(
                    f"vertex {mod.u} inserted twice in the same batch"
                )
            vertex_state[mod.u] = True
        elif isinstance(mod, VertexDelete):
            if vertex_state.get(mod.u) is False:
                raise ModifierError(
                    f"vertex {mod.u} deleted twice in the same batch"
                )
            vertex_state[mod.u] = False
            # The delete subsumes pending state of its incident edges.
            for key in [k for k in edge_state if mod.u in k]:
                del edge_state[key]
        else:
            raise ModifierError(f"unknown modifier {mod!r}")


@dataclass
class ModifierBatch:
    """The modifiers applied in one incremental iteration."""

    modifiers: List[Modifier] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.modifiers)

    def __iter__(self) -> Iterator[Modifier]:
        return iter(self.modifiers)

    def append(self, modifier: Modifier) -> None:
        self.modifiers.append(modifier)

    def counts(self) -> Dict[str, int]:
        """Histogram of modifier kinds, for reports."""
        out = {
            "vertex_insert": 0,
            "vertex_delete": 0,
            "edge_insert": 0,
            "edge_delete": 0,
        }
        for mod in self.modifiers:
            if isinstance(mod, VertexInsert):
                out["vertex_insert"] += 1
            elif isinstance(mod, VertexDelete):
                out["vertex_delete"] += 1
            elif isinstance(mod, EdgeInsert):
                out["edge_insert"] += 1
            else:
                out["edge_delete"] += 1
        return out

    def validate(self) -> None:
        """Reject intra-batch inconsistencies (:func:`validate_batch`)."""
        validate_batch(self.modifiers)


class HostGraph:
    """Reference dynamic undirected graph living in host (CPU) memory.

    Implements the modifier semantics of Section II exactly once so every
    other component (bucket list, baseline, tests) can be checked against
    it.  Deleted vertices keep their IDs (they may be re-inserted later,
    as in the paper's TAU-2015-style traces).
    """

    def __init__(
        self,
        num_vertices: int,
        vertex_weights: np.ndarray | None = None,
    ) -> None:
        self.adj: Dict[int, Dict[int, int]] = {
            u: {} for u in range(num_vertices)
        }
        self.active: Dict[int, bool] = {u: True for u in range(num_vertices)}
        if vertex_weights is None:
            self.vwgt: Dict[int, int] = {u: 1 for u in range(num_vertices)}
        else:
            self.vwgt = {
                u: int(vertex_weights[u]) for u in range(num_vertices)
            }

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_csr(cls, csr: CSRGraph) -> "HostGraph":
        graph = cls(csr.num_vertices, csr.vwgt)
        edges, weights = csr.edge_array()
        for (u, v), w in zip(edges, weights):
            graph.adj[int(u)][int(v)] = int(w)
            graph.adj[int(v)][int(u)] = int(w)
        return graph

    def copy(self) -> "HostGraph":
        out = HostGraph.__new__(HostGraph)
        out.adj = {u: dict(nbrs) for u, nbrs in self.adj.items()}
        out.active = dict(self.active)
        out.vwgt = dict(self.vwgt)
        return out

    # -- queries ------------------------------------------------------------------

    @property
    def num_vertex_slots(self) -> int:
        """Size of the vertex ID space (active and deleted)."""
        return len(self.adj)

    def num_active_vertices(self) -> int:
        return sum(1 for flag in self.active.values() if flag)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def is_active(self, u: int) -> bool:
        return self.active.get(u, False)

    def degree(self, u: int) -> int:
        return len(self.adj.get(u, {}))

    def neighbors(self, u: int) -> Dict[int, int]:
        return self.adj.get(u, {})

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, {})

    def active_vertices(self) -> List[int]:
        return [u for u, flag in self.active.items() if flag]

    def total_active_weight(self) -> int:
        return sum(self.vwgt[u] for u, flag in self.active.items() if flag)

    # -- modifier application -------------------------------------------------------

    def apply(self, modifier: Modifier) -> None:
        """Apply a single modifier, validating its preconditions."""
        if isinstance(modifier, VertexInsert):
            self._insert_vertex(modifier.u, modifier.weight)
        elif isinstance(modifier, VertexDelete):
            self._delete_vertex(modifier.u)
        elif isinstance(modifier, EdgeInsert):
            self._insert_edge(modifier.u, modifier.v, modifier.weight)
        elif isinstance(modifier, EdgeDelete):
            self._delete_edge(modifier.u, modifier.v)
        else:
            raise ModifierError(f"unknown modifier {modifier!r}")

    def apply_batch(self, batch: Iterable[Modifier]) -> None:
        for modifier in batch:
            self.apply(modifier)

    def _insert_vertex(self, u: int, weight: int) -> None:
        if weight < 1:
            raise ModifierError(f"vertex {u} weight {weight} is below 1")
        if self.active.get(u, False):
            raise ModifierError(f"vertex {u} already active")
        if u not in self.adj:
            # Brand-new ID: extend the ID space (IDs must be dense).
            if u != len(self.adj):
                raise ModifierError(
                    f"new vertex ID must be {len(self.adj)}, got {u}"
                )
            self.adj[u] = {}
        self.active[u] = True
        # repro-lint: allow[untracked-pool-write] host-side dict mirror, not the device pool
        self.vwgt[u] = weight
        self.adj[u].clear()

    def _delete_vertex(self, u: int) -> None:
        if not self.active.get(u, False):
            raise ModifierError(f"vertex {u} is not active")
        for v in list(self.adj[u]):
            del self.adj[v][u]
        self.adj[u].clear()
        self.active[u] = False

    def _insert_edge(self, u: int, v: int, weight: int) -> None:
        if u == v:
            raise ModifierError("self-loops are not allowed")
        if weight < 1:
            raise ModifierError(f"edge ({u}, {v}) weight {weight} is below 1")
        if not self.active.get(u, False) or not self.active.get(v, False):
            raise ModifierError(f"edge ({u}, {v}) touches an inactive vertex")
        if v in self.adj[u]:
            raise ModifierError(f"edge ({u}, {v}) already exists")
        self.adj[u][v] = weight
        self.adj[v][u] = weight

    def _delete_edge(self, u: int, v: int) -> None:
        if v not in self.adj.get(u, {}):
            raise ModifierError(f"edge ({u}, {v}) does not exist")
        del self.adj[u][v]
        del self.adj[v][u]

    # -- export -------------------------------------------------------------------

    def to_csr(self) -> tuple[CSRGraph, np.ndarray]:
        """Compact the active subgraph into a CSR.

        Returns ``(csr, id_map)`` where ``id_map[i]`` is the original
        vertex ID of compacted vertex ``i``.  This mirrors what G-kway†
        must do on the CPU every iteration.
        """
        ids = self.active_vertices()
        id_map = np.array(ids, dtype=np.int64)
        remap = {u: i for i, u in enumerate(ids)}
        edges = []
        weights = []
        for u in ids:
            for v, w in self.adj[u].items():
                if u < v:
                    edges.append((remap[u], remap[v]))
                    weights.append(w)
        edges_arr = (
            np.array(edges, dtype=np.int64)
            if edges
            else np.empty((0, 2), dtype=np.int64)
        )
        weights_arr = np.array(weights, dtype=np.int64)
        vwgt = np.array([self.vwgt[u] for u in ids], dtype=np.int64)
        csr = CSRGraph.from_edges(len(ids), edges_arr, weights_arr, vwgt)
        return csr, id_map

    def rebuild_work(self) -> int:
        """Scalar CPU operations a CSR rebuild costs (|V| + 2|E| scans)."""
        return self.num_vertex_slots + 2 * self.num_edges()
