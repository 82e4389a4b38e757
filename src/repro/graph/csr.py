"""Static CSR graph — the representation used by G-kway and G-kway†.

The compressed-sparse-row layout stores, for an undirected graph with
``n`` vertices and ``m`` edges, an adjacency-pointer array ``xadj`` of
length ``n + 1`` and an adjacency list ``adjncy`` of length ``2m`` (each
undirected edge appears in both endpoints' lists), plus aligned edge
weights ``adjwgt`` and vertex weights ``vwgt``.

This structure is exactly what the paper criticizes for incrementality:
inserting one edge requires shifting the tail of ``adjncy`` and patching
every later pointer, so the baseline G-kway† rebuilds the whole CSR on
the CPU and re-uploads it each iteration (see
:mod:`repro.core.baseline`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import GraphConsistencyError


@dataclass
class CSRGraph:
    """Immutable-by-convention CSR representation of an undirected graph.

    Attributes:
        xadj: ``int64[n + 1]`` adjacency pointers.
        adjncy: ``int64[2m]`` concatenated neighbor lists.
        adjwgt: ``int64[2m]`` edge weights aligned with ``adjncy``.
        vwgt: ``int64[n]`` vertex weights.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgt: np.ndarray

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: np.ndarray,
        edge_weights: np.ndarray | None = None,
        vertex_weights: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Build a CSR from an ``(m, 2)`` array of undirected edges.

        Self-loops and duplicate edges are rejected; each undirected edge
        should appear exactly once in ``edges`` (either orientation).
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = edges.shape[0]
        if edge_weights is None:
            edge_weights = np.ones(m, dtype=np.int64)
        else:
            edge_weights = np.asarray(edge_weights, dtype=np.int64)
            if edge_weights.shape[0] != m:
                raise ValueError("edge_weights length must match edges")
        if vertex_weights is None:
            vertex_weights = np.ones(num_vertices, dtype=np.int64)
        else:
            vertex_weights = np.asarray(vertex_weights, dtype=np.int64)
            if vertex_weights.shape[0] != num_vertices:
                raise ValueError("vertex_weights length must be num_vertices")
        if m and (edges.min() < 0 or edges.max() >= num_vertices):
            raise GraphConsistencyError("edge endpoint out of range")
        if m and np.any(edges[:, 0] == edges[:, 1]):
            raise GraphConsistencyError("self-loops are not allowed")

        # Duplicate detection on canonicalized endpoints.
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keys = np.sort(lo * np.int64(num_vertices) + hi)
        if np.any(keys[1:] == keys[:-1]):
            raise GraphConsistencyError("duplicate undirected edges")

        # Symmetrize: every edge contributes two directed arcs.  The
        # arcs are distinct, so sorting by ``src * n + dst`` orders them
        # by source, then destination.
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        wgt = np.concatenate([edge_weights, edge_weights])
        order = np.argsort(src * np.int64(num_vertices) + dst)
        src, dst, wgt = src[order], dst[order], wgt[order]
        degrees = np.bincount(src, minlength=num_vertices)
        xadj = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=xadj[1:])
        return cls(xadj=xadj, adjncy=dst, adjwgt=wgt, vwgt=vertex_weights)

    # -- basic queries ---------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.xadj.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.adjncy.shape[0] // 2

    def degree(self, u: int) -> int:
        return int(self.xadj[u + 1] - self.xadj[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self.xadj)

    def neighbors(self, u: int) -> np.ndarray:
        return self.adjncy[self.xadj[u] : self.xadj[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        return self.adjwgt[self.xadj[u] : self.xadj[u + 1]]

    def total_vertex_weight(self) -> int:
        return int(self.vwgt.sum())

    def total_edge_weight(self) -> int:
        return int(self.adjwgt.sum()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(edges, weights)`` with each undirected edge once."""
        src = np.repeat(np.arange(self.num_vertices), self.degrees())
        mask = src < self.adjncy
        edges = np.stack([src[mask], self.adjncy[mask]], axis=1)
        return edges, self.adjwgt[mask]

    def subgraph(
        self, vertices: np.ndarray
    ) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(sub, vertices)`` where sub-vertex ``i`` corresponds to
        ``vertices[i]``.  Edges with one endpoint outside the set are
        dropped (their weight is the cut the caller is accounting for).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        inverse = np.full(self.num_vertices, -1, dtype=np.int64)
        inverse[vertices] = np.arange(vertices.size)
        src = np.repeat(np.arange(self.num_vertices), self.degrees())
        keep = (inverse[src] >= 0) & (inverse[self.adjncy] >= 0)
        sub_src = inverse[src[keep]]
        sub_dst = inverse[self.adjncy[keep]]
        wgt = self.adjwgt[keep]
        upper = sub_src < sub_dst
        edges = np.stack([sub_src[upper], sub_dst[upper]], axis=1)
        sub = CSRGraph.from_edges(
            vertices.size, edges, wgt[upper], self.vwgt[vertices]
        )
        return sub, vertices

    def nbytes(self) -> int:
        """Device-memory footprint, used to charge H2D transfers."""
        return (
            self.xadj.nbytes
            + self.adjncy.nbytes
            + self.adjwgt.nbytes
            + self.vwgt.nbytes
        )

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises GraphConsistencyError."""
        n = self.num_vertices
        if self.xadj[0] != 0 or self.xadj[-1] != self.adjncy.shape[0]:
            raise GraphConsistencyError("xadj endpoints are wrong")
        if np.any(np.diff(self.xadj) < 0):
            raise GraphConsistencyError("xadj must be non-decreasing")
        if self.adjncy.size and (
            self.adjncy.min() < 0 or self.adjncy.max() >= n
        ):
            raise GraphConsistencyError("adjacency index out of range")
        if self.adjwgt.shape != self.adjncy.shape:
            raise GraphConsistencyError("adjwgt misaligned with adjncy")
        if self.vwgt.shape[0] != n:
            raise GraphConsistencyError("vwgt length mismatch")
        src = np.repeat(np.arange(n), self.degrees())
        if np.any(src == self.adjncy):
            raise GraphConsistencyError("self-loop present")
        # Symmetry with matching weights: (u, v, w) multiset equals (v, u, w).
        fwd = np.lexsort((self.adjwgt, self.adjncy, src))
        rev = np.lexsort((self.adjwgt, src, self.adjncy))
        sym = (
            np.array_equal(src[fwd], self.adjncy[rev])
            and np.array_equal(self.adjncy[fwd], src[rev])
            and np.array_equal(self.adjwgt[fwd], self.adjwgt[rev])
        )
        if not sym:
            raise GraphConsistencyError("adjacency is not symmetric")
