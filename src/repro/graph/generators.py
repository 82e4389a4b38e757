"""Synthetic benchmark graphs.

The paper evaluates on seven industrial circuit graphs produced by the
OpenTimer flow plus three DIMACS graphs (Table I).  Neither dataset ships
with this reproduction, so this module synthesizes graphs of the same
*structure class* and the same |E|/|V| ratio, scaled down to sizes a pure
Python warp simulator can partition (DESIGN.md, substitution table):

* **circuit graphs** (tv80, mem_ctrl, usb, vga_lcd, wb_dma, systemcase,
  des_perf): netlist-like — vertices laid out in a synthetic placement
  order, each cell wired to a bounded number of mostly-nearby earlier
  cells with a geometric tail of long wires.  This reproduces the strong
  locality and small balanced min-cuts of real circuits.
* **mesh graphs** (adaptive): 2-D grid, |E|/|V| ≈ 2.
* **triangulated meshes** (NLR): 2-D grid with one diagonal per cell,
  |E|/|V| ≈ 3.
* **co-authorship graphs** (coAuthorsCiteseer): community-clustered
  preferential attachment (Holme–Kim powerlaw cluster model).

Every generator takes an explicit seed and returns a
:class:`~repro.graph.csr.CSRGraph` with unit weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.seeding import make_rng


def _dedupe_edges(edges: np.ndarray) -> np.ndarray:
    """Canonicalize to (lo, hi), drop self-loops and duplicates."""
    if edges.size == 0:
        return edges.reshape(0, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    canonical = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return canonical


def circuit_graph(
    num_vertices: int,
    edge_ratio: float = 1.3,
    locality: float = 30.0,
    long_wire_fraction: float = 0.02,
    seed: int = 0,
) -> CSRGraph:
    """Netlist-like graph with placement locality.

    The generator builds a connected "placement backbone" (every vertex
    wired to a nearby earlier vertex, geometric backward distance with
    mean ``locality``) and then adds local extra nets until the edge
    count reaches ``round(num_vertices * edge_ratio)``.  A
    ``long_wire_fraction`` of the extra nets jump uniformly far away
    (global nets such as clocks and resets).  The result has the strong
    locality and small balanced min-cuts characteristic of circuit
    netlists.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    if edge_ratio < 1.0:
        raise ValueError("circuit graphs need edge_ratio >= 1")
    rng = make_rng(seed, "circuit")
    n = num_vertices
    target_m = int(round(n * edge_ratio))

    # Backbone: vertex i -> a geometrically-nearby earlier vertex.
    dst = np.arange(1, n, dtype=np.int64)
    distance = rng.geometric(min(1.0, 1.0 / locality), size=n - 1).astype(
        np.int64
    )
    src = np.maximum(dst - distance, 0)
    backbone = np.stack([src, dst], axis=1)
    edges = _dedupe_edges(backbone)

    # Extra nets, oversampled then trimmed to hit target_m exactly.
    seen = set(map(tuple, edges))
    needed = target_m - edges.shape[0]
    extra_rows: list[np.ndarray] = []
    attempts = 0
    while needed > 0 and attempts < 8:
        attempts += 1
        batch = int(needed * 1.5) + 16
        cand_dst = rng.integers(1, n, size=batch)
        cand_dist = rng.geometric(
            min(1.0, 1.0 / locality), size=batch
        ).astype(np.int64)
        is_long = rng.random(batch) < long_wire_fraction
        uniform_src = (rng.random(batch) * cand_dst).astype(np.int64)
        cand_src = np.where(
            is_long, uniform_src, np.maximum(cand_dst - cand_dist, 0)
        )
        for u, v in zip(cand_src, cand_dst):
            if u == v:
                continue
            key = (min(int(u), int(v)), max(int(u), int(v)))
            if key in seen:
                continue
            seen.add(key)
            extra_rows.append(np.array(key, dtype=np.int64))
            needed -= 1
            if needed == 0:
                break
    if extra_rows:
        edges = np.concatenate([edges, np.stack(extra_rows)])
    return CSRGraph.from_edges(num_vertices, edges)


def mesh_graph_2d(num_vertices: int) -> CSRGraph:
    """2-D grid mesh with |E|/|V| approaching 2 (the `adaptive` class)."""
    side = max(2, int(round(math.sqrt(num_vertices))))
    rows = cols = side
    n = rows * cols
    idx = np.arange(n, dtype=np.int64).reshape(rows, cols)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    edges = np.concatenate([right, down])
    return CSRGraph.from_edges(n, edges)


def triangulated_mesh_graph(num_vertices: int) -> CSRGraph:
    """2-D grid with one diagonal per cell (|E|/|V| ~ 3).

    The structure class of triangulated FEM meshes such as the DIMACS
    ``NLR`` graph (4.16M vertices / 24.97M edges; the paper's Table I
    lists 2.49M edges, which looks like a dropped digit — see
    EXPERIMENTS.md).
    """
    side = max(2, int(round(math.sqrt(num_vertices))))
    n = side * side
    idx = np.arange(n, dtype=np.int64).reshape(side, side)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    diag = np.stack([idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()], axis=1)
    return CSRGraph.from_edges(n, np.concatenate([right, down, diag]))


def community_graph(
    num_vertices: int, edges_per_vertex: int = 4, seed: int = 0
) -> CSRGraph:
    """Co-authorship-style clustered powerlaw graph (Holme–Kim model)."""
    import networkx as nx

    nxg = nx.powerlaw_cluster_graph(
        num_vertices, max(1, edges_per_vertex), 0.4, seed=seed & 0x7FFFFFFF
    )
    edges = np.array(nxg.edges(), dtype=np.int64).reshape(-1, 2)
    return CSRGraph.from_edges(num_vertices, _dedupe_edges(edges))


def random_graph(
    num_vertices: int, edge_ratio: float = 2.0, seed: int = 0
) -> CSRGraph:
    """Erdős–Rényi-style random graph (no locality; worst case for cuts)."""
    rng = make_rng(seed, "random")
    m = int(num_vertices * edge_ratio * 1.1)
    src = rng.integers(0, num_vertices, size=m)
    dst = rng.integers(0, num_vertices, size=m)
    edges = _dedupe_edges(np.stack([src, dst], axis=1))
    target = int(num_vertices * edge_ratio)
    if edges.shape[0] > target:
        pick = rng.choice(edges.shape[0], size=target, replace=False)
        edges = edges[np.sort(pick)]
    return CSRGraph.from_edges(num_vertices, edges)


# ---------------------------------------------------------------------------
# The Table I benchmark suite (scaled).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaperRow:
    """The numbers the paper reports for one Table I row (k = 2)."""

    vertices: int
    edges: int
    mod_time_ig: float
    mod_time_gk: float
    part_time_ig: float
    part_time_gk: float
    speedup: float
    cut_ig: int
    cut_gk: int
    cut_improvement: float


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark graph: its generator and the paper's reference row."""

    name: str
    kind: str
    num_vertices: int
    generator: Callable[[int, int], CSRGraph]
    paper: PaperRow

    def build(self, seed: int = 0) -> CSRGraph:
        return self.generator(self.num_vertices, seed)


def _scale(paper_vertices: int, divisor: int = 400, floor: int = 2000) -> int:
    return max(floor, paper_vertices // divisor)


def _circuit(ratio: float) -> Callable[[int, int], CSRGraph]:
    def build(n: int, seed: int) -> CSRGraph:
        return circuit_graph(n, edge_ratio=ratio, seed=seed)

    return build


def _mesh(n: int, seed: int) -> CSRGraph:
    return mesh_graph_2d(n)


def _triangulated(n: int, seed: int) -> CSRGraph:
    return triangulated_mesh_graph(n)


def _coauthor(n: int, seed: int) -> CSRGraph:
    return community_graph(n, edges_per_vertex=4, seed=seed)


#: All ten Table I graphs, scaled by ~1/400 (floor 2000 vertices), with
#: the paper's reported numbers attached for EXPERIMENTS.md comparisons.
BENCHMARKS: Dict[str, BenchmarkSpec] = {
    "tv80": BenchmarkSpec(
        "tv80", "circuit", _scale(3_901_702), _circuit(1.36),
        PaperRow(3_901_702, 5_298_851, 0.02, 0.36, 0.18, 14.88, 82.67,
                 4_721, 4_774, 1.01),
    ),
    "mem_ctrl": BenchmarkSpec(
        "mem_ctrl", "circuit", _scale(32_445_075), _circuit(1.32),
        PaperRow(32_445_075, 42_670_885, 0.11, 3.37, 0.58, 46.07, 79.43,
                 5_945, 5_659, 0.95),
    ),
    "usb": BenchmarkSpec(
        "usb", "circuit", _scale(139_479), _circuit(1.29),
        PaperRow(139_479, 180_510, 0.01, 0.01, 0.12, 10.16, 84.67,
                 5_798, 5_701, 0.98),
    ),
    "vga_lcd": BenchmarkSpec(
        "vga_lcd", "circuit", _scale(1_869_688), _circuit(12.5),
        PaperRow(1_869_688, 23_447_678, 0.07, 2.13, 0.38, 31.27, 82.29,
                 502, 496, 0.99),
    ),
    "wb_dma": BenchmarkSpec(
        "wb_dma", "circuit", _scale(9_646_140), _circuit(1.27),
        PaperRow(9_646_140, 12_208_324, 0.04, 1.04, 0.26, 20.75, 79.81,
                 5_483, 5_489, 1.00),
    ),
    "systemcase": BenchmarkSpec(
        "systemcase", "circuit", _scale(10_897_616), _circuit(1.32),
        PaperRow(10_897_616, 14_386_851, 0.04, 1.10, 0.28, 22.61, 80.75,
                 4_670, 4_699, 1.00),
    ),
    "des_perf": BenchmarkSpec(
        "des_perf", "circuit", _scale(303_690), _circuit(1.28),
        PaperRow(303_690, 387_292, 0.01, 0.03, 0.13, 10.98, 84.46,
                 5_097, 5_150, 1.01),
    ),
    "coAuthorsCiteseer": BenchmarkSpec(
        "coAuthorsCiteseer", "coauthor", _scale(227_320), _coauthor,
        PaperRow(227_320, 814_134, 0.01, 0.03, 0.13, 11.20, 86.15,
                 25_853, 25_537, 0.99),
    ),
    "adaptive": BenchmarkSpec(
        "adaptive", "mesh", _scale(6_815_744), _mesh,
        PaperRow(6_815_744, 13_624_320, 0.03, 0.97, 0.51, 50.12, 98.27,
                 1_809, 2_029, 1.12),
    ),
    "NLR": BenchmarkSpec(
        "NLR", "triangulated-mesh", _scale(4_163_763), _triangulated,
        PaperRow(4_163_763, 2_487_976, 0.02, 1.02, 0.25, 21.64, 86.56,
                 4_611, 4_600, 1.00),
    ),
}


def make_benchmark_graph(name: str, seed: int = 0) -> CSRGraph:
    """Build one of the ten Table I graphs (scaled) by name."""
    spec = BENCHMARKS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        )
    return spec.build(seed)
