"""Initial partitioning of the coarsest graph.

The multilevel scheme only ever partitions the coarsest graph directly
(a few hundred vertices at the paper's ``35 * k`` stop), so quality per
CPU-second matters more than asymptotics.  We use a portfolio:

* **BFS strips**: breadth-first-number the graph from a random seed and
  cut the BFS order into ``k`` contiguous chunks of equal weight — the
  classic "graph growing" heuristic, great on meshes and circuits.
* **random balanced**: shuffle vertices and deal them into the lightest
  partition — a diversity fallback for structureless graphs.

Each try is greedily improved by one refinement pass; the best cut wins.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.metrics import cut_size_csr
from repro.utils.seeding import make_rng


def bfs_order(csr: CSRGraph, start: int) -> np.ndarray:
    """BFS numbering covering every component (restarts at unvisited)."""
    n = csr.num_vertices
    xadj = csr.xadj.tolist()
    adjncy = csr.adjncy.tolist()
    visited = [False] * n
    order: list[int] = []
    queue: deque[int] = deque()
    for pivot in (start, *range(n)):
        if visited[pivot]:
            continue
        visited[pivot] = True
        queue.append(pivot)
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in adjncy[xadj[u]:xadj[u + 1]]:
                if not visited[v]:
                    visited[v] = True
                    queue.append(v)
    return np.array(order, dtype=np.int64)


def partition_by_order(
    csr: CSRGraph, order: np.ndarray, k: int
) -> np.ndarray:
    """Split an ordering into k contiguous chunks of ~equal weight."""
    weights = csr.vwgt[order]
    cum = np.cumsum(weights)
    total = int(cum[-1]) if cum.size else 0
    partition = np.empty(csr.num_vertices, dtype=np.int64)
    if total == 0:
        partition[:] = 0
        return partition
    # Each element lands in the chunk its weight *midpoint* falls into,
    # which splits heavy vertices fairly instead of off-by-one.
    midpoints = cum - weights / 2.0
    labels = np.minimum((midpoints * k / total).astype(np.int64), k - 1)
    partition[order] = labels
    return partition


def random_balanced_partition(
    csr: CSRGraph, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Deal shuffled vertices into the currently-lightest partition."""
    vwgt = csr.vwgt.tolist()
    partition = [0] * csr.num_vertices
    weights = [0] * k
    for u in rng.permutation(csr.num_vertices).tolist():
        label = weights.index(min(weights))
        partition[u] = label
        weights[label] += vwgt[u]
    return np.array(partition, dtype=np.int64)


def initial_partition(
    csr: CSRGraph,
    k: int,
    epsilon: float,
    tries: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Best-of-``tries`` initial partition of the coarsest graph."""
    from repro.partition.refine import refine_csr

    from repro.partition.recursive import recursive_bisection

    rng = make_rng(seed, "initial")
    n = csr.num_vertices
    best_partition: np.ndarray | None = None
    best_cut = None
    for attempt in range(max(1, tries)):
        style = attempt % 3
        if style == 2 and k > 2 and n >= k:
            candidate = recursive_bisection(
                csr, k, epsilon, seed=int(rng.integers(0, 1 << 30))
            )
        elif style == 0 or n < k:
            start = int(rng.integers(0, n))
            candidate = partition_by_order(csr, bfs_order(csr, start), k)
        else:
            candidate = random_balanced_partition(csr, k, rng)
        candidate = refine_csr(
            csr,
            candidate,
            k=k,
            epsilon=epsilon,
            passes=2,
            seed=int(rng.integers(0, 1 << 30)),
        )
        cut = cut_size_csr(csr, candidate)
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_partition = candidate
    assert best_partition is not None
    return best_partition
