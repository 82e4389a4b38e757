"""Configuration for full and incremental partitioning.

Defaults follow Section VI of the paper: imbalance ratio eps = 3%, group
size s = 6, coarsening stops when the graph has at most ``35 * k``
vertices or when an iteration shrinks the graph by less than 10%
("fewer than 90% of the vertices could be coarsened"), and gamma = 1
spare bucket per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PartitionConfig:
    """All tunables of the partitioners.

    Attributes:
        k: Number of partitions.
        epsilon: Imbalance ratio; max partition weight is
            ``(1 + epsilon) * total_weight / k``.
        group_size: Constrained-coarsening group size ``s`` (paper: 6).
        gamma: Spare buckets per vertex in the bucket list (paper: 1).
        coarsen_vertex_floor: Stop coarsening at ``floor * k`` vertices
            (paper: 35).
        min_coarsen_rate: Stop when an iteration keeps more than this
            fraction of vertices (paper: 0.9).
        match_iterations: Union-find grouping rounds per coarsening level.
        coarsening: ``"constrained"`` (Section IV) or ``"unionfind"``
            (plain G-kway, for ablation).
        refinement: ``"gkway"`` (independent-set boundary refinement,
            the default) or ``"jet"`` (Jet-style label propagation with
            afterburner; the paper's reference [2]).
        refine_passes: Boundary-refinement passes per uncoarsening level.
        fm_passes: FM (hill-climbing) refinement passes per level after
            the boundary passes; 0 disables FM.
        fm_max_vertices: FM only runs on levels with at most this many
            vertices (the sequential-host FM is the reproduction's
            quality booster, not a GPU kernel; bounding it keeps big
            baselines tractable).
        fm_max_moves: Cap on moves per FM pass.
        initial_tries: Independent initial-partitioning attempts; best
            cut wins.
        seed: Master seed for every stochastic choice.
        mode: ``"vector"`` (batched NumPy kernels) or ``"warp"``
            (lane-faithful warp simulation); results are identical.
        max_incremental_rounds: Safety cap on pseudo-partition drain
            rounds in Algorithm 4.
    """

    k: int = 2
    epsilon: float = 0.03
    group_size: int = 6
    gamma: int = 1
    coarsen_vertex_floor: int = 35
    min_coarsen_rate: float = 0.9
    match_iterations: int = 3
    coarsening: str = "constrained"
    refinement: str = "gkway"
    refine_passes: int = 4
    fm_passes: int = 2
    fm_max_vertices: int = 25_000
    fm_max_moves: int = 5_000
    initial_tries: int = 4
    seed: int = 0
    mode: str = "vector"
    max_incremental_rounds: int = 64

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if self.group_size < 2:
            raise ValueError("group_size must be at least 2")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.coarsening not in ("constrained", "unionfind"):
            raise ValueError(
                f"unknown coarsening strategy {self.coarsening!r}"
            )
        if self.refinement not in ("gkway", "jet"):
            raise ValueError(
                f"unknown refinement strategy {self.refinement!r}"
            )
        if self.mode not in ("vector", "warp"):
            raise ValueError(f"unknown execution mode {self.mode!r}")

    @property
    def coarsen_until(self) -> int:
        """Coarsening target size, ``35 * k`` by default."""
        return self.coarsen_vertex_floor * self.k
