"""Full graph partitioning: G-kway with constrained coarsening."""

from repro.partition.coarsen import (
    CoarsenLevel,
    build_groups_constrained,
    build_groups_unionfind,
    coarse_weight_imbalance,
    coarsen_once,
    coarsen_to_size,
    contract,
)
from repro.partition.config import PartitionConfig
from repro.partition.cutacc import CutAccumulator
from repro.partition.cutcheck import verify_cut
from repro.partition.gkway import FullPartitionResult, GKwayPartitioner
from repro.partition.initial import initial_partition
from repro.partition.metrics import (
    arc_matrix_bucketlist,
    cut_matrix,
    cut_matrix_bucketlist,
    cut_size_bucketlist,
    cut_size_csr,
    external_internal_degrees,
    imbalance,
    is_balanced,
    max_partition_weight,
    partition_weights,
)
from repro.partition.fm import fm_refine
from repro.partition.jet import jet_refine
from repro.partition.recursive import recursive_bisection
from repro.partition.refine import rebalance_csr, refine_csr
from repro.partition.state import UNASSIGNED, PartitionState
from repro.partition.unionfind import find_roots, group_vertices

__all__ = [
    "PartitionConfig",
    "PartitionState",
    "UNASSIGNED",
    "GKwayPartitioner",
    "FullPartitionResult",
    "CoarsenLevel",
    "coarsen_once",
    "coarsen_to_size",
    "contract",
    "build_groups_constrained",
    "build_groups_unionfind",
    "coarse_weight_imbalance",
    "group_vertices",
    "find_roots",
    "initial_partition",
    "refine_csr",
    "rebalance_csr",
    "fm_refine",
    "jet_refine",
    "recursive_bisection",
    "cut_size_csr",
    "cut_size_bucketlist",
    "cut_matrix",
    "cut_matrix_bucketlist",
    "arc_matrix_bucketlist",
    "CutAccumulator",
    "verify_cut",
    "external_internal_degrees",
    "partition_weights",
    "imbalance",
    "is_balanced",
    "max_partition_weight",
]
