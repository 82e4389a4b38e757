"""The paper's contribution: iG-kway and its baseline G-kway†."""

from repro.core.adaptive import AdaptiveIGKway, AdaptiveReport
from repro.core.balancing import BalanceStats, balance_partition
from repro.core.baseline import BaselineIterationReport, GKwayDagger
from repro.core.cpu_baseline import CpuIncremental, CpuIterationReport
from repro.core.igkway import (
    FullPartitionReport,
    IGKway,
    IterationReport,
)
from repro.core.modification import (
    SlotDelete,
    SlotInsert,
    SlotOp,
    VertexActivate,
    VertexDeactivate,
    apply_batch,
    apply_ops,
    apply_ops_vector,
    apply_ops_warp,
    expand_modifiers,
)
from repro.core.refinement import (
    RefineStats,
    longest_feasible_prefix,
    refine_pseudo,
)
from repro.core.transaction import state_digest, transaction

__all__ = [
    "IGKway",
    "GKwayDagger",
    "AdaptiveIGKway",
    "AdaptiveReport",
    "CpuIncremental",
    "CpuIterationReport",
    "IterationReport",
    "BaselineIterationReport",
    "FullPartitionReport",
    "apply_batch",
    "apply_ops",
    "apply_ops_warp",
    "apply_ops_vector",
    "expand_modifiers",
    "SlotInsert",
    "SlotDelete",
    "VertexActivate",
    "VertexDeactivate",
    "SlotOp",
    "balance_partition",
    "BalanceStats",
    "refine_pseudo",
    "RefineStats",
    "longest_feasible_prefix",
    "state_digest",
    "transaction",
]
