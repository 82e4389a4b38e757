"""Small shared utilities: seeds, errors, formatting helpers."""

from repro.utils.errors import (
    BackpressureError,
    CapacityError,
    GraphConsistencyError,
    JournalError,
    ModifierError,
    PartitionError,
    ReproError,
    ServeError,
    ServeTimeout,
    StreamError,
    TransactionError,
    WorkerFault,
)
from repro.utils.faultinject import (
    FAULT_CLASSES,
    SERVE_FAULT_KINDS,
    FaultInjector,
    InjectedAbort,
    ServeFault,
    ServeFaultPlan,
)
from repro.utils.seeding import derive_seed, make_rng

__all__ = [
    "ReproError",
    "GraphConsistencyError",
    "CapacityError",
    "ModifierError",
    "PartitionError",
    "StreamError",
    "ServeError",
    "ServeTimeout",
    "WorkerFault",
    "BackpressureError",
    "JournalError",
    "TransactionError",
    "FAULT_CLASSES",
    "SERVE_FAULT_KINDS",
    "FaultInjector",
    "InjectedAbort",
    "ServeFault",
    "ServeFaultPlan",
    "derive_seed",
    "make_rng",
]
