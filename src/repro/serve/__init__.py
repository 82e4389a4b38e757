"""repro.serve: multi-tenant partition serving over shared devices.

The serving layer hosts many tenants' journaled
:class:`~repro.stream.session.StreamSession`\\ s behind one asyncio
server (framed JSON over TCP, Prometheus over HTTP), multiplexed over a
shared pool of simulated devices with per-tenant admission control,
global load shedding, and per-tenant metric labels.  The layer is
crash-recoverable: each session's own journal checkpoint, which also
carries its creation index, origin trace and settled device cycles,
re-materializes it after a process kill, and a worker supervisor fails
sessions over to surviving devices when one dies.  See
``ARCHITECTURE.md`` §12 for the serving design and §14 for durability
& failover; ``tools/serve_gate.py`` holds the bit-identity,
attribution, and crash-convergence invariants the layer must keep.
"""

from repro.serve.client import ServeClient
from repro.serve.protocol import (
    AMBIGUOUS_CODES,
    ERROR_CODES,
    MAX_FRAME,
    RETRYABLE_CODES,
    error_response,
    ok_response,
    raise_for_response,
)
from repro.serve.quotas import TenantAccount, TenantQuota
from repro.serve.registry import (
    GRAPH_GENERATORS,
    DeviceWorker,
    SessionEntry,
    SessionRegistry,
    build_graph,
    partition_sha256,
)
from repro.serve.server import (
    PartitionServer,
    ServerConfig,
    ServerThread,
)
from repro.serve.shedding import LoadShedder, ShedPolicy
from repro.serve.supervision import WorkerSupervisor

__all__ = [
    "AMBIGUOUS_CODES",
    "ERROR_CODES",
    "GRAPH_GENERATORS",
    "MAX_FRAME",
    "RETRYABLE_CODES",
    "DeviceWorker",
    "LoadShedder",
    "PartitionServer",
    "ServeClient",
    "ServerConfig",
    "ServerThread",
    "SessionEntry",
    "SessionRegistry",
    "ShedPolicy",
    "TenantAccount",
    "TenantQuota",
    "WorkerSupervisor",
    "build_graph",
    "error_response",
    "ok_response",
    "partition_sha256",
    "raise_for_response",
]
