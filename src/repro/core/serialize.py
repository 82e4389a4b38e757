"""Checkpointing: save and restore a live incremental partitioner.

Long-running CAD sessions (the paper's motivating applications run
"thousands or even millions of incremental iterations") need to park and
resume partitioner state.  ``save_partitioner`` serializes everything a
running :class:`~repro.core.igkway.IGKway` holds — the bucket-list
graph, the partition assignment, and the configuration — into a single
uncompressed ``.npz``; ``load_partitioner`` reconstitutes an equivalent
partitioner (with a fresh cost ledger) that continues exactly where the
saved one stopped.

Format version 3 (the only one written) stores the bucket pool as its
filled slots: their positions inside the used prefix, their neighbour
IDs and their weights (:meth:`BucketListGraph.filled_slots`).  The pool
is pre-allocated with spare buckets and tail slack (Section V.A), so
only a few percent of its slots hold an edge; saving and loading scale
with the live graph, not the pool.  Loading scatters the slots back
into a fresh pool at their original positions, so ``__ffs`` slot
choices and :func:`~repro.core.transaction.state_digest` come back
bit-identical.  The archive is stored, not compressed: zlib was most of
a format-2 save, and zip's per-member CRC-32 still rejects a damaged
file.

Version 2 added an optional *stream metadata* JSON payload used by
:mod:`repro.stream` to persist its journal cursor (the sequence number
of the last applied modifier) and the adaptive-trigger state alongside
the partitioner, so ``StreamSession.recover`` can replay exactly the
un-checkpointed suffix of the modifier log.  Versions 1 and 2 stored
the whole pool arrays; both still load (version 1 has no stream
metadata).

Derived state is *not* serialized: the incremental cut accumulator
(:class:`~repro.partition.cutacc.CutAccumulator`) is reconstructible
from the graph + partition, so checkpoints omit it and a loaded
partitioner simply re-bootstraps it on the first cut read — keeping the
format stable and the digest independent of accumulator presence.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.core.igkway import IGKway
from repro.gpusim.context import GpuContext
from repro.graph.bucketlist import SLOTS_PER_BUCKET, BucketListGraph
from repro.partition.config import PartitionConfig
from repro.utils.errors import PartitionError

#: Bumped whenever the on-disk layout changes.  Version 3 (this
#: release) stores only the pool's filled slots.
FORMAT_VERSION = 3

#: How each readable version stores the bucket pool: whole arrays
#: (1, 2) or the filled slots' positions, neighbours and weights (3).
_POOL_KEYS = {
    1: ("bucket_list", "slot_wgt"),
    2: ("bucket_list", "slot_wgt"),
    3: ("filled_pos", "filled_nbr", "filled_wgt"),
}

#: Versions ``load_partitioner`` can read.
SUPPORTED_VERSIONS = tuple(_POOL_KEYS)

#: Per-vertex arrays, each of length ``capacity`` in every version.
_VERTEX_KEYS = ("bucket_start", "bucket_count", "vertex_status", "vwgt")

#: Array keys every checkpoint must contain besides its pool keys.
_REQUIRED_KEYS = (
    "format_version",
    "config_json",
    "capacity",
    "pool_buckets",
    "gamma",
    "num_vertices",
    "num_buckets_used",
    *_VERTEX_KEYS,
    "partition",
    "iterations_applied",
)


def save_partitioner(
    partitioner: IGKway,
    path: "str | Path",
    stream_meta: dict | None = None,
) -> None:
    """Serialize a partitioned :class:`IGKway` to ``path`` (.npz).

    ``stream_meta`` is an optional JSON-serializable dict persisted
    verbatim; :mod:`repro.stream` stores its journal cursor there.
    """
    graph = partitioner.graph
    state = partitioner.state
    if graph is None or state is None:
        raise PartitionError("cannot save before full_partition()")
    config_json = json.dumps(dataclasses.asdict(partitioner.config))
    meta_json = json.dumps(stream_meta if stream_meta is not None else {})
    positions, neighbors, weights = graph.filled_slots()
    np.savez(
        Path(path),
        format_version=np.int64(FORMAT_VERSION),
        config_json=np.frombuffer(
            config_json.encode(), dtype=np.uint8
        ),
        stream_meta_json=np.frombuffer(
            meta_json.encode(), dtype=np.uint8
        ),
        capacity=np.int64(graph.capacity),
        pool_buckets=np.int64(graph.pool_buckets),
        gamma=np.int64(graph.gamma),
        num_vertices=np.int64(graph.num_vertices),
        num_buckets_used=np.int64(graph.num_buckets_used),
        filled_pos=positions,
        filled_nbr=neighbors,
        filled_wgt=weights,
        bucket_start=graph.bucket_start,
        bucket_count=graph.bucket_count,
        vertex_status=graph.vertex_status,
        vwgt=graph.vwgt,
        partition=state.partition,
        iterations_applied=np.int64(partitioner.iterations_applied),
    )


def load_partitioner(
    path: "str | Path", ctx: GpuContext | None = None
) -> IGKway:
    """Reconstruct an :class:`IGKway` saved by :func:`save_partitioner`.

    The returned partitioner has a fresh cost ledger (timing state is
    not part of the checkpoint) but identical graph and partition state,
    so subsequent ``apply`` calls produce the same results the original
    would have.  It keeps no initial CSR, so ``full_partition`` raises.

    Raises :class:`~repro.utils.errors.PartitionError` — never a bare
    ``KeyError``, ``IndexError`` or ``zipfile`` error — on a missing
    file, a truncated or corrupt archive, arrays of the wrong size or an
    unsupported format version.
    """
    partitioner, _meta = load_checkpoint(path, ctx=ctx)
    return partitioner


def load_checkpoint(
    path: "str | Path", ctx: GpuContext | None = None
) -> "tuple[IGKway, dict]":
    """Like :func:`load_partitioner`, also returning the stream metadata.

    Version-1 checkpoints (no ``stream_meta_json`` payload) yield an
    empty dict.
    """
    path = Path(path)
    try:
        # np.load keeps a path's file open if the archive fails to
        # parse; opening it here closes it on every outcome.
        with path.open("rb") as handle, np.load(handle) as data:
            files = set(data.files)
            if "format_version" not in files:
                raise PartitionError(
                    f"{path}: not an iG-kway checkpoint "
                    "(no format_version field)"
                )
            version = int(data["format_version"])
            if version not in SUPPORTED_VERSIONS:
                raise PartitionError(
                    f"checkpoint format {version} unsupported "
                    f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
                )
            missing = [
                k
                for k in (*_REQUIRED_KEYS, *_POOL_KEYS[version])
                if k not in files
            ]
            if missing:
                raise PartitionError(
                    f"{path}: truncated checkpoint, missing fields: "
                    f"{', '.join(missing)}"
                )
            config = PartitionConfig(
                **json.loads(bytes(data["config_json"]).decode())
            )
            if version >= 2 and "stream_meta_json" in files:
                stream_meta = json.loads(
                    bytes(data["stream_meta_json"]).decode()
                )
            else:
                stream_meta = {}
            graph = BucketListGraph(
                capacity=int(data["capacity"]),
                pool_buckets=int(data["pool_buckets"]),
                gamma=int(data["gamma"]),
            )
            graph.num_vertices = int(data["num_vertices"])
            graph.num_buckets_used = int(data["num_buckets_used"])
            if not 0 <= graph.num_vertices <= graph.capacity:
                raise PartitionError(
                    f"{path}: num_vertices {graph.num_vertices} outside "
                    f"the vertex capacity {graph.capacity}"
                )
            if not 0 <= graph.num_buckets_used <= graph.pool_buckets:
                raise PartitionError(
                    f"{path}: num_buckets_used {graph.num_buckets_used} "
                    f"outside the pool of {graph.pool_buckets} buckets"
                )
            for key in _VERTEX_KEYS:
                setattr(graph, key, _read_sized(data, key, graph.capacity))
            partition = _read_sized(data, "partition", graph.capacity)
            if version >= 3:
                graph.scatter_filled_slots(
                    *(data[key] for key in _POOL_KEYS[version])
                )
            else:
                pool_slots = graph.pool_buckets * SLOTS_PER_BUCKET
                for key in _POOL_KEYS[version]:
                    setattr(graph, key, _read_sized(data, key, pool_slots))
            iterations = int(data["iterations_applied"])
    except PartitionError:
        raise
    except FileNotFoundError as exc:
        raise PartitionError(f"checkpoint not found: {path}") from exc
    except (
        KeyError,
        ValueError,
        OSError,
        EOFError,
        zipfile.BadZipFile,
        json.JSONDecodeError,
    ) as exc:
        raise PartitionError(
            f"{path}: truncated or corrupt checkpoint ({exc})"
        ) from exc

    partitioner = IGKway.from_state(
        graph, partition, config, iterations, ctx=ctx
    )
    return partitioner, stream_meta


def _read_sized(
    data: "np.lib.npyio.NpzFile", key: str, length: int
) -> np.ndarray:
    """``data[key]``, which must be a one-dimensional array of
    ``length`` entries (a checkpoint from a graph of another size, or a
    damaged one, must not load as a silently short array)."""
    array = data[key]
    if array.shape != (length,):
        raise ValueError(
            f"{key} has shape {array.shape}, expected ({length},)"
        )
    return array


def export_partition_csv(
    partitioner: IGKway, path: "str | Path"
) -> None:
    """Write ``vertex_id,partition`` rows for all active vertices.

    The interchange format downstream tools (schedulers, placers)
    typically consume.
    """
    graph = partitioner.graph
    state = partitioner.state
    if graph is None or state is None:
        raise PartitionError("cannot export before full_partition()")
    active = graph.active_vertices()
    lines = ["vertex,partition"]
    for u in active:
        lines.append(f"{int(u)},{int(state.partition[u])}")
    Path(path).write_text("\n".join(lines) + "\n")
