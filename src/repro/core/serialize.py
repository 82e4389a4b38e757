"""Checkpointing: save and restore a live incremental partitioner.

Long-running CAD sessions (the paper's motivating applications run
"thousands or even millions of incremental iterations") need to park and
resume partitioner state.  ``save_partitioner`` serializes everything a
running :class:`~repro.core.igkway.IGKway` holds — the bucket-list
graph, the partition assignment, and the configuration — into one
file; ``load_partitioner`` reconstitutes an equivalent partitioner
(with a fresh cost ledger) that continues exactly where the saved one
stopped.

Format version 4 (the only one written) is one packed file, written in
one ``write`` and read in one ``read``::

    magic    b"IGKWAY\x00\x04"                                 8 bytes
    prefix   header length, header CRC-32, body CRC-32   3 x uint32 LE
    header   JSON: format version, configuration, stream metadata,
             graph scalars and the body layout, one
             [name, dtype, length] entry per array
    body     the arrays, back to back, in layout order

The arrays are format 3's: the bucket pool as its filled slots (their
positions inside the used prefix, neighbour IDs and weights, see
:meth:`BucketListGraph.filled_slots`) plus the per-vertex arrays and
the partition.  The pool is pre-allocated with spare buckets and tail
slack (Section V.A), so only a few percent of its slots hold an edge;
saving and loading scale with the live graph, not the pool.  Each
int64 array is stored as int32 when its values fit (vertex status
stays uint8), and loading widens it back.  Loading checks both CRCs,
then scatters the slots into a fresh pool at their original positions,
so ``__ffs`` slot choices and
:func:`~repro.core.transaction.state_digest` come back bit-identical.

Older versions are zip archives (``.npz``) and still load:
:func:`load_checkpoint` tells them from format 4 by the first bytes.
Versions 1 and 2 stored the whole pool arrays, compressed; version 2
added the *stream metadata* JSON that :mod:`repro.stream` uses to
persist its journal cursor (the sequence number of the last applied
modifier) and the adaptive-trigger state, so ``StreamSession.recover``
can replay exactly the un-checkpointed suffix of the modifier log;
version 3 stored the filled slots in an uncompressed archive.

The stream journal keeps its checkpoints in two *slots* under the
historical names ``checkpoint.npz`` and ``checkpoint.prev.npz``, and
overwrites a slot in place without truncating it, so a slot may be
longer than the checkpoint it holds.  ``load_checkpoint(path,
slack=True)`` reads such a file: the body ends where the header's
layout says, and the CRC-32 covers only that much.  Without ``slack``
(every standalone :func:`save_partitioner` file) a byte past the body
fails the body's check, as it always did.  :func:`peek_stream_meta`
reads only a slot's header — the journal orders slots by the
``generation`` in their stream metadata before loading one.

Derived state is *not* serialized: the incremental cut accumulator
(:class:`~repro.partition.cutacc.CutAccumulator`) is reconstructible
from the graph + partition, so checkpoints omit it and loading
bootstraps a fresh one (``IGKway.from_state``) — keeping the format
stable and the digest independent of the accumulator.
"""

from __future__ import annotations

import dataclasses
import io
import json
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.core.igkway import IGKway
from repro.gpusim.context import GpuContext
from repro.graph.bucketlist import SLOTS_PER_BUCKET, BucketListGraph
from repro.partition.config import PartitionConfig
from repro.partition.state import UNASSIGNED
from repro.utils.errors import PartitionError

#: Bumped whenever the on-disk layout changes.  Version 4 (this
#: release) packs format 3's arrays into one CRC-checked file.
FORMAT_VERSION = 4

#: First bytes of a format-4 file (a zip archive starts with ``PK``).
_MAGIC = b"IGKWAY\x00\x04"

#: Magic, header length, header CRC-32, body CRC-32.
_PREFIX = struct.Struct("<8sIII")

_INT32 = np.iinfo(np.int32)

#: How each readable version stores the bucket pool: whole arrays
#: (1, 2) or the filled slots' positions, neighbours and weights (3, 4).
_POOL_KEYS = {
    1: ("bucket_list", "slot_wgt"),
    2: ("bucket_list", "slot_wgt"),
    3: ("filled_pos", "filled_nbr", "filled_wgt"),
    4: ("filled_pos", "filled_nbr", "filled_wgt"),
}

#: Versions ``load_partitioner`` can read.
SUPPORTED_VERSIONS = tuple(_POOL_KEYS)

#: Per-vertex arrays, each of length ``capacity`` in every version.
_VERTEX_KEYS = ("bucket_start", "bucket_count", "vertex_status", "vwgt")

#: Fields every checkpoint must hold besides its pool arrays (the
#: decoded ``config_json`` member of a zip archive is ``config``).
_REQUIRED_KEYS = (
    "format_version",
    "config",
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
    """Serialize a partitioned :class:`IGKway` to ``path`` (format 4).

    ``stream_meta`` is an optional JSON-serializable dict persisted
    verbatim; :mod:`repro.stream` stores its journal cursor there.
    """
    Path(path).write_bytes(pack_checkpoint(partitioner, stream_meta))


def pack_checkpoint(
    partitioner: IGKway, stream_meta: dict | None = None
) -> bytes:
    """The format-4 bytes :func:`save_partitioner` writes, for a caller
    that stores them itself (the stream journal overwrites a checkpoint
    slot in place)."""
    graph = partitioner.graph
    state = partitioner.state
    if graph is None or state is None:
        raise PartitionError("cannot save before full_partition()")
    positions, neighbors, weights = graph.filled_slots()
    fields = {
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(partitioner.config),
        "stream_meta": stream_meta if stream_meta is not None else {},
        "capacity": int(graph.capacity),
        "pool_buckets": int(graph.pool_buckets),
        "gamma": int(graph.gamma),
        "num_vertices": int(graph.num_vertices),
        "num_buckets_used": int(graph.num_buckets_used),
        "iterations_applied": int(partitioner.iterations_applied),
    }
    arrays = {
        "filled_pos": positions,
        "filled_nbr": neighbors,
        "filled_wgt": weights,
        "bucket_start": graph.bucket_start,
        "bucket_count": graph.bucket_count,
        "vertex_status": graph.vertex_status,
        "vwgt": graph.vwgt,
        "partition": state.partition,
    }
    return _pack(fields, arrays)


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
    file, a truncated or corrupt file, arrays of the wrong size, a
    filled slot naming a vertex outside ``[0, num_vertices)`` or lying
    in no vertex's buckets, overlapping bucket ranges, a partition
    label outside ``[-1, k]`` or an unsupported format version.
    """
    partitioner, _meta = load_checkpoint(path, ctx=ctx)
    return partitioner


def load_checkpoint(
    path: "str | Path", ctx: GpuContext | None = None, *, slack: bool = False
) -> "tuple[IGKway, dict]":
    """Like :func:`load_partitioner`, also returning the stream metadata.

    Version-1 checkpoints (no stream metadata) yield an empty dict.
    ``slack=True`` reads a checkpoint slot, which is overwritten in
    place and never truncated: a format-4 body ends where its header's
    layout says, and the bytes after it, left by an older and longer
    checkpoint, are neither checked nor read.
    """
    # The file's bytes and decoded arrays are freed when _read returns,
    # before the cut accumulator's bootstrap, whose temporaries then
    # reuse that memory: on a 6000-cell k=8 checkpoint, 1841 rather than
    # 2014 minor page faults per load, and ~0.6 ms less on a 2-vCPU host.
    graph, partition, config, iterations, meta = _read(Path(path), slack)
    partitioner = IGKway.from_state(
        graph, partition, config, iterations, ctx=ctx
    )
    return partitioner, meta


def peek_stream_meta(path: "str | Path") -> "dict | None":
    """The stream metadata of the format-4 checkpoint at ``path``, read
    from its header alone: the header's CRC is checked, the body is not
    read.  ``None`` for a format 1-3 archive, which keeps it in a member.

    Raises :class:`~repro.utils.errors.PartitionError` on a missing
    file, a header that fails its check, or a file that is neither.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            prefix = handle.read(_PREFIX.size)
            if prefix.startswith(b"PK"):
                return None
            if len(prefix) < _PREFIX.size or not prefix.startswith(_MAGIC):
                raise ValueError("not a format-4 checkpoint")
            _magic, header_len, header_crc, _body_crc = _PREFIX.unpack(
                prefix
            )
            header = handle.read(header_len)
        if len(header) != header_len or zlib.crc32(header) != header_crc:
            raise ValueError("header fails its CRC-32 check")
        meta = _header_fields(header).get("stream_meta", {})
        if not isinstance(meta, dict):
            raise ValueError("stream metadata is not a JSON object")
        return meta
    except FileNotFoundError as exc:
        raise PartitionError(f"checkpoint not found: {path}") from exc
    except (ValueError, OSError) as exc:
        raise PartitionError(
            f"{path}: truncated or corrupt checkpoint ({exc})"
        ) from exc


def _read(
    path: Path, slack: bool = False
) -> "tuple[BucketListGraph, np.ndarray, PartitionConfig, int, dict]":
    """The graph, partition, configuration, iteration count and stream
    metadata of the checkpoint at ``path``."""
    try:
        data = path.read_bytes()
        if data.startswith(_MAGIC):
            fields, arrays = _unpack(data, slack)
            fields.update(
                (name, _widen(array)) for name, array in arrays.items()
            )
        else:
            fields = _read_archive(data)
        graph, partition, config, iterations = _restore(path, fields)
    except PartitionError:
        raise
    except FileNotFoundError as exc:
        raise PartitionError(f"checkpoint not found: {path}") from exc
    except (
        KeyError,
        ValueError,
        TypeError,
        OSError,
        EOFError,
        zipfile.BadZipFile,
    ) as exc:
        raise PartitionError(
            f"{path}: truncated or corrupt checkpoint ({exc})"
        ) from exc
    return graph, partition, config, iterations, fields.get("stream_meta", {})


def _pack(fields: dict, arrays: "dict[str, np.ndarray]") -> bytes:
    """A format-4 file holding the header ``fields`` and ``arrays``."""
    stored = [_narrow(np.ascontiguousarray(a)) for a in arrays.values()]
    layout = [
        [name, array.dtype.str, int(array.size)]
        for name, array in zip(arrays, stored)
    ]
    header = json.dumps({**fields, "arrays": layout}).encode()
    body_crc = 0
    for array in stored:
        body_crc = zlib.crc32(array, body_crc)
    prefix = _PREFIX.pack(_MAGIC, len(header), zlib.crc32(header), body_crc)
    return b"".join([prefix, header, *stored])


def _unpack(
    data: bytes, slack: bool = False
) -> "tuple[dict, dict[str, np.ndarray]]":
    """Inverse of :func:`_pack`: the header fields and read-only views
    of the arrays as stored.  Raises ``ValueError`` on a short file, a
    failed CRC-32 check or a body its layout does not describe; with
    ``slack``, the bytes past the body the layout describes are
    ignored (see :func:`load_checkpoint`)."""
    if len(data) < _PREFIX.size:
        raise ValueError("file shorter than its prefix")
    _magic, header_len, header_crc, body_crc = _PREFIX.unpack_from(data)
    view = memoryview(data)
    header = view[_PREFIX.size : _PREFIX.size + header_len]
    body = view[_PREFIX.size + header_len :]
    if len(header) != header_len or zlib.crc32(header) != header_crc:
        raise ValueError("header fails its CRC-32 check")
    fields = _header_fields(header)
    layout = [
        (name, np.dtype(dtype), length)
        for name, dtype, length in fields.pop("arrays")
    ]
    if slack:
        body = body[: sum(dtype.itemsize * n for _name, dtype, n in layout)]
    if zlib.crc32(body) != body_crc:
        raise ValueError("body fails its CRC-32 check")
    arrays = {}
    offset = 0
    for name, dtype, length in layout:
        if not np.issubdtype(dtype, np.integer):
            raise ValueError(
                f"{name} must have an integer dtype, got {dtype}"
            )
        arrays[name] = np.frombuffer(
            body, dtype=dtype, count=length, offset=offset
        )
        offset += dtype.itemsize * length
    if offset != len(body):
        raise ValueError(
            f"body holds {len(body)} bytes, its layout {offset}"
        )
    return fields, arrays


def _header_fields(header: "bytes | memoryview") -> dict:
    """A format-4 header's JSON object."""
    fields = json.loads(bytes(header))
    if not isinstance(fields, dict):
        raise ValueError("header is not a JSON object")
    return fields


def _narrow(array: np.ndarray) -> np.ndarray:
    """``array`` as int32 when it is int64 and its values fit."""
    if array.dtype == np.int64 and (
        array.size == 0
        or (_INT32.min <= array.min() and array.max() <= _INT32.max)
    ):
        return array.astype(np.int32)
    return array


def _widen(array: np.ndarray) -> np.ndarray:
    """A writable copy of a stored array in its in-memory dtype: signed
    integers are int64 in memory, vertex status stays uint8."""
    return array.astype(np.int64 if array.dtype.kind == "i" else array.dtype)


def _read_archive(data: bytes) -> dict:
    """Every member of a format 1-3 ``.npz`` archive, with the
    ``config_json`` and ``stream_meta_json`` payloads decoded."""
    with np.load(io.BytesIO(data)) as archive:
        fields = {key: archive[key] for key in archive.files}
    for key in ("config_json", "stream_meta_json"):
        if key in fields:
            payload = bytes(fields.pop(key)).decode()
            fields[key.removesuffix("_json")] = json.loads(payload)
    return fields


def _restore(
    path: Path, fields: dict
) -> "tuple[BucketListGraph, np.ndarray, PartitionConfig, int]":
    """Validate a checkpoint's fields; rebuild its graph, partition,
    configuration and iteration count."""
    if "format_version" not in fields:
        raise PartitionError(
            f"{path}: not an iG-kway checkpoint (no format_version field)"
        )
    version = int(fields["format_version"])
    if version not in SUPPORTED_VERSIONS:
        raise PartitionError(
            f"checkpoint format {version} unsupported "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
    missing = [
        k
        for k in (*_REQUIRED_KEYS, *_POOL_KEYS[version])
        if k not in fields
    ]
    if missing:
        raise PartitionError(
            f"{path}: truncated checkpoint, missing fields: "
            f"{', '.join(missing)}"
        )
    config = PartitionConfig(**fields["config"])
    graph = BucketListGraph(
        capacity=int(fields["capacity"]),
        pool_buckets=int(fields["pool_buckets"]),
        gamma=int(fields["gamma"]),
    )
    graph.num_vertices = int(fields["num_vertices"])
    graph.num_buckets_used = int(fields["num_buckets_used"])
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
        setattr(graph, key, _read_sized(fields, key, graph.capacity))
    partition = _read_sized(fields, "partition", graph.capacity)
    if version >= 3:
        positions, neighbors, weights = (
            fields[key] for key in _POOL_KEYS[version]
        )
        graph.scatter_filled_slots(positions, neighbors, weights)
    else:
        pool_slots = graph.pool_buckets * SLOTS_PER_BUCKET
        for key in _POOL_KEYS[version]:
            setattr(graph, key, _read_sized(fields, key, pool_slots))
        positions, neighbors, _weights = graph.filled_slots()
    _check_bucket_ranges(path, graph, positions)
    if neighbors.size and (
        neighbors.min() < 0 or neighbors.max() >= graph.num_vertices
    ):
        raise PartitionError(
            f"{path}: a filled slot names a vertex outside "
            f"[0, {graph.num_vertices})"
        )
    if partition.size and (
        partition.min() < UNASSIGNED or partition.max() > config.k
    ):
        raise PartitionError(
            f"{path}: a partition label lies outside [-1, {config.k}]"
        )
    return graph, partition, config, int(fields["iterations_applied"])


def _check_bucket_ranges(
    path: Path, graph: BucketListGraph, positions: np.ndarray
) -> None:
    """Raise unless the vertices' bucket ranges are disjoint, lie in the
    used pool prefix and hold every filled slot (``positions``): the cut
    accumulator's bootstrap gives each slot to the range holding it."""
    counts = graph.bucket_count[: graph.num_vertices]
    starts = graph.bucket_start[: graph.num_vertices][counts > 0]
    ends = starts + counts[counts > 0]
    used = graph.num_buckets_used
    if starts.size and (starts.min() < 0 or ends.max() > used):
        raise PartitionError(
            f"{path}: a vertex's buckets lie outside the used pool prefix"
        )
    depth = np.cumsum(
        np.bincount(starts, minlength=used + 1)
        - np.bincount(ends, minlength=used + 1)
    )
    if np.any(depth > 1) or np.any(
        depth[positions // SLOTS_PER_BUCKET] == 0
    ):
        raise PartitionError(
            f"{path}: vertex bucket ranges overlap or miss a filled slot"
        )


def _read_sized(fields: dict, key: str, length: int) -> np.ndarray:
    """``fields[key]``, which must be a one-dimensional array of
    ``length`` entries (a checkpoint from a graph of another size, or a
    damaged one, must not load as a silently short array)."""
    array = fields[key]
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
