"""Checkpoint save/restore and partition export."""

import json
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IGKway, PartitionConfig
from repro.core.serialize import (
    _MAGIC,
    _PREFIX,
    FORMAT_VERSION,
    _pack,
    _unpack,
    export_partition_csv,
    load_checkpoint,
    load_partitioner,
    save_partitioner,
)
from repro.core.transaction import state_digest
from repro.eval.workloads import TraceConfig, generate_trace
from repro.graph import (
    EMPTY,
    EdgeDelete,
    EdgeInsert,
    ModifierBatch,
    VertexDelete,
    VertexInsert,
    circuit_graph,
)
from repro.graph.bucketlist import SLOTS_PER_BUCKET
from repro.serve.registry import partition_sha256
from repro.utils import PartitionError
from repro.utils.faultinject import FaultInjector, InjectedAbort

#: Partition count of the ``warm_partitioner`` checkpoints.
_K = 4


@pytest.fixture
def warm_partitioner(small_circuit):
    ig = IGKway(small_circuit, PartitionConfig(k=_K, seed=3))
    ig.full_partition()
    trace = generate_trace(
        small_circuit,
        TraceConfig(iterations=3, modifiers_per_iteration=20, seed=5),
    )
    for batch in trace:
        ig.apply(batch)
    return ig


def _digests(partitioner):
    return (
        state_digest(partitioner.graph, partitioner.state),
        partition_sha256(partitioner.partition),
    )


def _rewrite(path, change):
    """Rewrite the checkpoint at ``path``, replacing the fields that
    ``change(fields)`` returns.

    A format-4 file is packed again with fresh CRCs (its header fields
    and arrays form one ``fields`` dict), so the loader's structural
    checks, not its CRC checks, meet the change; a zip archive is saved
    again as one.
    """
    blob = path.read_bytes()
    if not blob.startswith(_MAGIC):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays.update(change(arrays))
        np.savez(path, **arrays)
        return
    header, arrays = _unpack(blob)
    fields = {**header, **arrays}
    fields.update(change(fields))
    arrays = {k: v for k, v in fields.items() if isinstance(v, np.ndarray)}
    header = {k: v for k, v in fields.items() if k not in arrays}
    path.write_bytes(_pack(header, arrays))


class TestSaveLoad:
    def test_roundtrip_preserves_state(self, warm_partitioner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        restored = load_partitioner(path)
        assert np.array_equal(
            restored.graph.bucket_list, warm_partitioner.graph.bucket_list
        )
        assert np.array_equal(
            restored.partition, warm_partitioner.partition
        )
        assert (
            restored.iterations_applied
            == warm_partitioner.iterations_applied
        )
        assert restored.cut_size() == warm_partitioner.cut_size()
        restored.validate()

    def test_restored_continues_identically(
        self, warm_partitioner, tmp_path
    ):
        from repro.graph import EdgeDelete, EdgeInsert, ModifierBatch

        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        restored = load_partitioner(path)
        # Build a follow-up batch against the live graph's actual IDs.
        graph = warm_partitioner.graph
        active = graph.active_vertices()
        u, v = int(active[0]), int(active[-1])
        mods = []
        if graph.has_edge(u, v):
            mods.append(EdgeDelete(u, v))
        else:
            mods.append(EdgeInsert(u, v))
        w = int(active[len(active) // 2])
        for x in (int(active[1]), int(active[-2])):
            if x != w and not graph.has_edge(w, x):
                mods.append(EdgeInsert(w, x))
                break
        batch = ModifierBatch(mods)
        a = warm_partitioner.apply(batch)
        b = restored.apply(batch)
        assert a.cut == b.cut
        assert np.array_equal(
            warm_partitioner.partition, restored.partition
        )

    def test_config_roundtrip(self, warm_partitioner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        restored = load_partitioner(path)
        assert restored.config == warm_partitioner.config

    def test_full_partition_refused_after_load(self, tmp_path):
        # Re-partitioning needs the initial graph, which a checkpoint
        # does not hold; it must not renumber the live vertex IDs.
        csr = circuit_graph(400, 1.4, seed=1)
        ig = IGKway(csr, PartitionConfig(k=2, seed=1))
        ig.full_partition()
        ig.apply(ModifierBatch([VertexDelete(5), VertexDelete(17)]))
        path = tmp_path / "checkpoint.npz"
        save_partitioner(ig, path)
        restored = load_partitioner(path)
        with pytest.raises(PartitionError, match="full_partition"):
            restored.full_partition()
        assert _digests(restored) == _digests(ig)
        assert restored.graph.num_vertices == 400
        assert not restored.graph.is_active(5)

    def test_save_before_partition_rejected(self, small_circuit,
                                            tmp_path):
        ig = IGKway(small_circuit, PartitionConfig(k=2))
        with pytest.raises(PartitionError):
            save_partitioner(ig, tmp_path / "x.npz")

    def test_bad_version_rejected(self, warm_partitioner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        _rewrite(path, lambda fields: {"format_version": 999})
        with pytest.raises(PartitionError, match="format 999 unsupported"):
            load_partitioner(path)


class TestExport:
    def test_csv_contains_active_vertices(self, warm_partitioner,
                                          tmp_path):
        path = tmp_path / "partition.csv"
        export_partition_csv(warm_partitioner, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "vertex,partition"
        n_active = warm_partitioner.graph.num_active_vertices()
        assert len(lines) == n_active + 1
        for line in lines[1:3]:
            vertex, label = line.split(",")
            assert 0 <= int(label) < 4

    def test_export_before_partition_rejected(self, small_circuit,
                                              tmp_path):
        ig = IGKway(small_circuit, PartitionConfig(k=2))
        with pytest.raises(PartitionError):
            export_partition_csv(ig, tmp_path / "x.csv")


class TestFormatV2:
    """Stream metadata (added in format 2), legacy files and robust
    failure modes."""

    def test_format_version_is_4(self, warm_partitioner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC)
        assert not zipfile.is_zipfile(path)
        header, arrays = _unpack(blob)
        assert header["format_version"] == FORMAT_VERSION == 4
        assert header["stream_meta"] == {}
        # Every array of a small graph fits the narrow dtypes.
        assert {a.dtype.str for a in arrays.values()} == {"<i4", "|u1"}
        assert arrays["vertex_status"].dtype == np.uint8

    def test_wide_values_stay_int64(self, warm_partitioner, tmp_path):
        graph = warm_partitioner.graph
        u = int(graph.active_vertices()[0])
        graph.vwgt[u] = 2**40
        start, _n_slots = graph.slot_range(u)
        graph.slot_wgt[start] = -(2**35)  # a filled slot's weight
        assert graph.bucket_list[start] != EMPTY
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        _header, arrays = _unpack(path.read_bytes())
        assert arrays["vwgt"].dtype.str == "<i8"
        assert arrays["filled_wgt"].dtype.str == "<i8"
        assert arrays["filled_pos"].dtype.str == "<i4"
        restored = load_partitioner(path)
        assert restored.graph.vwgt.dtype == np.int64
        assert np.array_equal(restored.graph.vwgt, graph.vwgt)
        assert np.array_equal(restored.graph.slot_wgt, graph.slot_wgt)

    def test_stream_meta_roundtrip(self, warm_partitioner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        meta = {
            "applied_seq": 41,
            "adaptive": {"reference_cut": 77},
            "telemetry": {"ingested": 123},
        }
        save_partitioner(warm_partitioner, path, stream_meta=meta)
        restored, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        assert restored.cut_size() == warm_partitioner.cut_size()

    def test_meta_defaults_to_empty(self, warm_partitioner, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        _restored, meta = load_checkpoint(path)
        assert meta == {}

    def test_v1_file_still_loads(
        self, warm_partitioner, tmp_path, save_legacy_checkpoint
    ):
        path = tmp_path / "checkpoint.npz"
        save_legacy_checkpoint(warm_partitioner, path, 1)
        restored, meta = load_checkpoint(path)
        assert meta == {}
        assert _digests(restored) == _digests(warm_partitioner)
        assert restored.cut_size() == warm_partitioner.cut_size()

    def test_v2_file_still_loads(
        self, warm_partitioner, tmp_path, save_legacy_checkpoint
    ):
        path = tmp_path / "checkpoint.npz"
        save_legacy_checkpoint(
            warm_partitioner, path, 2, stream_meta={"applied_seq": 9}
        )
        restored, meta = load_checkpoint(path)
        assert meta == {"applied_seq": 9}
        assert _digests(restored) == _digests(warm_partitioner)
        assert np.array_equal(
            restored.graph.bucket_list, warm_partitioner.graph.bucket_list
        )

    def test_v3_file_still_loads(
        self, warm_partitioner, tmp_path, save_legacy_checkpoint
    ):
        path = tmp_path / "checkpoint.npz"
        save_legacy_checkpoint(
            warm_partitioner, path, 3, stream_meta={"applied_seq": 9}
        )
        assert zipfile.is_zipfile(path)
        restored, meta = load_checkpoint(path)
        assert meta == {"applied_seq": 9}
        assert _digests(restored) == _digests(warm_partitioner)
        assert np.array_equal(
            restored.graph.bucket_list, warm_partitioner.graph.bucket_list
        )

    def test_missing_file_raises_partition_error(self, tmp_path):
        with pytest.raises(PartitionError, match="not found"):
            load_partitioner(tmp_path / "nope.npz")

    def test_truncated_archive_raises_partition_error(
        self, warm_partitioner, tmp_path
    ):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(PartitionError):
            load_partitioner(path)

    def test_garbage_file_raises_partition_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(PartitionError):
            load_partitioner(path)

    def test_missing_keys_raise_partition_error(
        self, warm_partitioner, tmp_path
    ):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        header, arrays = _unpack(path.read_bytes())
        del arrays["partition"]
        path.write_bytes(_pack(header, arrays))
        with pytest.raises(PartitionError, match="missing fields"):
            load_partitioner(path)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("format_version", "not an iG-kway checkpoint"),
            ("config", "missing fields: config"),
            ("capacity", "missing fields: capacity"),
            ("filled_wgt", "missing fields: filled_wgt"),
        ],
    )
    def test_missing_field_is_named(
        self, warm_partitioner, tmp_path, field, message
    ):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        header, arrays = _unpack(path.read_bytes())
        (arrays if field in arrays else header).pop(field)
        path.write_bytes(_pack(header, arrays))
        with pytest.raises(PartitionError, match=message):
            load_partitioner(path)

    @pytest.mark.parametrize(
        "header",
        [b"[1, 2]", b'"text"', b'{"format_version": 4, "arrays": 7}'],
    )
    def test_malformed_header_raises_partition_error(self, tmp_path, header):
        """A header with valid CRCs that is not a JSON object, or whose
        layout is not a list of entries, is a corrupt file."""
        path = tmp_path / "checkpoint.npz"
        path.write_bytes(
            _PREFIX.pack(_MAGIC, len(header), zlib.crc32(header), 0) + header
        )
        with pytest.raises(PartitionError, match="corrupt"):
            load_partitioner(path)

    def test_truncated_header_raises_partition_error(
        self, warm_partitioner, tmp_path
    ):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        for size in (4, 20, 40):
            path.write_bytes(path.read_bytes()[:size])
            with pytest.raises(PartitionError, match="corrupt"):
                load_partitioner(path)

    def test_not_a_checkpoint_raises_partition_error(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, unrelated=np.arange(4))
        with pytest.raises(PartitionError, match="format_version"):
            load_partitioner(path)


def _non_neighbors(graph, u, n):
    """Up to ``n`` active vertices ``u`` has no edge to."""
    return [
        int(v)
        for v in graph.active_vertices()
        if v != u and not graph.has_edge(u, int(v))
    ][:n]


def _overflow_batch(graph, u, extra):
    """Edge inserts filling ``u``'s free slots, plus ``extra`` more."""
    free = int(graph.bucket_count[u]) * SLOTS_PER_BUCKET - graph.degree(u)
    return ModifierBatch(
        [EdgeInsert(u, v) for v in _non_neighbors(graph, u, free + extra)]
    )


def _first_filled_names(values, vertex):
    """``values`` (a pool or neighbour array) with its first filled
    slot naming ``vertex``."""
    out = values.copy()
    out[np.flatnonzero(out != -1)[0]] = vertex
    return out


def _first_labelled(partition, label):
    """``partition`` with its first vertex labelled ``label``."""
    out = partition.copy()
    out[0] = label
    return out


#: Format-3 malformations: each rewrites a valid file's arrays, and
#: the load error must name what is wrong.
_MALFORMED_V3 = {
    "unequal-lengths": (
        lambda a: {"filled_nbr": a["filled_nbr"][:-1]},
        "equal length",
    ),
    "float-dtype": (
        lambda a: {"filled_pos": a["filled_pos"].astype(np.float64)},
        "integer dtype",
    ),
    "positions-not-increasing": (
        lambda a: {
            "filled_pos": a["filled_pos"][
                [1, 0, *range(2, a["filled_pos"].size)]
            ]
        },
        "strictly increasing",
    ),
    "position-past-used-prefix": (
        lambda a: {
            "filled_pos": np.append(
                a["filled_pos"][:-1],
                a["num_buckets_used"] * SLOTS_PER_BUCKET,
            )
        },
        "used pool prefix",
    ),
    "negative-position": (
        lambda a: {"filled_pos": np.append(-1, a["filled_pos"][1:])},
        "used pool prefix",
    ),
    "tail-past-pool": (
        lambda a: {"num_buckets_used": a["pool_buckets"] + 1},
        "num_buckets_used",
    ),
    "ids-past-capacity": (
        lambda a: {"num_vertices": a["capacity"] + 1},
        "num_vertices",
    ),
    "short-vertex-array": (
        lambda a: {"vwgt": a["vwgt"][:-1]},
        "vwgt has shape",
    ),
    "neighbour-past-capacity": (
        lambda a: {
            "filled_nbr": _first_filled_names(
                a["filled_nbr"], int(a["capacity"]) + 5
            )
        },
        "names a vertex outside",
    ),
    "negative-neighbour": (
        lambda a: {"filled_nbr": _first_filled_names(a["filled_nbr"], -7)},
        "names a vertex outside",
    ),
    "buckets-past-tail": (
        lambda a: {
            "bucket_start": np.append(
                a["num_buckets_used"], a["bucket_start"][1:]
            )
        },
        "outside the used pool prefix",
    ),
    "overlapping-buckets": (
        lambda a: {
            "bucket_start": np.append(
                a["bucket_start"][0], a["bucket_start"][:-1]
            )
        },
        "overlap or miss a filled slot",
    ),
    "slots-without-owner": (
        lambda a: {"bucket_count": np.zeros_like(a["bucket_count"])},
        "overlap or miss a filled slot",
    ),
    "label-past-pseudo": (
        lambda a: {"partition": _first_labelled(a["partition"], _K + 1)},
        "label lies outside",
    ),
    "label-below-unassigned": (
        lambda a: {"partition": _first_labelled(a["partition"], -2)},
        "label lies outside",
    ),
}

#: Format-1/2 malformations; the whole pool arrays must fit the header.
_MALFORMED_LEGACY = {
    name: _MALFORMED_V3[name]
    for name in (
        "tail-past-pool",
        "ids-past-capacity",
        "short-vertex-array",
        "buckets-past-tail",
        "overlapping-buckets",
        "slots-without-owner",
        "label-past-pseudo",
        "label-below-unassigned",
    )
}
_MALFORMED_LEGACY["short-pool-array"] = (
    lambda a: {"slot_wgt": a["slot_wgt"][:-32]},
    "slot_wgt has shape",
)
_MALFORMED_LEGACY["neighbour-past-capacity"] = (
    lambda a: {
        "bucket_list": _first_filled_names(
            a["bucket_list"], int(a["capacity"]) + 5
        )
    },
    "names a vertex outside",
)
_MALFORMED_LEGACY["negative-neighbour"] = (
    lambda a: {"bucket_list": _first_filled_names(a["bucket_list"], -7)},
    "names a vertex outside",
)


class TestFormatV3:
    """The pool stored as its filled slots only: format 3 introduced
    the encoding, and format 4 packs the same arrays."""

    @given(
        seed=st.integers(0, 10_000),
        extra=st.integers(1, 8),
        abort_after=st.integers(1, 60),
    )
    @settings(max_examples=12, deadline=None)
    def test_roundtrip_is_bit_identical(
        self, save_legacy_checkpoint, seed, extra, abort_after
    ):
        csr = circuit_graph(120, 1.4, seed=seed)
        live = IGKway(csr, PartitionConfig(k=3, seed=seed))
        live.full_partition()
        mix = {
            "edge_insert": 0.3,
            "edge_delete": 0.2,
            "vertex_insert": 0.25,
            "vertex_delete": 0.25,
        }
        for batch in generate_trace(
            csr,
            TraceConfig(
                iterations=3,
                modifiers_per_iteration=(5, 15),
                mix=mix,
                seed=seed,
            ),
        ):
            live.apply(batch)
        graph = live.graph
        rng = np.random.default_rng(seed)
        gone, hub, rolled_hub = map(
            int, rng.permutation(graph.active_vertices())[:3]
        )
        # Delete a vertex, then re-insert it with new edges.
        live.apply(ModifierBatch([VertexDelete(gone)]))
        live.apply(
            ModifierBatch(
                [VertexInsert(gone)]
                + [EdgeInsert(gone, v) for v in _non_neighbors(graph, gone, 3)]
            )
        )
        # Overflow a vertex's buckets, relocating it to the pool tail.
        start = int(graph.bucket_start[hub])
        live.apply(_overflow_batch(graph, hub, extra))
        assert int(graph.bucket_start[hub]) != start
        # A batch that relocates another vertex aborts mid-kernel and
        # rolls back.
        before = state_digest(graph, live.state)
        with FaultInjector().kernel_abort(graph, abort_after):
            with pytest.raises(InjectedAbort):
                live.apply(_overflow_batch(graph, rolled_hub, extra))
        assert state_digest(graph, live.state) == before

        with tempfile.TemporaryDirectory() as tmp:
            save_partitioner(live, Path(tmp) / "v4.npz")
            v4 = load_partitioner(Path(tmp) / "v4.npz")
            legacy = {}
            for version in (1, 2, 3):
                path = Path(tmp) / f"v{version}.npz"
                save_legacy_checkpoint(live, path, version)
                legacy[version] = load_partitioner(path)
        v2 = legacy[2]
        for restored in (v4, *legacy.values()):
            assert _digests(restored) == _digests(live)
            for name in ("bucket_list", "slot_wgt", "bucket_start",
                         "bucket_count", "vertex_status", "vwgt",
                         "partition"):
                owner = restored if name == "partition" else restored.graph
                expected = live if name == "partition" else graph
                assert np.array_equal(
                    getattr(owner, name), getattr(expected, name)
                ), name
                assert getattr(owner, name).dtype == getattr(
                    expected, name
                ).dtype, name

        nbr = int(graph.neighbors(hub)[0])
        batch = ModifierBatch(
            [EdgeDelete(hub, nbr), VertexInsert(graph.num_vertices)]
            + [EdgeInsert(gone, v) for v in _non_neighbors(graph, gone, 2)]
        )
        reports = [p.apply(batch) for p in (live, v4, v2)]
        # Restored partitioners start on a fresh ledger, so only they
        # agree on modeled seconds; every outcome matches the live one.
        assert reports[1] == reports[2]
        for field in ("cut", "balanced", "balance_stats", "refine_stats",
                      "applied_modifiers"):
            assert getattr(reports[1], field) == getattr(reports[0], field)
        assert _digests(v4) == _digests(live) == _digests(v2)

    def test_no_array_scales_with_the_pool(
        self, warm_partitioner, tmp_path
    ):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        graph = warm_partitioner.graph
        filled = int(np.count_nonzero(graph.bucket_list != EMPTY))
        bound = max(graph.capacity, filled)
        assert bound < graph.pool_buckets * SLOTS_PER_BUCKET
        header, arrays = _unpack(path.read_bytes())
        for key, array in arrays.items():
            assert array.size <= bound, key
        # The header is text sized by the configuration, the stream
        # metadata and the layout, not by the graph.
        assert len(json.dumps(header)) < 4096

    def test_mid_file_byte_flip_raises_partition_error(
        self, warm_partitioner, tmp_path
    ):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(PartitionError, match="CRC"):
            load_partitioner(path)

    @pytest.mark.parametrize("malformation", sorted(_MALFORMED_V3))
    def test_malformed_file_raises_partition_error(
        self, warm_partitioner, tmp_path, malformation
    ):
        path = tmp_path / "checkpoint.npz"
        save_partitioner(warm_partitioner, path)
        change, message = _MALFORMED_V3[malformation]
        _rewrite(path, change)
        with pytest.raises(PartitionError, match=message) as caught:
            load_partitioner(path)
        assert "CRC" not in str(caught.value)

    @pytest.mark.parametrize("malformation", sorted(_MALFORMED_V3))
    def test_malformed_v3_file_raises_partition_error(
        self, warm_partitioner, tmp_path, save_legacy_checkpoint,
        malformation,
    ):
        path = tmp_path / "checkpoint.npz"
        save_legacy_checkpoint(warm_partitioner, path, 3)
        change, message = _MALFORMED_V3[malformation]
        _rewrite(path, change)
        with pytest.raises(PartitionError, match=message):
            load_partitioner(path)

    @pytest.mark.parametrize("malformation", sorted(_MALFORMED_LEGACY))
    @pytest.mark.parametrize("version", [1, 2])
    def test_malformed_legacy_file_raises_partition_error(
        self,
        warm_partitioner,
        tmp_path,
        save_legacy_checkpoint,
        version,
        malformation,
    ):
        path = tmp_path / "checkpoint.npz"
        save_legacy_checkpoint(warm_partitioner, path, version)
        change, message = _MALFORMED_LEGACY[malformation]
        _rewrite(path, change)
        with pytest.raises(PartitionError, match=message):
            load_partitioner(path)
