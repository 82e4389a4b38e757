"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.gpusim import GpuContext
from repro.graph import (
    BucketListGraph,
    CSRGraph,
    HostGraph,
    circuit_graph,
    mesh_graph_2d,
)


@pytest.fixture
def ctx() -> GpuContext:
    """A fresh simulated-GPU context."""
    return GpuContext()


@pytest.fixture
def tiny_csr() -> CSRGraph:
    """The 4-vertex example graph of the paper's Figure 4 (a):

    v0 - v1, v0 - v2, v1 - v2, v2 - v3.
    """
    edges = np.array([[0, 1], [0, 2], [1, 2], [2, 3]])
    return CSRGraph.from_edges(4, edges)


@pytest.fixture
def tiny_bucketlist(tiny_csr: CSRGraph) -> BucketListGraph:
    return BucketListGraph.from_csr(tiny_csr, gamma=1)


@pytest.fixture
def small_circuit() -> CSRGraph:
    """A 300-vertex circuit-like graph (fast, deterministic)."""
    return circuit_graph(300, edge_ratio=1.4, seed=11)


@pytest.fixture
def small_mesh() -> CSRGraph:
    """A 16x16 grid mesh."""
    return mesh_graph_2d(256)


@pytest.fixture
def small_host(small_circuit: CSRGraph) -> HostGraph:
    return HostGraph.from_csr(small_circuit)


def random_csr(
    rng: np.random.Generator, n: int, density: float = 2.0
) -> CSRGraph:
    """Random graph helper for property-style tests."""
    m = int(n * density)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    mask = src != dst
    lo = np.minimum(src[mask], dst[mask])
    hi = np.maximum(src[mask], dst[mask])
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return CSRGraph.from_edges(n, edges)


@pytest.fixture(scope="session")
def save_legacy_checkpoint():
    """``save(partitioner, path, version, stream_meta=None)``: write a
    format-1, -2 or -3 checkpoint exactly as the writer of that version
    did.  Formats 1 and 2 hold the whole pool arrays in a zlib-compressed
    ``.npz`` (format 1 without the stream metadata payload); format 3
    holds the filled slots in a stored one."""

    def save(partitioner, path, version, stream_meta=None):
        assert version in (1, 2, 3)
        graph, state = partitioner.graph, partitioner.state
        config_json = json.dumps(dataclasses.asdict(partitioner.config))
        arrays = dict(
            format_version=np.int64(version),
            config_json=np.frombuffer(config_json.encode(), dtype=np.uint8),
            capacity=np.int64(graph.capacity),
            pool_buckets=np.int64(graph.pool_buckets),
            gamma=np.int64(graph.gamma),
            num_vertices=np.int64(graph.num_vertices),
            num_buckets_used=np.int64(graph.num_buckets_used),
            bucket_start=graph.bucket_start,
            bucket_count=graph.bucket_count,
            vertex_status=graph.vertex_status,
            vwgt=graph.vwgt,
            partition=state.partition,
            iterations_applied=np.int64(partitioner.iterations_applied),
        )
        if version >= 2:
            meta_json = json.dumps(stream_meta or {})
            arrays["stream_meta_json"] = np.frombuffer(
                meta_json.encode(), dtype=np.uint8
            )
        if version == 3:
            positions, neighbors, weights = graph.filled_slots()
            arrays.update(
                filled_pos=positions, filled_nbr=neighbors, filled_wgt=weights
            )
            np.savez(path, **arrays)
        else:
            arrays.update(bucket_list=graph.bucket_list, slot_wgt=graph.slot_wgt)
            np.savez_compressed(path, **arrays)

    return save
