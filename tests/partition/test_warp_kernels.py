"""Warp-faithful FGP kernels vs their vectorized twins (differential)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, circuit_graph
from repro.gpusim import GpuContext
from repro.obs import Tracer, span
from repro.partition.refine import connectivity_matrix
from repro.partition.unionfind import select_neighbors
from repro.partition.warp_kernels import (
    connectivity_matrix_warp,
    select_neighbors_warp,
)
from repro.utils.seeding import make_rng


class TestSelectNeighborsWarp:
    def test_matches_vectorized_on_weighted_graph(self):
        rng = make_rng(1)
        base = circuit_graph(150, 1.8, seed=1)
        edges, _ = base.edge_array()
        csr = CSRGraph.from_edges(
            150, edges, rng.integers(1, 9, edges.shape[0])
        )
        priorities = rng.integers(
            0, 1 << 20, size=csr.adjncy.size, dtype=np.int64
        )
        eligible = np.ones(150, dtype=bool)
        vec = select_neighbors(csr, priorities, eligible)
        warp = select_neighbors_warp(
            GpuContext(), csr, priorities, eligible
        )
        assert np.array_equal(vec, warp)

    def test_respects_eligibility(self):
        csr = circuit_graph(60, 1.5, seed=2)
        rng = make_rng(2)
        priorities = rng.integers(
            0, 1 << 20, size=csr.adjncy.size, dtype=np.int64
        )
        eligible = rng.random(60) < 0.5
        vec = select_neighbors(csr, priorities, eligible)
        warp = select_neighbors_warp(
            GpuContext(), csr, priorities, eligible
        )
        assert np.array_equal(vec, warp)
        assert np.all(warp[~eligible] == -1)

    def test_high_degree_vertex_spans_chunks(self):
        # Star hub with 70 neighbors -> 3 warp chunks.
        edges = np.array([[0, i] for i in range(1, 71)])
        csr = CSRGraph.from_edges(
            71, edges, edge_weights=np.arange(1, 71)
        )
        priorities = np.zeros(csr.adjncy.size, dtype=np.int64)
        eligible = np.ones(71, dtype=bool)
        warp = select_neighbors_warp(
            GpuContext(), csr, priorities, eligible
        )
        vec = select_neighbors(csr, priorities, eligible)
        assert np.array_equal(vec, warp)
        # The hub picks the heaviest edge (weight 70 -> neighbor 70).
        assert warp[0] == 70

    @given(st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_differential_property(self, seed):
        csr = circuit_graph(64, 1.7, seed=seed)
        rng = make_rng(seed, "prio")
        priorities = rng.integers(
            0, 1 << 20, size=csr.adjncy.size, dtype=np.int64
        )
        eligible = rng.random(64) < 0.8
        vec = select_neighbors(csr, priorities, eligible)
        warp = select_neighbors_warp(
            GpuContext(), csr, priorities, eligible
        )
        assert np.array_equal(vec, warp)


class TestConnectivityMatrixWarp:
    def test_matches_vectorized(self):
        csr = circuit_graph(120, 1.8, seed=3)
        rng = make_rng(3)
        partition = rng.integers(0, 4, 120)
        vec = connectivity_matrix(csr, partition, 4)
        warp = connectivity_matrix_warp(GpuContext(), csr, partition, 4)
        assert np.array_equal(vec, warp)

    def test_weighted_edges(self):
        rng = make_rng(4)
        base = circuit_graph(80, 1.6, seed=4)
        edges, _ = base.edge_array()
        csr = CSRGraph.from_edges(
            80, edges, rng.integers(1, 9, edges.shape[0])
        )
        partition = rng.integers(0, 3, 80)
        vec = connectivity_matrix(csr, partition, 3)
        warp = connectivity_matrix_warp(GpuContext(), csr, partition, 3)
        assert np.array_equal(vec, warp)

    def test_charges_context(self):
        csr = circuit_graph(60, 1.5, seed=5)
        ctx = GpuContext()
        tracer = Tracer(ledger=ctx.ledger)
        with tracer.activate(), span("connectivity"):
            connectivity_matrix_warp(
                ctx, csr, np.zeros(60, dtype=np.int64), 2
            )
        names = {e.name for e in tracer.events if e.kind == "kernel"}
        assert "refine-gains" in names
        assert ctx.ledger.total.warp_instructions > 0

    @given(st.integers(0, 5_000), st.sampled_from([2, 3, 5]))
    @settings(max_examples=15, deadline=None)
    def test_differential_property(self, seed, k):
        csr = circuit_graph(50, 1.8, seed=seed)
        rng = make_rng(seed, "part")
        partition = rng.integers(0, k, 50)
        vec = connectivity_matrix(csr, partition, k)
        warp = connectivity_matrix_warp(GpuContext(), csr, partition, k)
        assert np.array_equal(vec, warp)
