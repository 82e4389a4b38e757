"""FM hill-climbing refinement."""

import heapq
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, circuit_graph, mesh_graph_2d
from repro.partition import GKwayPartitioner, PartitionConfig, fm
from repro.partition.refine import connectivity_matrix
from repro.partition.fm import fm_pass, fm_refine
from repro.partition.metrics import (
    cut_size_csr,
    is_balanced,
    max_partition_weight,
)


class TestFmPass:
    def test_returns_realized_improvement(self, small_mesh):
        rng = np.random.default_rng(2)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        weights = np.bincount(
            partition, weights=small_mesh.vwgt, minlength=2
        ).astype(np.int64)
        w_pmax = max_partition_weight(
            small_mesh.total_vertex_weight(), 2, 0.03
        )
        before = cut_size_csr(small_mesh, partition)
        gain = fm_pass(small_mesh, partition, weights, 2, w_pmax)
        after = cut_size_csr(small_mesh, partition)
        assert before - after == gain
        assert gain >= 0

    def test_never_worsens(self, small_circuit):
        rng = np.random.default_rng(4)
        partition = rng.integers(0, 3, small_circuit.num_vertices)
        weights = np.bincount(
            partition, weights=small_circuit.vwgt, minlength=3
        ).astype(np.int64)
        w_pmax = max_partition_weight(
            small_circuit.total_vertex_weight(), 3, 0.03
        )
        before = cut_size_csr(small_circuit, partition)
        fm_pass(small_circuit, partition, weights, 3, w_pmax)
        assert cut_size_csr(small_circuit, partition) <= before

    def test_weights_stay_consistent(self, small_mesh):
        rng = np.random.default_rng(2)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        weights = np.bincount(
            partition, weights=small_mesh.vwgt, minlength=2
        ).astype(np.int64)
        w_pmax = max_partition_weight(
            small_mesh.total_vertex_weight(), 2, 0.03
        )
        fm_pass(small_mesh, partition, weights, 2, w_pmax)
        recomputed = np.bincount(
            partition, weights=small_mesh.vwgt, minlength=2
        ).astype(np.int64)
        assert np.array_equal(weights, recomputed)

    def test_respects_balance(self, small_mesh):
        # Alternating split: perfectly balanced by construction.
        partition = np.arange(small_mesh.num_vertices) % 2
        partition = partition.astype(np.int64)
        weights = np.bincount(
            partition, weights=small_mesh.vwgt, minlength=2
        ).astype(np.int64)
        w_pmax = max_partition_weight(
            small_mesh.total_vertex_weight(), 2, 0.03
        )
        assert weights.max() <= w_pmax
        fm_pass(small_mesh, partition, weights, 2, w_pmax)
        assert weights.max() <= w_pmax

    def test_max_moves_cap(self, small_mesh):
        rng = np.random.default_rng(2)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        reference = partition.copy()
        weights = np.bincount(
            partition, weights=small_mesh.vwgt, minlength=2
        ).astype(np.int64)
        w_pmax = max_partition_weight(
            small_mesh.total_vertex_weight(), 2, 0.03
        )
        fm_pass(small_mesh, partition, weights, 2, w_pmax, max_moves=3)
        assert int((partition != reference).sum()) <= 3

    def test_escapes_plateau(self):
        """FM's hill climbing crosses a zero-gain plateau the greedy
        independent-set pass cannot."""
        # Path of 8: cut between 3|4 costs 1 but a random split costs more.
        edges = np.array([[i, i + 1] for i in range(7)])
        csr = CSRGraph.from_edges(8, edges)
        partition = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        weights = np.array([4, 4], dtype=np.int64)
        # Loose balance (W_pmax = 6) so the plateau walk has headroom.
        w_pmax = 6
        total_gain = 0
        for _ in range(4):
            gain = fm_pass(csr, partition, weights, 2, w_pmax)
            total_gain += gain
            if gain == 0:
                break
        assert cut_size_csr(csr, partition) <= 2


class TestFmRefine:
    def test_improves_or_equal(self, small_mesh):
        rng = np.random.default_rng(6)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        before = cut_size_csr(small_mesh, partition)
        refined = fm_refine(small_mesh, partition, 2, 0.03)
        assert cut_size_csr(small_mesh, refined) <= before

    def test_input_not_mutated(self, small_mesh):
        rng = np.random.default_rng(6)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        copy = partition.copy()
        fm_refine(small_mesh, partition, 2, 0.03)
        assert np.array_equal(partition, copy)

    def test_result_balanced_if_input_balanced(self, small_mesh):
        rng = np.random.default_rng(6)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        refined = fm_refine(small_mesh, partition, 2, 0.03)
        weights = np.bincount(
            refined, weights=small_mesh.vwgt, minlength=2
        ).astype(np.int64)
        assert is_balanced(
            weights, small_mesh.total_vertex_weight(), 2, 0.03
        )

    def test_ctx_charged(self, small_mesh):
        from repro.gpusim import GpuContext

        ctx = GpuContext()
        rng = np.random.default_rng(6)
        partition = rng.integers(0, 2, small_mesh.num_vertices)
        fm_refine(small_mesh, partition, 2, 0.03, ctx=ctx)
        assert ctx.ledger.total.kernel_launches >= 1


#: Heap pops of exhaustive FM passes (no early stop) over the full
#: partition of ``circuit_graph(3000, 1.4, seed=0)`` at k=8, seed 0.
EXHAUSTIVE_FGP_POPS = 14_857


def test_full_partition_stops_passes_early(monkeypatch):
    """The early stop skips at least half the exhaustive passes' heap
    pops on the eco-burst graph's full partition.  A count, not a time:
    a return to exhaustive passes fails here instead of hiding inside
    the perf gate's noise floor."""
    pops = 0

    def counting_heappop(heap):
        nonlocal pops
        pops += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(
        fm,
        "heapq",
        SimpleNamespace(
            heappop=counting_heappop,
            heappush=heapq.heappush,
            heapify=heapq.heapify,
        ),
    )
    GKwayPartitioner(PartitionConfig(k=8, seed=0)).partition(
        circuit_graph(3000, 1.4, seed=0)
    )
    assert 0 < pops <= EXHAUSTIVE_FGP_POPS // 2


# -- exactness against the scalar reference ---------------------------------
#
# The pass below is the scalar formulation ``fm_pass`` replaced: one
# best-move loop over NumPy scalars per candidate, one heap push per
# boundary vertex, and no early stop: it runs until the heap or the
# ``max_moves`` budget is spent.  The list-based pass, which stops once
# no later prefix can win, must reproduce it exactly.


def _reference_best_move(conn_row, current, vertex_weight, part_weights,
                         w_pmax):
    k = conn_row.shape[0]
    best_gain = None
    best_target = None
    for p in range(k):
        if p == current:
            continue
        if part_weights[p] + vertex_weight > w_pmax:
            continue
        gain = int(conn_row[p] - conn_row[current])
        if (
            best_gain is None
            or gain > best_gain
            or (gain == best_gain and part_weights[p]
                < part_weights[best_target])
        ):
            best_gain = gain
            best_target = p
    if best_gain is None:
        return None
    return best_gain, best_target


def _reference_fm_pass(csr, partition, part_weights, k, w_pmax,
                       max_moves=None):
    n = csr.num_vertices
    conn = connectivity_matrix(csr, partition, k).astype(np.int64)
    vwgt = csr.vwgt
    if max_moves is None:
        max_moves = n

    heap = []
    for v in range(n):
        current = int(partition[v])
        internal = conn[v, current]
        external = int(conn[v].sum()) - internal
        if external == 0:
            continue
        move = _reference_best_move(conn[v], current, int(vwgt[v]),
                                    part_weights, w_pmax)
        if move is not None:
            gain, target = move
            heapq.heappush(heap, (-gain, v, target, gain))

    locked = np.zeros(n, dtype=bool)
    applied = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0

    while heap and len(applied) < max_moves:
        _neg, v, target, stamped_gain = heapq.heappop(heap)
        if locked[v]:
            continue
        current = int(partition[v])
        move = _reference_best_move(conn[v], current, int(vwgt[v]),
                                    part_weights, w_pmax)
        if move is None:
            continue
        gain, live_target = move
        if gain != stamped_gain or live_target != target:
            heapq.heappush(heap, (-gain, v, live_target, gain))
            continue
        locked[v] = True
        partition[v] = target
        part_weights[current] -= int(vwgt[v])
        part_weights[target] += int(vwgt[v])
        applied.append((v, current))
        cumulative += gain
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(applied)
        start, end = csr.xadj[v], csr.xadj[v + 1]
        for w, wgt in zip(csr.adjncy[start:end], csr.adjwgt[start:end]):
            w = int(w)
            conn[w, current] -= wgt
            conn[w, target] += wgt
            if not locked[w]:
                refreshed = _reference_best_move(
                    conn[w], int(partition[w]), int(vwgt[w]),
                    part_weights, w_pmax,
                )
                if refreshed is not None:
                    heapq.heappush(
                        heap, (-refreshed[0], w, refreshed[1], refreshed[0])
                    )

    for v, source in reversed(applied[best_prefix:]):
        target = int(partition[v])
        partition[v] = source
        part_weights[target] -= int(vwgt[v])
        part_weights[source] += int(vwgt[v])
    return best_cumulative


@example(
    n=3, density=2.0, k=8, skew=None, slack=0, max_moves=None, seed=0,
    negative=False,
)
@example(
    n=12, density=1.5, k=2, skew=None, slack=4, max_moves=None, seed=1,
    negative=True,
)
@given(
    n=st.integers(200, 800),
    density=st.floats(0.5, 4.0),
    k=st.integers(2, 8),
    skew=st.sampled_from([None, 0.5, 0.9]),
    slack=st.integers(-6, 12),
    max_moves=st.one_of(st.none(), st.integers(1, 800)),
    seed=st.integers(0, 2**31 - 1),
    negative=st.just(False),
)
@settings(max_examples=200, deadline=None)
def test_fm_pass_matches_scalar_reference(
    n, density, k, skew, slack, max_moves, seed, negative
):
    """Same moves, rollback and gain as the scalar pass: weighted edges
    (zero weights included) and vertices (as on coarse levels), random
    or skewed partitions with parts above W_pmax, tight bounds that
    leave vertices without a feasible target, and a ``max_moves`` cap
    that binds or not.  The explicit examples add a graph with fewer
    vertices than parts and one with a negative edge weight, on which
    the early stop, were it taken, would end the pass before its best
    prefix."""
    rng = np.random.default_rng(seed)
    m = int(n * density)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    edges = np.unique(
        np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1)[keep],
        axis=0,
    )
    edge_weights = rng.integers(0, 7, size=len(edges))
    if negative:
        edge_weights[rng.integers(len(edges))] = -20
    csr = CSRGraph.from_edges(
        n,
        edges,
        edge_weights=edge_weights,
        vertex_weights=rng.integers(1, 5, size=n),
    )
    if skew is None:
        partition = rng.integers(0, k, size=n)
    else:
        probs = np.full(k, (1.0 - skew) / (k - 1))
        probs[0] = skew
        partition = rng.choice(k, size=n, p=probs)
    partition = partition.astype(np.int64)
    weights = np.bincount(partition, weights=csr.vwgt, minlength=k).astype(
        np.int64
    )
    w_pmax = max(
        1, max_partition_weight(csr.total_vertex_weight(), k, 0.03) + slack
    )

    ref_partition, ref_weights = partition.copy(), weights.copy()
    ref_gain = _reference_fm_pass(
        csr, ref_partition, ref_weights, k, w_pmax, max_moves=max_moves
    )
    gain = fm_pass(csr, partition, weights, k, w_pmax, max_moves=max_moves)
    assert gain == ref_gain
    assert np.array_equal(partition, ref_partition)
    assert np.array_equal(weights, ref_weights)
