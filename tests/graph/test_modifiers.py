"""HostGraph reference semantics and modifier records."""

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    EdgeDelete,
    EdgeInsert,
    HostGraph,
    ModifierBatch,
    VertexDelete,
    VertexInsert,
)
from repro.graph.modifiers import coalesce_modifiers_indexed
from repro.utils import ModifierError


@pytest.fixture
def host(tiny_csr):
    return HostGraph.from_csr(tiny_csr)


class TestConstruction:
    def test_from_csr_preserves_edges(self, host, tiny_csr):
        assert host.num_edges() == tiny_csr.num_edges
        assert host.has_edge(0, 1)
        assert host.has_edge(2, 3)

    def test_all_active_initially(self, host):
        assert host.num_active_vertices() == 4

    def test_copy_is_deep(self, host):
        clone = host.copy()
        clone.apply(EdgeDelete(0, 1))
        assert host.has_edge(0, 1)
        assert not clone.has_edge(0, 1)


class TestEdgeModifiers:
    def test_insert_both_directions(self, host):
        host.apply(EdgeInsert(0, 3, weight=4))
        assert host.adj[0][3] == 4
        assert host.adj[3][0] == 4

    def test_insert_duplicate_rejected(self, host):
        with pytest.raises(ModifierError):
            host.apply(EdgeInsert(0, 1))

    def test_insert_self_loop_rejected(self, host):
        with pytest.raises(ModifierError):
            host.apply(EdgeInsert(2, 2))

    def test_insert_to_inactive_rejected(self, host):
        host.apply(VertexDelete(3))
        with pytest.raises(ModifierError):
            host.apply(EdgeInsert(0, 3))

    def test_delete_removes_both_directions(self, host):
        host.apply(EdgeDelete(0, 1))
        assert 1 not in host.adj[0]
        assert 0 not in host.adj[1]

    def test_delete_missing_rejected(self, host):
        with pytest.raises(ModifierError):
            host.apply(EdgeDelete(0, 3))


class TestVertexModifiers:
    def test_delete_clears_incident_edges(self, host):
        host.apply(VertexDelete(2))
        assert not host.is_active(2)
        assert 2 not in host.adj[0]
        assert 2 not in host.adj[1]
        assert 2 not in host.adj[3]

    def test_delete_inactive_rejected(self, host):
        host.apply(VertexDelete(2))
        with pytest.raises(ModifierError):
            host.apply(VertexDelete(2))

    def test_reinsert_deleted_id(self, host):
        host.apply(VertexDelete(2))
        host.apply(VertexInsert(2, weight=5))
        assert host.is_active(2)
        assert host.vwgt[2] == 5
        assert host.degree(2) == 0  # comes back isolated

    def test_insert_new_id_must_be_next(self, host):
        with pytest.raises(ModifierError):
            host.apply(VertexInsert(10))
        host.apply(VertexInsert(4))
        assert host.num_vertex_slots == 5

    def test_insert_active_rejected(self, host):
        with pytest.raises(ModifierError):
            host.apply(VertexInsert(0))


class TestExportAndStats:
    def test_to_csr_compacts_ids(self, host):
        host.apply(VertexDelete(1))
        csr, id_map = host.to_csr()
        assert csr.num_vertices == 3
        assert id_map.tolist() == [0, 2, 3]
        csr.validate()

    def test_to_csr_empty_graph(self):
        host = HostGraph(2)
        host.apply(VertexDelete(0))
        host.apply(VertexDelete(1))
        csr, id_map = host.to_csr()
        assert csr.num_vertices == 0
        assert id_map.size == 0

    def test_rebuild_work_scales(self, host):
        w0 = host.rebuild_work()
        host.apply(EdgeInsert(0, 3))
        assert host.rebuild_work() == w0 + 2

    def test_total_active_weight(self, host):
        assert host.total_active_weight() == 4
        host.apply(VertexDelete(0))
        assert host.total_active_weight() == 3

    def test_roundtrip_through_csr(self, small_host):
        csr, id_map = small_host.to_csr()
        again = HostGraph.from_csr(csr)
        assert again.num_edges() == small_host.num_edges()


class TestModifierBatch:
    def test_counts(self):
        batch = ModifierBatch(
            [
                EdgeInsert(0, 1),
                EdgeInsert(1, 2),
                EdgeDelete(0, 2),
                VertexInsert(9),
                VertexDelete(3),
            ]
        )
        counts = batch.counts()
        assert counts == {
            "edge_insert": 2,
            "edge_delete": 1,
            "vertex_insert": 1,
            "vertex_delete": 1,
        }

    def test_len_and_iter(self):
        batch = ModifierBatch([EdgeInsert(0, 1)])
        batch.append(EdgeDelete(0, 1))
        assert len(batch) == 2
        assert [type(m).__name__ for m in batch] == [
            "EdgeInsert",
            "EdgeDelete",
        ]

    def test_apply_batch(self, host):
        host.apply_batch(
            ModifierBatch([EdgeDelete(0, 1), EdgeInsert(0, 3)])
        )
        assert not host.has_edge(0, 1)
        assert host.has_edge(0, 3)

    def test_unknown_modifier_rejected(self, host):
        with pytest.raises(ModifierError):
            host.apply("bogus")

    def test_modifiers_are_frozen(self):
        modifier = EdgeInsert(0, 1)
        with pytest.raises(Exception):
            modifier.u = 5


class TestCoalesce:
    """The stream coalescer's rules (cancel / dedup / subsume)."""

    def _coalesce(self, mods):
        out, _indices, stats = coalesce_modifiers_indexed(mods)
        return out, stats

    def test_insert_delete_pair_cancels(self):
        out, stats = self._coalesce([EdgeInsert(0, 1), EdgeDelete(0, 1)])
        assert out == []
        assert stats["cancelled"] == 2

    def test_delete_then_insert_survives(self):
        # Cannot cancel: the original edge's weight is unknown without
        # the base graph, so the pair is not a no-op.
        mods = [EdgeDelete(0, 1), EdgeInsert(0, 1)]
        out, stats = self._coalesce(mods)
        assert out == mods
        assert stats["cancelled"] == 0

    def test_duplicate_edge_insert_deduped(self):
        out, stats = self._coalesce([EdgeInsert(0, 1), EdgeInsert(0, 1)])
        assert out == [EdgeInsert(0, 1)]
        assert stats["deduplicated"] == 1

    def test_different_weight_not_deduped(self):
        mods = [EdgeInsert(0, 1, weight=1), EdgeInsert(0, 1, weight=2)]
        out, _stats = self._coalesce(mods)
        assert out == mods

    def test_endpoint_order_is_canonical(self):
        out, _stats = self._coalesce([EdgeInsert(0, 1), EdgeDelete(1, 0)])
        assert out == []

    def test_duplicate_vertex_insert_deduped(self):
        out, stats = self._coalesce([VertexInsert(7), VertexInsert(7)])
        assert out == [VertexInsert(7)]
        assert stats["deduplicated"] == 1

    def test_vertex_delete_subsumes_incident_edge_ops(self):
        mods = [
            EdgeInsert(0, 1),
            EdgeDelete(0, 2),
            EdgeInsert(3, 4),
            VertexDelete(0),
        ]
        out, stats = self._coalesce(mods)
        assert out == [EdgeInsert(3, 4), VertexDelete(0)]
        assert stats["subsumed"] == 2

    def test_vertex_pair_never_cancelled(self):
        # A VertexInsert of a brand-new ID extends the ID space; later
        # modifiers may rely on it, so the pair must survive.
        mods = [VertexInsert(9), VertexDelete(9)]
        out, _stats = self._coalesce(mods)
        assert out == mods

    def test_edge_op_after_subsuming_delete_survives(self):
        mods = [
            EdgeInsert(0, 1),
            VertexDelete(0),
            VertexInsert(0),
            EdgeInsert(0, 1),
        ]
        out, _stats = self._coalesce(mods)
        assert out == [VertexDelete(0), VertexInsert(0), EdgeInsert(0, 1)]

    def test_order_preserved(self):
        mods = [
            EdgeInsert(0, 3),
            VertexInsert(4),
            EdgeInsert(4, 2),
            EdgeDelete(0, 1),
        ]
        out, _stats = self._coalesce(mods)
        assert out == mods

    def test_stats_totals_consistent(self):
        mods = [
            EdgeInsert(0, 1),
            EdgeInsert(0, 1),
            EdgeDelete(0, 1),
            EdgeInsert(2, 3),
            VertexDelete(2),
        ]
        out, stats = self._coalesce(mods)
        assert stats["input"] == len(mods)
        assert stats["output"] == len(out)
        assert (
            stats["input"] - stats["output"]
            == stats["cancelled"]
            + stats["deduplicated"]
            + stats["subsumed"]
        )


class TestCoalescePreservesGraph:
    """Property: raw and coalesced sequences yield identical graphs."""

    def _random_valid_sequence(self, host, rng, length=60):
        """A valid modifier sequence with injected redundancy (dups and
        insert/delete flip-flops) against the evolving ``host``."""
        mods = []
        scratch = host.copy()
        for _ in range(length):
            active = scratch.active_vertices()
            roll = rng.random()
            mod = None
            if roll < 0.35 and len(active) >= 2:
                for _retry in range(16):
                    u = int(active[rng.integers(0, len(active))])
                    v = int(active[rng.integers(0, len(active))])
                    if u != v and not scratch.has_edge(u, v):
                        mod = EdgeInsert(u, v)
                        break
            elif roll < 0.6:
                for _retry in range(16):
                    u = int(active[rng.integers(0, len(active))])
                    nbrs = list(scratch.neighbors(u))
                    if nbrs:
                        v = int(nbrs[rng.integers(0, len(nbrs))])
                        mod = EdgeDelete(u, v)
                        break
            elif roll < 0.75:
                deleted = [
                    u for u, flag in scratch.active.items() if not flag
                ]
                u = (
                    int(deleted[rng.integers(0, len(deleted))])
                    if deleted
                    else scratch.num_vertex_slots
                )
                mod = VertexInsert(u)
            elif len(active) > 3:
                u = int(active[rng.integers(0, len(active))])
                mod = VertexDelete(u)
            if mod is None:
                continue
            scratch.apply(mod)
            mods.append(mod)
            # Inject redundancy the coalescer should remove.
            if isinstance(mod, EdgeInsert) and rng.random() < 0.4:
                scratch.apply(EdgeDelete(mod.u, mod.v))
                scratch.apply(mod)
                mods.extend([EdgeDelete(mod.u, mod.v), mod])
        return mods

    @pytest.mark.parametrize("seed", range(8))
    def test_adjacency_identical(self, seed):
        from repro.utils.seeding import make_rng

        base = HostGraph.from_csr(
            CSRGraph.from_edges(
                12,
                np.array(
                    [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6],
                     [6, 7], [7, 8], [8, 9], [9, 10], [10, 11], [0, 6]]
                ),
            )
        )
        rng = make_rng(seed, "coalesce-property")
        mods = self._random_valid_sequence(base, rng)

        raw = base.copy()
        raw.apply_batch(mods)
        collapsed = base.copy()
        batch = ModifierBatch(coalesce_modifiers_indexed(mods)[0])
        batch.validate()
        collapsed.apply_batch(batch)

        assert raw.adj == collapsed.adj
        assert raw.active == collapsed.active


class TestValidateBatch:
    def test_self_loop_rejected(self):
        with pytest.raises(ModifierError, match="self-loop"):
            ModifierBatch([EdgeInsert(3, 3)]).validate()

    def test_edge_insert_after_vertex_delete_rejected(self):
        batch = ModifierBatch([VertexDelete(0), EdgeInsert(0, 1)])
        with pytest.raises(ModifierError, match="deleted earlier"):
            batch.validate()

    def test_edge_delete_after_vertex_delete_rejected(self):
        batch = ModifierBatch([VertexDelete(1), EdgeDelete(0, 1)])
        with pytest.raises(ModifierError, match="deleted earlier"):
            batch.validate()

    def test_reinsert_reenables_endpoint(self):
        ModifierBatch(
            [VertexDelete(0), VertexInsert(0), EdgeInsert(0, 1)]
        ).validate()

    def test_duplicate_pending_insert_rejected(self):
        batch = ModifierBatch([EdgeInsert(0, 1), EdgeInsert(1, 0)])
        with pytest.raises(ModifierError, match="duplicate pending"):
            batch.validate()

    def test_insert_then_delete_then_insert_ok(self):
        ModifierBatch(
            [EdgeInsert(0, 1), EdgeDelete(0, 1), EdgeInsert(0, 1)]
        ).validate()

    def test_double_vertex_delete_rejected(self):
        batch = ModifierBatch([VertexDelete(2), VertexDelete(2)])
        with pytest.raises(ModifierError, match="deleted twice"):
            batch.validate()

    def test_vertex_delete_clears_pending_edge_state(self):
        # The delete subsumes the pending insert, so a later delete of
        # the same edge is not a "duplicate pending delete".
        ModifierBatch(
            [
                EdgeInsert(0, 1),
                VertexDelete(0),
                VertexInsert(0),
                EdgeDelete(0, 1),
            ]
        ).validate()
