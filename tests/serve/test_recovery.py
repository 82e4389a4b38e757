"""Registry crash recovery: manifest replay re-materializes sessions."""

import math

import pytest

from repro.serve.registry import SessionRegistry, partition_sha256
from repro.serve.wal import ServeWAL

SPEC = {
    "generator": "circuit",
    "args": {"num_vertices": 120, "edge_ratio": 1.3, "seed": 7},
}
SPEC_B = {
    "generator": "community",
    "args": {"num_vertices": 90, "edges_per_vertex": 4, "seed": 3},
}


def _fingerprint(entry):
    return (
        partition_sha256(entry.session.partition),
        entry.session.queue.next_seq,
        entry.session.applied_seq,
    )


class TestRecoverEntries:
    def test_round_trip_digest_and_cycles(self, tmp_path, clean_mods):
        registry = SessionRegistry(tmp_path / "d", workers=2)
        entry = registry.create("t", "s", SPEC, k=3, seed=4)
        stream = clean_mods(SPEC, 40)
        for mod in stream[:30]:
            entry.session.submit(mod)
        entry.session.drain()
        entry.session.checkpoint()
        # More traffic after the checkpoint: recovery must replay it.
        for mod in stream[30:]:
            entry.session.submit(mod)
        entry.session.drain()
        registry.settle_cycles(entry)
        assert entry.quarantined == 0
        expected = _fingerprint(entry)
        lifetime = entry.lifetime_cycles
        # No close(): the process "dies" with handles open.

        fresh = SessionRegistry(tmp_path / "d", workers=2)
        recovered = fresh.recover_entries()
        assert [e.key for e in recovered] == [("t", "s")]
        got = fresh.get("t", "s")
        assert got.recoveries == 1
        assert _fingerprint(got) == expected
        assert math.isclose(
            got.lifetime_cycles, lifetime, rel_tol=1e-6
        )

    def test_worker_assignment_reproduced(self, tmp_path):
        registry = SessionRegistry(tmp_path / "d", workers=3)
        original = {}
        for i in range(5):
            entry = registry.create("t", f"s{i}", SPEC, k=2)
            original[entry.name] = entry.worker.index

        fresh = SessionRegistry(tmp_path / "d", workers=3)
        fresh.recover_entries()
        for name, index in original.items():
            assert fresh.get("t", name).worker.index == index

    def test_multi_tenant_attribution_restored(self, tmp_path, clean_mods):
        registry = SessionRegistry(tmp_path / "d", workers=2)
        for tenant, spec in (("acme", SPEC), ("bravo", SPEC_B)):
            entry = registry.create(tenant, "s", spec, k=3)
            for mod in clean_mods(spec, 20):
                entry.session.submit(mod)
            entry.session.drain()
            registry.settle_cycles(entry)
        charged = {
            tenant: sum(
                w.cycles_by_tenant.get(tenant, 0.0)
                for w in registry.workers
            )
            for tenant in ("acme", "bravo")
        }

        fresh = SessionRegistry(tmp_path / "d", workers=2)
        fresh.recover_entries()
        for tenant, expected in charged.items():
            got = sum(
                w.cycles_by_tenant.get(tenant, 0.0)
                for w in fresh.workers
            )
            assert math.isclose(got, expected, rel_tol=1e-6)

    def test_create_without_checkpoint_recreated(self, tmp_path):
        # Crash between the WAL append and session construction: the
        # manifest names a session whose journal dir never appeared.
        registry = SessionRegistry(tmp_path / "d", workers=1)
        params = {"graph": SPEC, "k": 3, "seed": 4}
        registry.wal.append_create("t", "ghost", params)

        fresh = SessionRegistry(tmp_path / "d", workers=1)
        recovered = fresh.recover_entries()
        assert [e.key for e in recovered] == [("t", "ghost")]
        ghost = fresh.get("t", "ghost")
        assert ghost.live and ghost.recoveries == 0
        # Identical to the session the acked create would have made.
        reference = SessionRegistry(tmp_path / "ref", workers=1)
        ref = reference.create("t", "ghost", SPEC, k=3, seed=4)
        assert _fingerprint(ghost) == _fingerprint(ref)
        reference.close()

    def test_existing_entries_skipped(self, tmp_path):
        registry = SessionRegistry(tmp_path / "d", workers=1)
        registry.create("t", "s", SPEC, k=2)
        registry.close()

        fresh = SessionRegistry(tmp_path / "d", workers=1)
        fresh.create("t", "s", SPEC, k=2)
        assert fresh.recover_entries() == []

    def test_recovery_idempotent(self, tmp_path):
        registry = SessionRegistry(tmp_path / "d", workers=2)
        registry.create("t", "s", SPEC, k=2)

        fresh = SessionRegistry(tmp_path / "d", workers=2)
        assert len(fresh.recover_entries()) == 1
        assert fresh.recover_entries() == []
        assert len(fresh) == 1

    def test_clean_shutdown_compacts_manifest(self, tmp_path, clean_mods):
        registry = SessionRegistry(tmp_path / "d", workers=1)
        entry = registry.create("t", "s", SPEC, k=2)
        for mod in clean_mods(SPEC, 8):
            entry.session.submit(mod)
        entry.session.drain()
        entry.session.checkpoint()
        entry.session.checkpoint()
        registry.close()
        # close() compacts: one create, one settle.
        state = ServeWAL(tmp_path / "d").load()
        assert [n for _, n, _ in state.creates] == ["s"]
        assert ("t", "s") in state.settled_cycles
