"""Registry crash recovery: each session's checkpoint revives it."""

import math
import shutil

import pytest

from repro.partition.config import PartitionConfig
from repro.serve.protocol import E_SESSION_EXISTS
from repro.serve.registry import (
    SessionRegistry,
    build_graph,
    partition_sha256,
)
from repro.stream.journal import StreamJournal
from repro.stream.session import StreamSession
from repro.utils.errors import ServeError

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


def _tree(root):
    """Every path under ``root``, with its bytes (None for a directory)."""
    return {
        path: path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


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

    def test_directory_without_checkpoint_not_recovered(self, tmp_path):
        # A create that crashed before its first checkpoint leaves a
        # session directory with no checkpoint (here: a torn temp
        # file).  It was never acked, so it is simply absent.
        ghost = tmp_path / "d" / "t" / "ghost"
        ghost.mkdir(parents=True)
        (ghost / "checkpoint.npz.tmp.npz").write_bytes(b"torn")

        fresh = SessionRegistry(tmp_path / "d", workers=1)
        assert fresh.recover_entries() == []
        assert len(fresh) == 0
        # The client's retried create succeeds, and makes the session
        # an uncrashed create would have made.
        created = fresh.create("t", "ghost", SPEC, k=3, seed=4)
        reference = SessionRegistry(tmp_path / "ref", workers=1)
        ref = reference.create("t", "ghost", SPEC, k=3, seed=4)
        assert _fingerprint(created) == _fingerprint(ref)
        reference.close()
        fresh.close()

    def test_directory_with_an_invalid_name_not_recovered(self, tmp_path):
        # No op can name such a tenant, so its checkpoint is not
        # revived under it.
        registry = SessionRegistry(tmp_path / "d", workers=1)
        registry.create("t", "s", SPEC, k=2)
        registry.close()
        shutil.copytree(tmp_path / "d" / "t", tmp_path / "d" / ".t")

        fresh = SessionRegistry(tmp_path / "d", workers=1)
        assert [e.key for e in fresh.recover_entries()] == [("t", "s")]

    def test_create_over_a_checkpoint_refused(self, tmp_path, clean_mods):
        # Registry A's session crashes with 5 modifiers queued; a
        # registry started without recovery must not create over it.
        data_dir = tmp_path / "d"
        crashed = SessionRegistry(data_dir, workers=1).create(
            "t", "s", SPEC, k=3, seed=4
        )
        crashed.session.submit_many(clean_mods(SPEC, 5))
        assert crashed.session.queue.depth == 5
        crashed.session.journal.close()  # the crash: no checkpoint
        tree = _tree(data_dir)

        registry = SessionRegistry(data_dir, workers=1)
        with pytest.raises(ServeError) as exc:
            registry.create("t", "s", SPEC, k=3, seed=4)
        assert exc.value.code == E_SESSION_EXISTS
        assert "--recover" in str(exc.value)
        assert len(registry) == 0
        assert _tree(data_dir) == tree

        (entry,) = SessionRegistry(data_dir, workers=1).recover_entries()
        assert entry.session.queue.depth == 5
        assert entry.session.queue.next_seq == 5
        assert partition_sha256(
            entry.session.partition
        ) == partition_sha256(crashed.session.partition)

    def test_recovery_idempotent(self, tmp_path):
        registry = SessionRegistry(tmp_path / "d", workers=2)
        registry.create("t", "s", SPEC, k=2)

        fresh = SessionRegistry(tmp_path / "d", workers=2)
        assert len(fresh.recover_entries()) == 1
        assert fresh.recover_entries() == []
        assert len(fresh) == 1

    def test_stored_creation_order_places_and_resumes(self, tmp_path):
        # Names sort against creation order, so placement must come
        # from the stored index, not the directory walk.
        registry = SessionRegistry(tmp_path / "d", workers=2)
        for name in ("zeta", "alpha", "mid"):
            registry.create("t", name, SPEC, k=2)
        placed = {
            name: registry.get("t", name).worker.index
            for name in ("zeta", "alpha", "mid")
        }

        fresh = SessionRegistry(tmp_path / "d", workers=2)
        recovered = fresh.recover_entries()
        assert [e.name for e in recovered] == ["zeta", "alpha", "mid"]
        for name, index in placed.items():
            assert fresh.get("t", name).worker.index == index
        # The creation counter resumes after the largest stored index:
        # the next create lands where the crashed process would have.
        assert fresh.create("t", "late", SPEC, k=2).worker.index == 1


    def test_checkpoint_without_registry_metadata_recovers_last(
        self, tmp_path
    ):
        # A journal the registry's hook never wrote to (here a bare
        # StreamSession's) has no creation index: it is placed after
        # every indexed session, with nothing charged up front.
        legacy = StreamSession(
            build_graph(SPEC),
            PartitionConfig(k=2, seed=1),
            journal_dir=tmp_path / "d" / "a" / "legacy",
        )
        legacy.start()
        legacy.close()
        registry = SessionRegistry(tmp_path / "d", workers=2)
        registry.create("t", "s", SPEC, k=2)

        fresh = SessionRegistry(tmp_path / "d", workers=2)
        recovered = fresh.recover_entries()
        assert [e.key for e in recovered] == [("t", "s"), ("a", "legacy")]
        assert [e.worker.index for e in recovered] == [0, 1]
        assert recovered[1].origin_trace is None


def _snapshot_after_first(obj, method_name, target, source):
    """Copy ``source`` to ``target`` right after the first call of
    ``obj.method_name`` returns: what a process killed there leaves."""
    original = getattr(obj, method_name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if not target.exists():
            shutil.copytree(source, target)
        return result

    setattr(obj, method_name, wrapper)


class TestCycleExactRecovery:
    """Recovered lifetime cycles equal the live figure at the kill."""

    def test_crash_right_after_checkpoint_write(
        self, tmp_path, clean_mods
    ):
        live = tmp_path / "live"
        registry = SessionRegistry(live, workers=1)
        entry = registry.create("t", "s", SPEC, k=3, seed=4)
        stream = clean_mods(SPEC, 40)
        entry.session.submit_many(stream[:20])
        entry.session.drain()
        registry.settle_cycles(entry)
        entry.session.submit_many(stream[20:])
        entry.session.drain()
        snapshot = tmp_path / "snap"
        _snapshot_after_first(
            entry.session.journal, "write_checkpoint", snapshot, live
        )
        entry.session.checkpoint()
        assert snapshot.exists()
        registry.settle_cycles(entry)
        expected = entry.lifetime_cycles

        fresh = SessionRegistry(snapshot, workers=1)
        fresh.recover_entries()
        got = fresh.get("t", "s")
        assert _fingerprint(got) == _fingerprint(entry)
        assert math.isclose(got.lifetime_cycles, expected, rel_tol=1e-9)
        assert math.isclose(
            fresh.workers[0].cycles_by_tenant["t"], expected, rel_tol=1e-9
        )

    def test_corrupt_newest_checkpoint_falls_back_to_previous(
        self, tmp_path, clean_mods
    ):
        registry = SessionRegistry(tmp_path / "d", workers=1)
        entry = registry.create("t", "s", SPEC, k=3, seed=4)
        stream = clean_mods(SPEC, 45)
        for lo, hi in ((0, 15), (15, 30)):
            entry.session.submit_many(stream[lo:hi])
            entry.session.drain()
            entry.session.checkpoint()
        entry.session.submit_many(stream[30:])
        entry.session.drain()
        registry.settle_cycles(entry)
        expected = entry.lifetime_cycles
        fingerprint = _fingerprint(entry)
        # No close(): the process dies, and the newest checkpoint is
        # damaged on disk, so recovery loads the other slot.
        newest = StreamJournal(tmp_path / "d" / "t" / "s").checkpoint_path
        newest.write_bytes(newest.read_bytes()[:64])

        fresh = SessionRegistry(tmp_path / "d", workers=1)
        fresh.recover_entries()
        got = fresh.get("t", "s")
        assert _fingerprint(got) == fingerprint
        assert math.isclose(got.lifetime_cycles, expected, rel_tol=1e-9)
