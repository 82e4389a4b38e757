"""Session registry: lifecycle, idle eviction, cycle attribution."""

import math

import pytest

from repro.graph.modifiers import EdgeInsert
from repro.serve.protocol import (
    E_BAD_REQUEST,
    E_SESSION_EXISTS,
    E_UNKNOWN_SESSION,
)
from repro.serve.registry import (
    SessionRegistry,
    build_graph,
    partition_sha256,
)
from repro.utils.errors import ServeError, StreamError

SPEC = {
    "generator": "circuit",
    "args": {"num_vertices": 120, "edge_ratio": 1.3, "seed": 7},
}


def _registry(tmp_path, **kwargs):
    return SessionRegistry(tmp_path / "data", **kwargs)


def _mods(n, nv=120, start=0):
    return [
        EdgeInsert(u=(start + i) % nv, v=(start + i * 3 + 1) % nv)
        for i in range(n)
    ]


class TestBuildGraph:
    def test_known_generator(self):
        csr = build_graph(SPEC)
        assert csr.num_vertices == 120

    def test_unknown_generator_typed(self):
        with pytest.raises(ServeError) as exc:
            build_graph({"generator": "nope", "args": {}})
        assert exc.value.code == "bad-request"

    def test_bad_args_typed(self):
        with pytest.raises(ServeError, match="rejected args"):
            build_graph({"generator": "circuit", "args": {"n": 5}})

    def test_non_dict_spec_typed(self):
        with pytest.raises(ServeError, match="must be an object"):
            build_graph([1, 2])


class TestLifecycle:
    @pytest.mark.parametrize(
        "bad", ["..", ".", "a/b", "a\x00b", ".hidden", "x" * 65, ""]
    )
    @pytest.mark.parametrize("field", ["tenant", "session"])
    def test_unsafe_names_rejected_before_disk(self, tmp_path, bad, field):
        # Every name becomes one path component under the data dir:
        # anything else could write outside it (tenant "..").
        root = tmp_path / "root"
        registry = SessionRegistry(root / "data")
        before = sorted(tmp_path.rglob("*"))
        names = {"tenant": "t", "session": "s", field: bad}
        with pytest.raises(ServeError) as exc:
            registry.create(names["tenant"], names["session"], SPEC, k=2)
        assert exc.value.code == E_BAD_REQUEST
        assert sorted(tmp_path.rglob("*")) == before
        assert len(registry) == 0

    @pytest.mark.parametrize("name", ["a", "s0", "A.b-c_9", "x" * 64])
    def test_safe_names_accepted(self, tmp_path, name):
        registry = _registry(tmp_path)
        entry = registry.create(name, name, SPEC, k=2)
        assert entry.journal_dir == tmp_path / "data" / name / name
        registry.close()

    def test_create_duplicate_rejected(self, tmp_path):
        registry = _registry(tmp_path)
        registry.create("t", "s", SPEC, k=2)
        with pytest.raises(ServeError) as exc:
            registry.create("t", "s", SPEC, k=2)
        assert exc.value.code == E_SESSION_EXISTS
        registry.close()

    def test_same_name_different_tenants_isolated(self, tmp_path):
        registry = _registry(tmp_path)
        a = registry.create("t1", "s", SPEC, k=2)
        b = registry.create("t2", "s", SPEC, k=2)
        assert a.session is not b.session
        assert a.journal_dir != b.journal_dir
        registry.close()

    def test_get_unknown_typed(self, tmp_path):
        registry = _registry(tmp_path)
        with pytest.raises(ServeError) as exc:
            registry.get("t", "missing")
        assert exc.value.code == E_UNKNOWN_SESSION

    def test_evict_then_attach_bit_identical(self, tmp_path):
        registry = _registry(tmp_path)
        entry = registry.create("t", "s", SPEC, k=2, seed=4)
        for mod in _mods(30):
            entry.session.submit(mod)
        entry.session.drain()
        before = partition_sha256(entry.session.partition)

        registry.evict("t", "s")
        assert not entry.live
        # The suspended object refuses further streaming calls.
        revived = registry.attach("t", "s")
        assert revived.live and revived.evictions == 1
        assert partition_sha256(revived.session.partition) == before

        # An evicted session with a queued (journaled) suffix recovers
        # that suffix too: same final state as never evicting.
        for mod in _mods(10, start=50):
            revived.session.submit(mod)
        registry.evict("t", "s")
        again = registry.attach("t", "s")
        again.session.drain()
        final_evicted = partition_sha256(again.session.partition)
        registry.close()

        other = _registry(tmp_path / "ref")
        ref = other.create("t", "s", SPEC, k=2, seed=4)
        for mod in _mods(30):
            ref.session.submit(mod)
        ref.session.drain()
        for mod in _mods(10, start=50):
            ref.session.submit(mod)
        ref.session.drain()
        assert partition_sha256(ref.session.partition) == final_evicted
        other.close()

    def test_evict_then_attach_keeps_checkpoint_count(self, tmp_path):
        # A checkpoint's saved telemetry counts that checkpoint, so the
        # exported counter does not step back on re-attach.
        registry = _registry(tmp_path)
        entry = registry.create("t", "s", SPEC, k=2)
        entry.session.checkpoint()
        entry.session.checkpoint()
        suspended = entry.session
        registry.evict("t", "s")
        assert suspended.telemetry.checkpoints_written == 4
        revived = registry.attach("t", "s")
        assert revived.session.telemetry.checkpoints_written == 4
        registry.close()

    def test_suspended_session_object_rejects_use(self, tmp_path):
        registry = _registry(tmp_path)
        entry = registry.create("t", "s", SPEC, k=2)
        stale = entry.session
        registry.evict("t", "s")
        with pytest.raises(StreamError, match="suspended"):
            stale.submit(EdgeInsert(u=0, v=1))
        registry.close()


class TestIdleEviction:
    def test_sweep_evicts_only_idle_sessions(self, tmp_path):
        registry = _registry(tmp_path, idle_evict_after_ops=3)
        busy = registry.create("t", "busy", SPEC, k=2)
        idle = registry.create("t", "idle", SPEC, k=2)
        for _ in range(5):
            registry.touch(busy)
        evicted = registry.sweep_idle()
        assert [e.name for e in evicted] == ["idle"]
        assert busy.live and not idle.live
        registry.close()

    def test_disabled_by_default(self, tmp_path):
        registry = _registry(tmp_path)
        entry = registry.create("t", "s", SPEC, k=2)
        for _ in range(100):
            registry.touch(entry)
        assert registry.sweep_idle() == []
        registry.close()


class TestAttribution:
    def test_cycles_split_across_tenants_sum_to_worker_total(
        self, tmp_path
    ):
        registry = _registry(tmp_path, workers=1)
        entries = {
            name: registry.create(name, "s", SPEC, k=2, seed=i)
            for i, name in enumerate(("a", "b"))
        }
        for entry in entries.values():
            registry.settle_cycles(entry)
        for name, entry in entries.items():
            for mod in _mods(20):
                entry.session.submit(mod)
            entry.session.drain()
            registry.settle_cycles(entry)
        worker = registry.workers[0]
        assert set(worker.cycles_by_tenant) == {"a", "b"}
        assert all(c > 0 for c in worker.cycles_by_tenant.values())
        assert math.isclose(
            sum(worker.cycles_by_tenant.values()),
            worker.total_cycles,
            rel_tol=1e-9,
        )
        registry.close()

    def test_settle_is_idempotent(self, tmp_path):
        registry = _registry(tmp_path)
        entry = registry.create("t", "s", SPEC, k=2)
        first = registry.settle_cycles(entry)
        assert first > 0  # the initial full partition costs cycles
        assert registry.settle_cycles(entry) == 0.0
        registry.close()

    def test_round_robin_worker_assignment(self, tmp_path):
        registry = _registry(tmp_path, workers=2)
        workers = [
            registry.create("t", f"s{i}", SPEC, k=2).worker.index
            for i in range(4)
        ]
        assert workers == [0, 1, 0, 1]
        registry.close()
