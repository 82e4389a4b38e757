"""Worker supervision: failover, degradation, watermark tightening."""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.registry import SessionRegistry, partition_sha256
from repro.serve.shedding import LoadShedder, ShedPolicy
from repro.serve.supervision import WorkerSupervisor
from repro.utils.errors import ServeError

SPEC = {
    "generator": "circuit",
    "args": {"num_vertices": 120, "edge_ratio": 1.3, "seed": 7},
}


@pytest.fixture
def pool(tmp_path):
    registry = SessionRegistry(tmp_path / "data", workers=3)
    metrics = MetricsRegistry()
    shedder = LoadShedder(ShedPolicy(high_watermark=90), metrics)
    supervisor = WorkerSupervisor(registry, metrics, shedder=shedder)
    yield registry, metrics, shedder, supervisor
    registry.close()


class TestHealth:
    def test_healthy_pool_status(self, pool):
        _, metrics, _, supervisor = pool
        assert not supervisor.degraded
        assert supervisor.status() == {
            "degraded": False,
            "workers_alive": 3,
            "workers_dead": 0,
            "dead": [],
        }
        snapshot = metrics.as_dict()
        assert snapshot["serve_workers_alive"] == 3
        assert snapshot["serve_workers_dead"] == 0

    def test_fail_worker_out_of_range_typed(self, pool):
        _, _, _, supervisor = pool
        with pytest.raises(ServeError) as exc:
            supervisor.fail_worker(7, "nope")
        assert exc.value.code == "worker-failed"

    def test_sweep_noop_while_healthy(self, pool):
        _, _, _, supervisor = pool
        assert supervisor.sweep() == []


class TestFailover:
    def test_sessions_restored_onto_survivor(self, pool, clean_mods):
        registry, metrics, _, supervisor = pool
        entry = registry.create("t", "s", SPEC, k=3, seed=4)
        for mod in clean_mods(SPEC, 25):
            entry.session.submit(mod)
        entry.session.drain()
        registry.settle_cycles(entry)
        assert entry.quarantined == 0
        victim = entry.worker
        before = partition_sha256(entry.session.partition)
        lifetime = entry.lifetime_cycles

        restored = supervisor.fail_worker(victim.index, "injected")

        assert restored == [entry]
        assert supervisor.degraded
        assert entry.worker is not victim and entry.worker.alive
        assert entry.recoveries == 1
        # Bit-identical state on the survivor.
        assert partition_sha256(entry.session.partition) == before
        snapshot = metrics.as_dict()
        assert snapshot["serve_worker_failures_total"] == 1
        assert snapshot["serve_recovery_sessions_total"] == 1
        replay = snapshot["serve_recovery_replay_cycles_total"]
        # Unlike a process restart (where the dead pool's counters
        # vanish), in-process failover replays the journal on a live
        # pool: the replay is extra real work, charged on top of the
        # session's prior lifetime and all of it on the survivor.
        assert replay > 0
        assert math.isclose(
            entry.lifetime_cycles, lifetime + replay, rel_tol=1e-6
        )

    def test_fail_worker_idempotent(self, pool):
        registry, metrics, _, supervisor = pool
        entry = registry.create("t", "s", SPEC, k=2)
        index = entry.worker.index
        first = supervisor.fail_worker(index, "one")
        assert first == [entry]
        # A second declaration (and any later sweep) must not re-drain.
        assert supervisor.fail_worker(index, "two") == []
        assert supervisor.sweep() == []
        assert metrics.as_dict()["serve_worker_failures_total"] == 1
        assert entry.recoveries == 1

    def test_dead_workers_skipped_for_new_sessions(self, pool):
        registry, _, _, supervisor = pool
        supervisor.fail_worker(0, "dead")
        for i in range(4):
            entry = registry.create("t", f"s{i}", SPEC, k=2)
            assert entry.worker.alive

    def test_last_worker_unrecoverable(self, tmp_path):
        registry = SessionRegistry(tmp_path / "d", workers=1)
        metrics = MetricsRegistry()
        supervisor = WorkerSupervisor(registry, metrics)
        registry.create("t", "s", SPEC, k=2)
        with pytest.raises(ServeError, match="every device worker"):
            supervisor.fail_worker(0, "the only one")

    def test_evicted_session_not_revived_by_failover(self, pool):
        registry, _, _, supervisor = pool
        entry = registry.create("t", "s", SPEC, k=2)
        victim = entry.worker.index
        registry.evict("t", "s")
        restored = supervisor.fail_worker(victim, "dead")
        # Evicted sessions hold no device state to restore; attach
        # revives them lazily, onto an alive worker.
        assert restored == []
        revived = registry.attach("t", "s")
        assert revived.worker.alive


class TestBrownout:
    def test_watermarks_tighten_with_pool(self, pool):
        _, metrics, shedder, supervisor = pool
        assert shedder.effective_high_watermark == 90
        supervisor.fail_worker(0, "one down")
        assert shedder.effective_high_watermark == 60
        assert (
            metrics.as_dict()["serve_capacity_fraction"]
            == pytest.approx(2 / 3)
        )

    def test_shedding_starts_earlier_when_degraded(self, pool):
        _, _, shedder, supervisor = pool
        supervisor.fail_worker(0, "down")
        shedder.observe_backlog(60)
        assert shedder.shedding  # would need 90 on a healthy pool
