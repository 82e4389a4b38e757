"""Crash matrix: kill the server around every durable write.

Property: for each serve op, a crash at {pre-WAL, post-WAL/pre-ack,
post-ack} recovers to *either* the pre-op state or the post-op state —
never a third value — and so do the session's lifetime device cycles.
The durable prefix on disk at the kill point is captured with a
directory snapshot (exactly what a dead process leaves behind), then
recovered by a fresh registry.

The matrix crosses the kill points with {submit, submit_many, flush,
evict}: each op's first durable append is instrumented so snapshots
land immediately before and after the write-ahead record, plus after
the op acks.
"""

import math
import shutil
from pathlib import Path

import pytest

from repro.graph.modifiers import EdgeInsert
from repro.obs.distrib import load_flight, validate_flight
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve.registry import SessionRegistry, partition_sha256
from repro.utils.errors import ServeError
from repro.utils.faultinject import ServeFaultPlan

SPEC = {
    "generator": "circuit",
    "args": {"num_vertices": 120, "edge_ratio": 1.3, "seed": 7},
}


def _mods(n, nv=120, start=0):
    return [
        EdgeInsert(u=(start + i) % nv, v=(start + i * 3 + 1) % nv)
        for i in range(n)
    ]


def _fingerprint(entry):
    return (
        partition_sha256(entry.session.partition),
        entry.session.queue.next_seq,
        entry.session.applied_seq,
    )


def _recover_fingerprint(snapshot_dir):
    return _recover(snapshot_dir)[0]


def _recover(snapshot_dir):
    """(fingerprint, lifetime cycles) of the recovered session."""
    registry = SessionRegistry(snapshot_dir, workers=1)
    registry.recover_entries()
    entry = registry.get("t", "s")
    return _fingerprint(entry), entry.lifetime_cycles


def _instrument_first(obj, method_name, before, after):
    """Snapshot around the first call of ``obj.method_name``."""
    original = getattr(obj, method_name)
    fired = []

    def wrapper(*args, **kwargs):
        if fired:
            return original(*args, **kwargs)
        fired.append(True)
        before()
        result = original(*args, **kwargs)
        after()
        return result

    setattr(obj, method_name, wrapper)
    return fired


#: op name -> journal method carrying its first durable write.
FIRST_WRITE = {
    "submit": "log_modifiers",
    "submit_many": "log_modifiers",
    "flush": "log_flush",
    "evict": "write_checkpoint",
}


def _kill_points(tmp_path, op, history, pending, submitted):
    """Run ``op`` on a session with durable history, snapshotting the
    data dir at each kill point, and recover every snapshot.

    Returns ``({point: (fingerprint, lifetime cycles)}, pre_cycles,
    post_cycles)``, the last two being the live session's lifetime
    cycles before and after the op.  ``submit`` sends
    ``submitted[0]``, ``submit_many`` all of ``submitted``.
    """
    live = tmp_path / "live"
    registry = SessionRegistry(live, workers=1)
    entry = registry.create("t", "s", SPEC, k=3, seed=4)
    # Durable history first: a checkpoint plus a journaled,
    # partially-drained suffix, so recovery is never trivial.
    for mod in history:
        entry.session.submit(mod)
    entry.session.drain()
    entry.session.checkpoint()
    for mod in pending:
        entry.session.submit(mod)
    registry.settle_cycles(entry)
    pre_cycles = entry.lifetime_cycles

    snapshots = {
        "pre": tmp_path / "pre",
        "pre_wal": tmp_path / "pre_wal",
        "post_wal": tmp_path / "post_wal",
        "post": tmp_path / "post",
    }
    shutil.copytree(live, snapshots["pre"])

    fired = _instrument_first(
        entry.session.journal,
        FIRST_WRITE[op],
        lambda: shutil.copytree(live, snapshots["pre_wal"]),
        lambda: shutil.copytree(live, snapshots["post_wal"]),
    )
    if op == "submit":
        entry.session.submit(submitted[0])
    elif op == "submit_many":
        entry.session.submit_many(submitted)
    elif op == "flush":
        entry.session.drain()
    else:
        registry.evict("t", "s")
    assert fired, f"{op} never reached its durable write"
    shutil.copytree(live, snapshots["post"])
    registry.settle_cycles(entry)
    recovered = {
        point: _recover(path) for point, path in snapshots.items()
    }
    return recovered, pre_cycles, entry.lifetime_cycles


def _assert_pre_or_post(recovered):
    """Every kill point recovers the pre-op or the post-op state;
    returns the two fingerprints."""
    pre_fp = recovered["pre"][0]
    post_fp = recovered["post"][0]
    # Killed before the WAL write: the op never happened.
    assert recovered["pre_wal"][0] == pre_fp
    # Killed between the WAL write and the ack: either outcome is
    # legal — but nothing in between, and nothing else.
    assert recovered["post_wal"][0] in {pre_fp, post_fp}
    # Killed after the ack: the op sticks.
    assert recovered["post"][0] == post_fp
    return pre_fp, post_fp


def _poisoned(op):
    """(history, pending, submitted) of a naive stream: its repeated
    and pre-existing edges are quarantined.  Three modifiers on the 5
    pending, under the size target of 9: no flush fires, so all three
    records go out in one write and a kill can land only before or
    after it."""
    submitted = (
        [EdgeInsert(u=3, v=77)] if op == "submit" else _mods(3, start=17)
    )
    return _mods(12), _mods(5, start=12), submitted


class TestCrashMatrix:
    @pytest.mark.parametrize("op", sorted(FIRST_WRITE))
    def test_recovery_is_pre_or_post_op(self, tmp_path, op):
        recovered, _pre, _post = _kill_points(
            tmp_path, op, *_poisoned(op)
        )
        _assert_pre_or_post(recovered)

    @pytest.mark.parametrize(
        "op,poisoned",
        [pytest.param(op, False, id=op) for op in sorted(FIRST_WRITE)]
        + [
            pytest.param(op, True, id=f"{op}-poisoned")
            for op in sorted(FIRST_WRITE)
        ],
    )
    def test_recovered_cycles_are_pre_or_post_op(
        self, tmp_path, op, poisoned, clean_mods
    ):
        # The poisoned stream's flush quarantines and retries after its
        # flush record; replay runs the same window path, retry
        # included, so its kill points land on a live figure too.
        if poisoned:
            parts = _poisoned(op)
        else:
            stream = clean_mods(SPEC, 20)
            parts = stream[:12], stream[12:17], stream[17:]
        recovered, pre_cycles, post_cycles = _kill_points(
            tmp_path, op, *parts
        )
        pre_fp, post_fp = _assert_pre_or_post(recovered)
        # Each kill point's lifetime cycles are those of the outcome
        # it recovered.
        outcomes = {pre_fp: pre_cycles, post_fp: post_cycles}
        for point, (fingerprint, cycles) in recovered.items():
            assert math.isclose(
                cycles, outcomes[fingerprint], rel_tol=1e-9
            ), point

    def test_post_ack_submit_survives(self, tmp_path):
        # The acked write is durable: recovery must include it.
        live = tmp_path / "live"
        registry = SessionRegistry(live, workers=1)
        entry = registry.create("t", "s", SPEC, k=2, seed=1)
        pre_seq = entry.session.queue.next_seq
        entry.session.submit(EdgeInsert(u=1, v=50))
        snapshot = tmp_path / "snap"
        shutil.copytree(live, snapshot)

        fresh = SessionRegistry(snapshot, workers=1)
        fresh.recover_entries()
        assert (
            fresh.get("t", "s").session.queue.next_seq == pre_seq + 1
        )


def _dump_reasons(data_dir):
    """reason -> dump path for every flight artifact in ``data_dir``,
    each one validated clean first."""
    reasons = {}
    for path in sorted(Path(data_dir).glob("flightrec-*.jsonl")):
        assert validate_flight(path) == []
        header, _events = load_flight(path)
        reasons[header["reason"]] = path
    return reasons


class TestFlightDumpPerFault:
    """Every injected fault leaves a black box on disk.

    Crosses the crash matrix into the live server: each armed
    :class:`ServeFaultPlan` kind must trigger a flight-recorder dump
    that validates clean and records the fault itself."""

    def _run(self, tmp_path, plan, expect_server_death=False):
        data_dir = str(tmp_path / "d")
        config = ServerConfig(
            workers=2,
            data_dir=data_dir,
            enable_chaos=True,
            fault_plan=plan,
            flight_capacity=64,
        )
        with ServerThread(config) as thread:
            with ServeClient(
                "127.0.0.1",
                thread.tcp_port,
                tenant="t",
                sleep=lambda _d: None,
            ) as client:
                client.create("s", SPEC, k=2, seed=3)
                try:
                    client.submit_with_retry("s", _mods(8))
                    client.flush("s", drain=True)
                    died = False
                except (ServeError, OSError):
                    died = True
        assert died == expect_server_death
        assert not plan.armed, "armed fault never fired"
        return data_dir

    @pytest.mark.parametrize(
        "kind",
        ["torn_response", "drop_connection", "delay_response"],
    )
    def test_transport_fault_dumps(self, tmp_path, kind):
        plan = ServeFaultPlan(seed=7)
        plan.arm(kind, op="submit", delay=0.01)
        data_dir = self._run(tmp_path, plan)
        reasons = _dump_reasons(data_dir)
        path = reasons[f"fault-{kind}"]
        _header, events = load_flight(path)
        faults = [e for e in events if e["kind"] == "fault"]
        assert any(
            e["fault"] == kind and e["op"] == "submit"
            for e in faults
        )
        # The ring kept the request history leading up to the fault.
        assert any(e["kind"] == "request" for e in events)

    def test_worker_abort_dumps(self, tmp_path):
        plan = ServeFaultPlan(seed=7)
        plan.arm("worker_abort", op="submit")
        data_dir = self._run(tmp_path, plan)
        reasons = _dump_reasons(data_dir)
        _header, events = load_flight(
            reasons["fault-worker_abort"]
        )
        assert any(
            e["kind"] == "fault" and e["stage"] == "execute"
            for e in events
        )

    def test_crash_after_wal_dumps_with_crash_reason(self, tmp_path):
        plan = ServeFaultPlan(seed=7)
        plan.arm("crash_after_wal", op="submit")
        data_dir = self._run(
            tmp_path, plan, expect_server_death=True
        )
        reasons = _dump_reasons(data_dir)
        _header, events = load_flight(reasons["crash"])
        kinds = [e["kind"] for e in events]
        # The fault event rings first, then the crash marker.
        assert "fault" in kinds and "crash" in kinds
        assert kinds.index("fault") < kinds.index("crash")

    def test_no_faults_no_dumps(self, tmp_path):
        data_dir = self._run(tmp_path, ServeFaultPlan(seed=7))
        assert _dump_reasons(data_dir) == {}
