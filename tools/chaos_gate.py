#!/usr/bin/env python
"""Chaos gate: prove the fault-tolerance contracts under injected faults.

Three scenarios, every assertion on deterministic simulated-GPU state
(nothing here is wall-clock dependent):

1. **Rollback bit-identity** — for each poison/structural fault class
   and for *both* execution modes (warp and vector), a batch carrying
   the fault must fail and leave the graph + partition at exactly the
   pre-batch sha256 ``state_digest``.  The two modes must also agree on
   every intermediate digest (rolled-back state included), and each
   rollback's ``"rollback"`` ledger section must cost no more device
   time than the failed forward attempt it undoes.

2. **Stream degradation** — a journaled :class:`StreamSession` fed a
   trace with embedded poison and a pool-exhaustion episode must (a)
   apply every healthy modifier (none lost), (b) route every rejection
   into quarantine or the dead-letter ledger (rejections are a subset
   of the injected poison), (c) keep the accounting identity
   ``ingested == applied + coalesced_dropped + dead_lettered +
   quarantine_pending + queue_depth``, and (d) escalate to a full
   rebuild that drains the quarantine once the pool is exhausted.

3. **Journal recovery** — after a simulated crash, recovery from (a)
   the pristine journal, (b) a journal with a torn tail record, and
   (c) a journal whose newest checkpoint is truncated mid-write (falls
   back to the previous checkpoint) must all land bit-identical to the
   uninterrupted run.

Exit status 0 when every check passes, 1 otherwise.  ``--smoke`` runs
the same checks at a reduced scale for CI / the verify loop::

    PYTHONPATH=src python tools/chaos_gate.py --smoke
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (REPO_ROOT / "src",):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import numpy as np

from repro.core.igkway import IGKway
from repro.core.transaction import state_digest
from repro.gpusim.cost import Counters
from repro.graph.bucketlist import EMPTY
from repro.graph.generators import circuit_graph
from repro.graph.modifiers import EdgeInsert, ModifierBatch
from repro.partition.config import PartitionConfig
from repro.stream.journal import StreamJournal
from repro.stream.scheduler import SchedulerConfig
from repro.stream.session import StreamSession
from repro.utils.errors import CapacityError, ModifierError
from repro.utils.faultinject import (
    FAULT_CLASSES,
    FaultInjector,
    InjectedAbort,
)

POISON_CLASSES = ("duplicate_edge", "missing_edge", "dead_vertex_op")

#: Seed of every scenario's graph, fault injector and traffic.
SEED = 7

MODES = ("warp", "vector")


def fresh_edges(graph, rng, count, taken):
    """``count`` deterministic edge inserts the graph does not have.

    ``taken`` accumulates chosen pairs (both orientations) so repeated
    calls — and calls before earlier picks have been applied — never
    produce a duplicate.
    """
    active = graph.active_vertices()
    picks = []
    attempts = 0
    while len(picks) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("could not find enough fresh edges")
        u = int(active[rng.integers(len(active))])
        v = int(active[rng.integers(len(active))])
        if u == v or (u, v) in taken or graph.has_edge(u, v):
            continue
        taken.add((u, v))
        taken.add((v, u))
        picks.append(EdgeInsert(u, v))
    return picks


def _overflow_batch(graph, taken):
    """Inserts on one vertex guaranteed to need a bucket allocation."""
    active = graph.active_vertices()
    u = int(active[0])
    slots = graph.slots(u)
    spare = int((slots == EMPTY).sum())
    picks = []
    for v in active:
        v = int(v)
        if v == u or (u, v) in taken or graph.has_edge(u, v):
            continue
        picks.append(EdgeInsert(u, v))
        if len(picks) > spare:
            return picks
    raise RuntimeError("graph too dense to build an overflow batch")


def _failed_attempt(ig, thunk, expected, failures, label):
    """Run ``thunk`` expecting ``expected``; check digest + cost bound.

    Returns the post-rollback digest (or None when the gate itself
    failed, with the reason appended to ``failures``).
    """
    ledger = ig.ctx.ledger
    pre = state_digest(ig.graph, ig.state)
    before_total = ledger.seconds()
    before_rollback = ledger.seconds("rollback")
    try:
        thunk()
    except expected:
        pass
    else:
        failures.append(f"{label}: fault did not raise {expected}")
        return None
    post = state_digest(ig.graph, ig.state)
    if post != pre:
        failures.append(
            f"{label}: rollback digest mismatch "
            f"({post[:12]} != {pre[:12]})"
        )
        return None
    rollback_s = ledger.seconds("rollback") - before_rollback
    forward_s = (ledger.seconds() - before_total) - rollback_s
    # Recovery cost bound: one rollback is a single kernel launch that
    # scatters the partition snapshot back (fixed cost in the partition
    # size) plus an undo scatter proportional to what the failed attempt
    # managed to write — i.e. a constant floor plus O(forward cost).
    model = ledger.model
    n = ig.state.partition.size
    floor_s = model.seconds(
        Counters(
            kernel_launches=1,
            overlapped_kernel_seconds=model.kernel_seconds(
                2, 2 + (n + 15) // 16
            ),
        )
    )
    allowed_s = floor_s + 4 * max(forward_s, 0.0) + model.kernel_seconds(2, 2)
    if rollback_s > allowed_s:
        failures.append(
            f"{label}: unbounded recovery cost — rollback "
            f"{rollback_s:.3e}s exceeds snapshot-restore floor "
            f"{floor_s:.3e}s + 4x the failed attempt's forward cost "
            f"{forward_s:.3e}s"
        )
    return post


def scenario_rollback(n_vertices, k, seed, rounds):
    """Scenario 1: per-class rollback bit-identity across both modes."""
    failures = []
    per_mode_digests = {}
    per_mode_edges = {}
    for mode in MODES:
        csr = circuit_graph(n_vertices, edge_ratio=1.3, seed=seed)
        ig = IGKway(csr, PartitionConfig(k=k, mode=mode, seed=seed))
        ig.full_partition()
        # Every rollback self-verifies its digest inside apply() too.
        ig.verify_rollback_digest = True
        injector = FaultInjector(seed + 1)
        rng = np.random.default_rng(seed + 2)
        taken = set()
        applied_edges = []
        digests = []
        for round_idx in range(rounds):
            for fault in POISON_CLASSES + ("pool_exhaustion", "kernel_abort"):
                label = f"[{mode}] round {round_idx} {fault}"
                graph = ig.graph
                if fault in POISON_CLASSES:
                    # Healthy work around the poison: the rollback must
                    # undo real writes, not just refuse a bad op.
                    batch = fresh_edges(graph, rng, 3, taken)
                    batch.insert(2, injector.poison(graph, fault))
                    for mod in batch:
                        if isinstance(mod, EdgeInsert):
                            taken.discard((mod.u, mod.v))
                            taken.discard((mod.v, mod.u))
                    digest = _failed_attempt(
                        ig,
                        lambda b=batch: ig.apply(ModifierBatch(b)),
                        ModifierError,
                        failures,
                        label,
                    )
                elif fault == "pool_exhaustion":
                    batch = _overflow_batch(graph, taken)

                    def thunk(b=batch):
                        with injector.pool_exhaustion(graph):
                            ig.apply(ModifierBatch(b))

                    digest = _failed_attempt(
                        ig, thunk, CapacityError, failures, label
                    )
                else:  # kernel_abort
                    batch = fresh_edges(graph, rng, 4, taken)
                    for mod in batch:
                        taken.discard((mod.u, mod.v))
                        taken.discard((mod.v, mod.u))

                    def thunk(b=batch):
                        with injector.kernel_abort(graph, after_writes=3):
                            ig.apply(ModifierBatch(b))

                    digest = _failed_attempt(
                        ig, thunk, InjectedAbort, failures, label
                    )
                if digest is not None:
                    digests.append((label.split("] ")[1], digest))
                # A healthy batch must still apply cleanly after every
                # rollback (no lingering corruption / stuck undo log).
                healthy = fresh_edges(ig.graph, rng, 3, taken)
                ig.apply(ModifierBatch(healthy))
                applied_edges.extend((m.u, m.v) for m in healthy)
                digests.append(
                    ("healthy", state_digest(ig.graph, ig.state))
                )
        ig.validate()
        missing = [
            (u, v) for u, v in applied_edges if not ig.graph.has_edge(u, v)
        ]
        if missing:
            failures.append(
                f"[{mode}] healthy edges lost after recovery: "
                f"{missing[:5]}"
            )
        expected_edges = csr.num_edges + len(applied_edges)
        final_csr, _id_map = ig.graph.to_csr()
        if final_csr.num_edges != expected_edges:
            failures.append(
                f"[{mode}] edge count drifted: {final_csr.num_edges} "
                f"!= initial {csr.num_edges} + healthy "
                f"{len(applied_edges)}"
            )
        per_mode_digests[mode] = digests
        per_mode_edges[mode] = applied_edges
    if per_mode_digests["warp"] != per_mode_digests["vector"]:
        pairs = zip(per_mode_digests["warp"], per_mode_digests["vector"])
        for (step_w, d_w), (_step_v, d_v) in pairs:
            if d_w != d_v:
                failures.append(
                    f"warp/vector digest divergence at step "
                    f"'{step_w}': {d_w[:12]} != {d_v[:12]}"
                )
                break
    checked = len(per_mode_digests["warp"])
    return failures, f"{checked} digests x {len(MODES)} modes"


def _poison_plan(graph, injector, count):
    """Poison drawn from the *initial* graph so it stays poison forever
    (nothing in the healthy trace creates the missing edges, revives
    the dead vertices, or deletes the duplicated ones)."""
    plan = []
    for i in range(count):
        kind = POISON_CLASSES[i % len(POISON_CLASSES)]
        plan.append(injector.poison(graph, kind))
    return plan


def _blocked_pairs(poison):
    pairs = set()
    for mod in poison:
        u = getattr(mod, "u", None)
        v = getattr(mod, "v", None)
        if u is not None and v is not None:
            pairs.add((u, v))
            pairs.add((v, u))
    return pairs


def scenario_stream(n_vertices, k, seed, healthy_count, poison_count):
    """Scenario 2: graceful degradation of a journaled stream."""
    failures = []
    tmp = Path(tempfile.mkdtemp(prefix="chaos_stream_"))
    try:
        csr = circuit_graph(n_vertices, edge_ratio=1.3, seed=seed)
        session = StreamSession(
            csr,
            PartitionConfig(k=k, seed=seed),
            journal_dir=tmp / "journal",
            scheduler=SchedulerConfig(target_batch_size=12),
            checkpoint_every=4,
            max_quarantine=64,
            quarantine_max_attempts=10,
            quarantine_backoff_cycles=1.0,
            escalate_after=3,
        )
        session.start()
        injector = FaultInjector(seed + 1)
        rng = np.random.default_rng(seed + 2)
        graph = session.partitioner.graph
        poison_plan = _poison_plan(graph, injector, poison_count)
        taken = _blocked_pairs(poison_plan)
        healthy = fresh_edges(graph, rng, healthy_count, taken)

        poison_seqs = set()
        healthy_iter = iter(healthy)
        stride = max(1, healthy_count // max(1, poison_count))
        submitted_healthy = []
        for i, mod in enumerate(healthy_iter):
            submitted_healthy.append(mod)
            session.submit(mod)
            if (i + 1) % stride == 0 and poison_plan:
                poison_seqs.add(session.submit(poison_plan.pop(0)))
        for mod in poison_plan:
            poison_seqs.add(session.submit(mod))
        session.drain()

        # Pool-exhaustion episode: enough single-vertex inserts to need
        # an allocation while the pool is pinned at its current fill.
        overflow = _overflow_batch(session.partitioner.graph, taken)
        with injector.pool_exhaustion(session.partitioner.graph):
            for mod in overflow:
                session.submit(mod)
            session.drain()
        # Capacity-starved (healthy!) modifiers sit in quarantine; the
        # next flush after the pool recovers must retry and apply them.
        post_episode = fresh_edges(
            session.partitioner.graph, rng, 3, taken
        )
        for mod in post_episode:
            session.submit(mod)
        session.drain()
        metrics = session.metrics()

        for mod in submitted_healthy + overflow + post_episode:
            if not session.partitioner.graph.has_edge(mod.u, mod.v):
                failures.append(
                    f"stream: healthy edge ({mod.u}, {mod.v}) lost"
                )
                break
        session.partitioner.validate()

        identity = (
            metrics["applied_modifiers"]
            + metrics["coalesced_dropped"]
            + metrics["dead_lettered"]
            + metrics["quarantine_pending"]
            + metrics["queue_depth"]
        )
        if metrics["ingested"] != identity:
            failures.append(
                f"stream: accounting identity broken — ingested "
                f"{metrics['ingested']} != {identity}"
            )
        if metrics["escalations"] < 1:
            failures.append(
                "stream: pool exhaustion never escalated to a rebuild"
            )
        if metrics["quarantine_recovered"] < 1:
            failures.append(
                "stream: no quarantined modifier was ever recovered"
            )

        live_digest = state_digest(
            session.partitioner.graph, session.partitioner.inner.state
        )
        session.close()

        state = StreamJournal(tmp / "journal").load()
        bad_dead = set(state.dead_letters) - poison_seqs
        if bad_dead:
            failures.append(
                f"stream: dead letters outside the injected poison: "
                f"{sorted(bad_dead)[:5]}"
            )
        quarantine_meta = (
            state.meta.get("resilience", {})
            .get("quarantine", {})
            .get("entries", [])
        )
        bad_quarantined = {
            e["s"] for e in quarantine_meta
        } - poison_seqs
        if bad_quarantined:
            failures.append(
                f"stream: quarantined seqs outside the injected "
                f"poison: {sorted(bad_quarantined)[:5]}"
            )

        recovered = StreamSession.recover(tmp / "journal")
        rec_digest = state_digest(
            recovered.partitioner.graph,
            recovered.partitioner.inner.state,
        )
        if rec_digest != live_digest:
            failures.append(
                f"stream: recovery digest {rec_digest[:12]} != live "
                f"{live_digest[:12]}"
            )
        recovered.close()
        summary = (
            f"{metrics['quarantined']} quarantined, "
            f"{metrics['dead_lettered']} dead-lettered, "
            f"{metrics['escalations']} escalations"
        )
        return failures, summary
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def scenario_journal(n_vertices, k, seed, healthy_count, poison_count):
    """Scenario 3: crash recovery survives torn tails and a corrupted
    newest checkpoint (journal-truncation fault class)."""
    failures = []
    tmp = Path(tempfile.mkdtemp(prefix="chaos_journal_"))
    try:
        main_dir = tmp / "main"
        csr = circuit_graph(n_vertices, edge_ratio=1.3, seed=seed)
        session = StreamSession(
            csr,
            PartitionConfig(k=k, seed=seed),
            journal_dir=main_dir,
            scheduler=SchedulerConfig(target_batch_size=8),
            checkpoint_every=2,
            quarantine_backoff_cycles=1e12,  # park poison for good
            escalate_after=10,
        )
        session.start()
        injector = FaultInjector(seed + 1)
        rng = np.random.default_rng(seed + 2)
        graph = session.partitioner.graph
        poison_plan = _poison_plan(graph, injector, poison_count)
        taken = _blocked_pairs(poison_plan)
        healthy = fresh_edges(graph, rng, healthy_count, taken)
        mid = healthy_count // 2
        for mod in healthy[:mid]:
            session.submit(mod)
        for mod in poison_plan:
            session.submit(mod)
        for mod in healthy[mid:]:
            session.submit(mod)
        session.drain()
        live_digest = state_digest(
            session.partitioner.graph, session.partitioner.inner.state
        )
        # Crash: release the log handle, but never checkpoint/close.
        session.journal.close()
        journal = StreamJournal(main_dir)
        if not journal.prev_checkpoint_path.exists():
            failures.append(
                "journal: run too short — no previous checkpoint to "
                "fall back to"
            )

        variants = {"pristine": None}
        torn_dir = tmp / "torn"
        shutil.copytree(main_dir, torn_dir)
        # A crash tears the next append at the live log's committed end.
        live_log = torn_dir / journal.log_path.name
        with live_log.open("r+b") as handle:
            handle.seek(len(live_log.read_bytes().rstrip(b"\0")))
            handle.write(b'{"r":"m","s":999999,"t":"ei","u":0,')
        variants["torn tail"] = torn_dir

        corrupt_dir = tmp / "corrupt"
        shutil.copytree(main_dir, corrupt_dir)
        checkpoint = corrupt_dir / journal.checkpoint_path.name
        injector.truncate(checkpoint, fraction=0.4)
        variants["corrupt checkpoint"] = corrupt_dir
        variants["pristine"] = main_dir

        for name, directory in variants.items():
            recovered = StreamSession.recover(directory)
            recovered.drain()
            digest = state_digest(
                recovered.partitioner.graph,
                recovered.partitioner.inner.state,
            )
            if digest != live_digest:
                failures.append(
                    f"journal[{name}]: recovered digest {digest[:12]} "
                    f"!= uninterrupted {live_digest[:12]}"
                )
            recovered.journal.close()
        return failures, f"{len(variants)} recovery variants"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI / the verify loop",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rollback_scale = dict(n_vertices=300, k=4, rounds=1)
        stream_scale = dict(
            n_vertices=400, k=4, healthy_count=40, poison_count=4
        )
        journal_scale = dict(
            n_vertices=400, k=4, healthy_count=36, poison_count=2
        )
    else:
        rollback_scale = dict(n_vertices=900, k=8, rounds=2)
        stream_scale = dict(
            n_vertices=1200, k=8, healthy_count=120, poison_count=9
        )
        journal_scale = dict(
            n_vertices=1200, k=8, healthy_count=90, poison_count=4
        )

    failures = []
    scenarios = [
        ("rollback bit-identity", scenario_rollback, rollback_scale),
        ("stream degradation", scenario_stream, stream_scale),
        ("journal recovery", scenario_journal, journal_scale),
    ]
    for name, fn, scale in scenarios:
        scenario_failures, summary = fn(seed=SEED, **scale)
        status = "FAIL" if scenario_failures else "ok"
        print(f"chaos[{name}] {status}: {summary}")
        failures.extend(scenario_failures)

    print(
        f"chaos: fault classes covered: {', '.join(FAULT_CLASSES)} "
        f"({len(FAULT_CLASSES)} classes)"
    )
    if failures:
        print(f"\nchaos gate FAILED ({len(failures)} problems):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("chaos gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
