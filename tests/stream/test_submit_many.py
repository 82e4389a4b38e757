"""StreamSession.submit_many: per-modifier submission, batched.

The reference is a test-local copy of the per-modifier ``submit`` the
session had before ``submit_many`` existed: one ingest host op, one
journal write (through ``StreamJournal._append``) and one scheduler
check per modifier.  Fed the same submits, drains and checkpoints, the
batched path must leave every observable identical — sequence numbers
(or the same error escaping at the same modifier), telemetry, scheduler
triggers, the window-open stamp, the ledger's sections in order, the
journal's bytes and the partition.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    EdgeDelete,
    EdgeInsert,
    VertexDelete,
    VertexInsert,
    circuit_graph,
)
from repro.partition import PartitionConfig
from repro.serve.registry import partition_sha256
from repro.stream import SchedulerConfig, StreamSession
from repro.stream.journal import encode_modifier
from repro.utils import BackpressureError, ModifierError

NUM_VERTICES = 160
GRAPH = circuit_graph(NUM_VERTICES, edge_ratio=1.4, seed=3)


def reference_submit(session, modifier):
    """The per-modifier ``StreamSession.submit`` before batching."""
    session._require_started()
    if session.queue.is_full():
        if session.queue.policy == "block":
            session.flush(reason="backpressure")
        else:
            session.telemetry.record_reject()
            raise BackpressureError("ingest queue full")
    ledger = session.partitioner.ctx.ledger
    with ledger.section("stream_ingest"):
        ledger.charge_host_ops(1)
    was_empty = session.queue.is_empty()
    seq = session.queue.offer(modifier)
    if session.journal is not None:
        record = {"r": "m", "s": seq}
        record.update(encode_modifier(modifier))
        session.journal._append(record)
    session.telemetry.record_ingest(session.queue.depth)
    if was_empty:
        session._window_opened_cycles = session._clock()
    while True:
        reason = session.scheduler.should_flush(
            session.partitioner,
            session.queue.depth,
            session._window_opened_cycles,
            session._clock(),
        )
        if reason is None:
            return seq
        session.flush(reason=reason)


#: name -> (SchedulerConfig kwargs, queue kwargs) strategies.
SETUPS = {
    "derived": st.just(({}, {})),
    "size": st.integers(2, 9).map(
        lambda n: ({"target_batch_size": n}, {})
    ),
    "deadline": st.tuples(
        st.sampled_from([None, 40]),
        st.sampled_from([20.0, 50.0, 200.0]),
    ).map(
        lambda tl: (
            {"target_batch_size": tl[0], "max_latency_cycles": tl[1]},
            {},
        )
    ),
    "block": st.integers(2, 8).map(
        lambda c: ({}, {"queue_capacity": c, "policy": "block"})
    ),
    "reject": st.integers(2, 8).map(
        lambda c: ({}, {"queue_capacity": c, "policy": "reject"})
    ),
}

edge = st.tuples(
    st.integers(0, NUM_VERTICES - 1), st.integers(1, NUM_VERTICES - 1)
).map(lambda uv: (uv[0], (uv[0] + uv[1]) % NUM_VERTICES))
#: Mostly healthy edits, plus poison the engine rejects (deletes of
#: edges the graph lacks, inserts of edges it already has, re-inserts
#: of live vertices, IDs no vertex ever held) and windows the coalescer
#: rejects (an edge op on a vertex deleted earlier in the window).
edge_insert = edge.map(lambda uv: EdgeInsert(*uv, weight=1 + sum(uv) % 3))
modifier = st.one_of(
    edge_insert,
    edge_insert,
    edge.map(lambda uv: EdgeDelete(*uv)),
    st.one_of(
        st.integers(NUM_VERTICES, NUM_VERTICES + 3).map(
            lambda u: VertexInsert(u, weight=2)
        ),
        st.one_of(
            st.integers(0, 3), st.integers(NUM_VERTICES + 8, 10**6)
        ).map(VertexDelete),
    ),
)
submit_op = st.integers(1, 30).flatmap(
    lambda n: st.lists(modifier, min_size=n, max_size=n)
).map(lambda mods: ("submit", mods))
operation = st.one_of(
    submit_op,
    submit_op,
    submit_op,
    st.just(("drain", None)),
    st.just(("checkpoint", None)),
)


def _session(journal_dir, scheduler_kwargs, queue_kwargs):
    session = StreamSession(
        GRAPH,
        PartitionConfig(k=3, seed=5),
        journal_dir=journal_dir,
        scheduler=SchedulerConfig(**scheduler_kwargs),
        checkpoint_every=3,
        max_quarantine=4,
        **queue_kwargs,
    )
    session.start()
    return session


def _run(session, ops, submit):
    outcomes = []
    for kind, mods in ops:
        try:
            if kind == "drain":
                outcomes.append(len(session.drain()))
            elif kind == "checkpoint":
                session.checkpoint()
                outcomes.append(None)
            else:
                outcomes.append(submit(session, mods))
        except (BackpressureError, ModifierError) as err:
            # Either escapes mid-submit; what landed before it must
            # match too.
            outcomes.append((type(err).__name__, session.queue.next_seq))
    return outcomes


def _observables(session):
    ledger = session.partitioner.ctx.ledger
    log = session.journal.log_path
    return {
        "next_seq": session.queue.next_seq,
        "applied_seq": session.applied_seq,
        "telemetry": session.telemetry.as_dict(),
        "metrics": session.obs.as_dict(),
        "window_opened": session._window_opened_cycles,
        "sections": list(ledger.sections.items()),
        "total": ledger.total,
        "journal": log.read_bytes() if log.exists() else b"",
        "partition": partition_sha256(session.partition),
    }


@pytest.mark.parametrize("setup_name", sorted(SETUPS))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), ops=st.lists(operation, min_size=2, max_size=8))
def test_submit_many_matches_per_modifier_submit(setup_name, data, ops):
    scheduler_kwargs, queue_kwargs = data.draw(SETUPS[setup_name])
    with tempfile.TemporaryDirectory() as root:
        runs = {}
        for name, submit in (
            (
                "reference",
                lambda s, mods: [reference_submit(s, m) for m in mods],
            ),
            ("batched", lambda s, mods: s.submit_many(mods)),
        ):
            session = _session(
                Path(root) / name / "j", scheduler_kwargs, queue_kwargs
            )
            outcomes = _run(session, ops, submit)
            runs[name] = (outcomes, _observables(session))
            session.journal.close()
    ref_outcomes, ref_state = runs["reference"]
    outcomes, state = runs["batched"]
    assert outcomes == ref_outcomes
    for key in ref_state:
        assert state[key] == ref_state[key], key
