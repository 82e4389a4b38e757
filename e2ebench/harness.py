"""Workloads, the closed-loop caller, trace attribution and output checks.

Imported by ``run.py`` once the program's ``src`` is on ``sys.path``.
See ``run.py`` for the workloads, the metrics and why each exists.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from inputs import EcoStream
from repro.graph.generators import circuit_graph
from repro.obs.distrib import TraceRecorder
from repro.obs.tracer import TraceEvent
from repro.partition.metrics import cut_size_csr, max_partition_weight
from repro.partition.state import UNASSIGNED
from repro.serve import (
    ServeClient,
    ServerConfig,
    ServerThread,
    partition_sha256,
)
from repro.utils.errors import ServeError

#: Set-ups timed per run (the measured server's, then throwaway ones
#: spread across the measurement); ``setup_s`` is their median.
SETUPS = 10
#: ``cut_pct`` averages this many first flush replies: a fixed stretch
#: of the seeded stream, so the value does not depend on how far into
#: the stream a run's speed carried it.
CUT_SAMPLES = 400
#: ``latency_p98_ms`` needs this many operations beyond it, so a run
#: must complete at least 50x as many.
TAIL_SAMPLES = 10
TAIL_PERCENTILE = 98
#: Seconds of measurement between two runs of the calibration loop.
CALIBRATE_EVERY = 0.05
#: A time is scaled by the median of this many calibration samples on
#: each side of it: about a second of measurement.
CALIBRATION_WINDOW = 10
#: The calibration loop's time on the reference machine, a 2.1 GHz
#: Xeon vCPU in its faster spells: reported times are what the operation
#: would have taken there.
REFERENCE_CALIBRATION_S = 1.2e-3


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration."""

    tenants: int
    #: Sessions per tenant.
    sessions: int
    #: Cells (vertices) of each session's circuit graph.
    vertices: int
    k: int
    #: Simulated devices in the server's pool.
    workers: int
    #: Modifiers per submitted batch, drawn uniformly from [lo, hi].
    batch: Tuple[int, int]
    #: Vertex-ID window of an ECO burst; 0 draws the steady mix.
    region: int = 0
    #: Edges per cell of each circuit graph (``circuit_graph``'s default).
    edge_ratio: float = 1.3
    #: True: each operation is one request of CHURN_MIX; False: each
    #: operation is one ECO iteration (submit a batch, then flush it).
    churn: bool = False


# Batch sizes are the program's own paper-scaled workload parameters
# (``repro.eval.workloads``), written out rather than imported so that
# a change to those defaults cannot change the benchmark's inputs.
WORKLOADS: Dict[str, Workload] = {
    # auto_modifier_range(6000) == (3, 9): the paper's 0.04-0.15% of
    # |V| per iteration.
    "eco-steady": Workload(
        tenants=1, sessions=1, vertices=6000, k=8, workers=1, batch=(3, 9)
    ),
    # repro.eval.ablation.locality_study, the program's ECO-burst case:
    # 100 edge changes in one 128-ID window per iteration on a
    # circuit_graph(3000, 1.4); k as in eco-steady.  Unlike that study,
    # deleted nets also lie inside the window (see inputs.py).
    "eco-burst": Workload(
        tenants=1,
        sessions=1,
        vertices=3000,
        k=8,
        workers=1,
        batch=(100, 100),
        region=128,
        edge_ratio=1.4,
    ),
    # auto_modifier_range(1200) == (3, 8).  4 tenants on 2 workers put
    # two tenants' accounts on each device; 3 sessions per tenant give
    # every tenant sessions on both workers under round-robin placement.
    "serve-churn": Workload(
        tenants=4,
        sessions=3,
        vertices=1200,
        k=4,
        workers=2,
        batch=(3, 8),
        churn=True,
    ),
}

#: serve-churn request mix: (op, probability), each tied to the layer it
#: must load.  At ~6000 requests per 30 s run a session sees ~500.
CHURN_MIX = (
    # The only modifier-carrying request: half the traffic feeds the
    # journal and, through flushes, the engine.
    ("submit", 0.50),
    # One flush per two submits: each flush's apply window coalesces
    # about two queued batches.
    ("flush", 0.25),
    # About one explicit checkpoint per three flushes, which bounds the
    # journal tail a re-attach replays.
    ("checkpoint", 0.08),
    # The read-only path (partition hash, no engine work).
    ("digest", 0.07),
    # Every session is evicted ~50 times a run, so journal recovery on
    # re-attach is ~1 request in 11: most of the p98 tail.
    ("evict", 0.10),
)

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p98_ms": "ms",
    "mods_per_s": "1/s",
    "cut_pct": "%",
    "setup_s": "s",
}

#: Per-layer metrics: means per operation.  ``*_ms`` are span self
#: times (span duration minus its child spans), so they add up to
#: ``traced_ms``; ``untraced_ms`` is measured operation time outside
#: every span.  All but ``calibration_ms`` are scaled to the reference
#: machine by the run's median calibration sample.
PER_LAYER_UNITS = {
    # client.<op> self: encode, socket, event-loop wake-up, decode, and
    # the server's post-dispatch supervision and idle-eviction sweeps.
    "client_ms": "ms",
    # serve.<op> self: admission, modifier decode, session attach
    # (journal recovery of an evicted session), evict, cycle settling.
    "dispatch_ms": "ms",
    # serve.worker.execute self: stream ingest (queue + journal append).
    "worker_ms": "ms",
    # stream.apply-window self: coalescing, journal flush record, the
    # batch transaction, adaptive triggers and full re-partitions.
    "stream_ms": "ms",
    # stream.checkpoint self: checkpoint write and fsync.
    "checkpoint_ms": "ms",
    # serve.wal.append: serve manifest append and fsync.
    "wal_ms": "ms",
    # Engine phases of one incremental batch (Figure 2 of the paper).
    "modifiers_ms": "ms",
    "balance_ms": "ms",
    "refine_ms": "ms",
    "bookkeeping_ms": "ms",
    "cut_ms": "ms",
    # apply.batch self and any span not named above.
    "other_ms": "ms",
    "traced_ms": "ms",
    "untraced_ms": "ms",
    # Modeled device work settled to the tenant, and kernels launched.
    "device_mcycles": "Mcycles",
    "kernel_launches": "count",
    # The calibration loop's median time, unscaled: how fast the machine
    # ran.  A change that keeps the server busy between requests slows
    # the loop as well, and would show here.
    "calibration_ms": "ms",
}

_SPAN_LAYERS = {
    "serve.worker.execute": "worker_ms",
    "serve.wal.append": "wal_ms",
    "stream.apply-window": "stream_ms",
    "stream.checkpoint": "checkpoint_ms",
    "modifiers": "modifiers_ms",
    "bookkeeping": "bookkeeping_ms",
    "cut-size": "cut_ms",
}

_PREFIX_LAYERS = (
    ("client.", "client_ms"),
    ("balance", "balance_ms"),
    ("refine", "refine_ms"),
    ("serve.", "dispatch_ms"),
)


def layer_of(span_name: str) -> str:
    """The per-layer metric a span's self time counts toward."""
    layer = _SPAN_LAYERS.get(span_name)
    if layer is not None:
        return layer
    for prefix, layer in _PREFIX_LAYERS:
        if span_name.startswith(prefix):
            return layer
    return "other_ms"


class DrainingRecorder(TraceRecorder):
    """A shared trace recorder emptied after every operation, so a long
    traced run holds one operation's events at a time."""

    def drain(self) -> List[TraceEvent]:
        with self._lock:
            events, self._events = self._events, []
        return events


class Calibration:
    """A fixed loop of interpreter and small-array numpy work, the mix
    the program runs, timed between operations throughout a run.

    On a shared machine the same code runs up to 2x slower for spells
    of seconds to minutes (seen on 2-vCPU VMs with no CPU steal), and
    the loop slows with it.  Scaling each time by the loop's speed at
    that moment takes the machine's speed out of the figures and leaves
    the program's.  The loop runs in the caller's thread while the
    server waits for the next request.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(4096)
        self._index = rng.integers(0, 4096, 1024)
        #: perf_counter() at the end of each sample, and its seconds.
        self.ends: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        counts: Dict[int, int] = {}
        pairs = []
        for i in range(3000):
            counts[i % 257] = counts.get(i % 257, 0) + i
            pairs.append((i, i & 7))
        for _ in range(30):
            np.sum(self._values[self._index] * 2.0)
            np.argsort(self._values[:512])
            np.bincount(self._index, minlength=4096)
        end = time.perf_counter()
        self.ends.append(end)
        self.seconds.append(end - start)

    def scale(self, at) -> np.ndarray:
        """For each perf_counter() time in ``at``, the factor that turns
        seconds measured then into seconds on the reference machine."""
        if not self.seconds:
            raise RuntimeError("the calibration loop never ran")
        samples = np.asarray(self.seconds)
        w = CALIBRATION_WINDOW
        local = np.array(
            [
                np.median(samples[max(0, i - w) : i + w])
                for i in range(len(samples) + 1)
            ]
        )
        return REFERENCE_CALIBRATION_S / local[np.searchsorted(self.ends, at)]


class LayerTotals:
    """Per-layer sums over the measured operations."""

    def __init__(self) -> None:
        self.sums = {
            name: 0.0 for name in PER_LAYER_UNITS if name != "calibration_ms"
        }
        self.ops = 0

    def add(self, events: List[TraceEvent], wall: float) -> None:
        """Attribute one operation's spans (``wall`` = its measured
        seconds).  Every span's parent must be in ``events``."""
        spans = [e for e in events if e.kind == "span"]
        ids = {e.span_id for e in spans}
        covered: Dict[int, float] = defaultdict(float)
        roots = set()
        for e in spans:
            if e.parent is None:
                roots.add(e.span_id)
            elif e.parent in ids:
                covered[e.parent] += e.duration
            else:
                raise RuntimeError(
                    f"span {e.name!r} has no parent in its operation's trace"
                )
        sums = self.sums
        traced = 0.0
        for e in spans:
            sums[layer_of(e.name)] += 1e3 * (e.duration - covered[e.span_id])
            if e.parent is None:
                traced += e.duration
            elif e.parent in roots:
                # The server's op span carries the tenant's settled
                # device cycles (bit-exact with the metrics scrape).
                sums["device_mcycles"] += e.device_cycles / 1e6
        sums["kernel_launches"] += sum(
            e.count for e in events if e.kind == "kernel"
        )
        sums["traced_ms"] += 1e3 * traced
        sums["untraced_ms"] += 1e3 * (wall - traced)
        self.ops += 1

    def metrics(self, calibration: Calibration) -> dict:
        if self.ops == 0:
            raise RuntimeError("no operation completed; nothing to attribute")
        seconds = statistics.median(calibration.seconds)
        scale = REFERENCE_CALIBRATION_S / seconds
        values = {
            name: total / self.ops * (scale if name.endswith("_ms") else 1)
            for name, total in self.sums.items()
        }
        values["calibration_ms"] = 1e3 * seconds
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }


class Session:
    """One hosted session and the modifier stream that feeds it.

    The circuit depends only on the session's slot, never on the run
    seed: seeds vary the traffic, so runs on different seeds measure the
    same graphs and their spread is the traffic's and the machine's.
    """

    def __init__(
        self,
        tenant: str,
        name: str,
        spec: Workload,
        graph_seed: int,
        stream_seed: list,
    ):
        self.tenant = tenant
        self.name = name
        args = {
            "num_vertices": spec.vertices,
            "edge_ratio": spec.edge_ratio,
            "seed": graph_seed,
        }
        self.graph = {"generator": "circuit", "args": args}
        self.stream = EcoStream(circuit_graph(**args), stream_seed)
        #: Sequence number of the last modifier the server acknowledged.
        self.last_seq = -1

    @property
    def where(self) -> str:
        return f"{self.tenant}/{self.name}"


class Harness:
    """Boots the server, drives one workload, checks the outputs."""

    def __init__(self, spec: Workload, seed: int, trace: bool):
        self.spec = spec
        self.rng = np.random.default_rng([seed, 0])
        self.sessions = [
            Session(
                f"t{t}",
                f"s{s}",
                spec,
                graph_seed=t * spec.sessions + s,
                stream_seed=[seed, t, s],
            )
            for t in range(spec.tenants)
            for s in range(spec.sessions)
        ]
        self.recorder = DrainingRecorder("e2ebench") if trace else None
        self.layers = LayerTotals() if trace else None
        self.server: Optional[ServerThread] = None
        self.clients: Dict[str, ServeClient] = {}
        self.work_dir: Optional[Path] = None
        self.calibration = Calibration()
        #: Seconds of each set-up and of each completed operation, and
        #: the perf_counter() time each ended at.
        self.setup_seconds: List[float] = []
        self.setup_ends: List[float] = []
        self.latencies: List[float] = []
        self.op_ends: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.modifiers = 0
        self.cut_pct: List[float] = []
        self.problems: List[str] = []
        #: The batch of the submit in flight: already applied to its
        #: stream's reference graph, not yet acknowledged by the server.
        self.unacked: Optional[Tuple[Session, list]] = None
        self._churn_ops = [op for op, _p in CHURN_MIX]
        self._churn_p = [p for _op, p in CHURN_MIX]

    # -- lifecycle -----------------------------------------------------------

    def setup(self, work_dir: Path) -> None:
        """Boot the server the measurement runs against."""
        self.work_dir = work_dir
        self.server, self.clients, seconds = self._boot(work_dir / "main")
        self.setup_seconds.append(seconds)
        self.setup_ends.append(time.perf_counter())
        if self.recorder is not None:
            self.recorder.drain()

    def _boot(self, data_dir: Path):
        """Start a server and create every session on it; returns the
        server, a client per tenant, and the seconds that took."""
        start = time.perf_counter()
        server = ServerThread(
            ServerConfig(
                data_dir=str(data_dir),
                workers=self.spec.workers,
                trace_recorder=self.recorder,
            )
        ).start()
        clients: Dict[str, ServeClient] = {}
        try:
            for session in self.sessions:
                if session.tenant not in clients:
                    clients[session.tenant] = ServeClient(
                        "127.0.0.1",
                        server.tcp_port,
                        tenant=session.tenant,
                        trace_recorder=self.recorder,
                    )
                clients[session.tenant].create(
                    session.name, session.graph, k=self.spec.k
                )
        except BaseException:
            _stop(server, clients)
            raise
        return server, clients, time.perf_counter() - start

    def _time_setup(self) -> None:
        """Time one more set-up, on a throwaway server."""
        data_dir = self.work_dir / f"setup{len(self.setup_seconds)}"
        server, clients, seconds = self._boot(data_dir)
        self.setup_seconds.append(seconds)
        self.setup_ends.append(time.perf_counter())
        _stop(server, clients)

    def _client(self, session: Session) -> ServeClient:
        return self.clients[session.tenant]

    def shutdown(self) -> None:
        if self.server is not None:
            _stop(self.server, self.clients)
            self.server = None
            self.clients = {}

    # -- measurement ---------------------------------------------------------

    def measure(self, seconds: float, setups: int) -> None:
        """Run operations back to back for ``seconds`` of wall time.

        Pauses ``setups`` times, evenly spaced, to time a set-up on a
        throwaway server; the pauses do not count toward ``seconds``.
        Runs the calibration loop every CALIBRATE_EVERY seconds.
        """
        operation = self._churn_op if self.spec.churn else self._eco_op
        start = time.perf_counter()
        paused = 0.0
        next_sample = start
        while True:
            now = time.perf_counter()
            elapsed = now - start - paused
            if elapsed >= seconds:
                break
            if now >= next_sample:
                self.calibration.sample()
                next_sample = self.calibration.ends[-1] + CALIBRATE_EVERY
                continue
            timed = len(self.setup_seconds) - 1
            if timed < setups and elapsed >= timed * seconds / setups:
                pause = time.perf_counter()
                self._time_setup()
                paused += time.perf_counter() - pause
                continue
            self.attempted += 1
            try:
                wall, modifiers = operation()
            except ServeError as err:
                self.failed += 1
                print(f"e2ebench: operation failed: {err}", file=sys.stderr)
                for client in self.clients.values():
                    client.reconnect()
                self._resync()
                if self.recorder is not None:
                    self.recorder.drain()
                continue
            self.latencies.append(wall)
            self.op_ends.append(time.perf_counter())
            self.modifiers += modifiers
            if self.layers is not None:
                self.layers.add(self.recorder.drain(), wall)

    def _draw(self, session: Session) -> list:
        lo, hi = self.spec.batch
        count = int(self.rng.integers(lo, hi + 1))
        if self.spec.region:
            return session.stream.region_batch(count, self.spec.region)
        return session.stream.batch(count)

    def _submit(self, session: Session, batch: list) -> None:
        self.unacked = (session, batch)
        reply = self._client(session).submit(session.name, batch)
        session.last_seq = reply["last_seq"]
        self.unacked = None

    def _resync(self) -> None:
        """After a failed submit, bring the server level with the
        reference graph: the server's next sequence number tells how
        much of the batch landed, and the rest is sent again."""
        if self.unacked is None:
            return
        session, batch = self.unacked
        next_seq = self._client(session).attach(session.name)["next_seq"]
        landed = next_seq - (session.last_seq + 1)
        if not 0 <= landed <= len(batch):
            self.problems.append(
                f"{session.where}: {landed} of a failed {len(batch)}-"
                "modifier submit landed"
            )
            self.unacked = None
            return
        session.last_seq += landed
        if landed < len(batch):
            self._submit(session, batch[landed:])
        self.unacked = None

    def _eco_op(self) -> Tuple[float, int]:
        """One ECO iteration: submit a batch, flush it."""
        session = self.sessions[0]
        client = self._client(session)
        batch = self._draw(session)
        start = time.perf_counter()
        self._submit(session, batch)
        reply = client.flush(session.name, drain=True)
        wall = time.perf_counter() - start
        self._check_flush(session, reply)
        return wall, len(batch)

    def _churn_op(self) -> Tuple[float, int]:
        """One request of CHURN_MIX to a uniformly chosen session."""
        session = self.sessions[int(self.rng.integers(len(self.sessions)))]
        op = self._churn_ops[
            int(self.rng.choice(len(self._churn_ops), p=self._churn_p))
        ]
        client = self._client(session)
        batch = self._draw(session) if op == "submit" else []
        start = time.perf_counter()
        reply = None
        if op == "submit":
            self._submit(session, batch)
        elif op == "flush":
            reply = client.flush(session.name, drain=True)
        elif op == "checkpoint":
            client.checkpoint(session.name)
        elif op == "digest":
            client.digest(session.name)
        else:
            client.evict(session.name)
        wall = time.perf_counter() - start
        if reply is not None:
            self._check_flush(session, reply)
        return wall, len(batch)

    def _check_flush(self, session: Session, reply: dict) -> None:
        if reply["applied_seq"] != session.last_seq or reply["queue_depth"]:
            self.problems.append(
                f"{session.where}: flush applied through seq "
                f"{reply['applied_seq']} of {session.last_seq}, "
                f"{reply['queue_depth']} still queued"
            )
        self.cut_pct.append(
            100.0 * reply["cut"] / max(session.stream.edges, 1)
        )

    # -- results -------------------------------------------------------------

    def short_samples(self) -> List[str]:
        """The end-to-end metrics this run has too few samples for."""
        problems = []
        need = TAIL_SAMPLES * 100 // (100 - TAIL_PERCENTILE)
        if len(self.latencies) < need:
            problems.append(
                f"{len(self.latencies)} operations completed; "
                f"latency_p{TAIL_PERCENTILE}_ms needs {need}"
            )
        if len(self.cut_pct) < CUT_SAMPLES:
            problems.append(
                f"{len(self.cut_pct)} flush replies; cut_pct needs "
                f"{CUT_SAMPLES}"
            )
        return problems

    def end_to_end(self) -> dict:
        """The end-to-end metrics, every time scaled to the reference
        machine by the calibration samples around it."""
        if not self.latencies:
            raise RuntimeError("no operation completed")
        scale = self.calibration.scale
        seconds = np.asarray(self.latencies) * scale(self.op_ends)
        setups = np.asarray(self.setup_seconds) * scale(self.setup_ends)
        ms = 1e3 * seconds
        values = {
            "latency_p50_ms": float(np.percentile(ms, 50)),
            "latency_p98_ms": float(np.percentile(ms, TAIL_PERCENTILE)),
            "mods_per_s": self.modifiers / float(np.sum(seconds)),
            "cut_pct": float(np.mean(self.cut_pct[:CUT_SAMPLES])),
            "setup_s": float(np.median(setups)),
        }
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    def verify(self) -> List[str]:
        """Drain every session and check its final state; returns the
        problems found (empty when every output is correct)."""
        problems = list(self.problems[:10])
        if len(self.problems) > 10:
            problems.append(f"... and {len(self.problems) - 10} more")
        registry = self.server.server.registry
        for session in self.sessions:
            client = self._client(session)
            client.flush(session.name, drain=True)
            digest = client.digest(session.name)
            live = registry.get(session.tenant, session.name).session
            problems += check_session(live, session, digest)
        return problems


def _stop(server: ServerThread, clients: Dict[str, ServeClient]) -> None:
    for client in clients.values():
        client.close()
    server.stop()


def check_session(live, session: Session, digest: dict) -> List[str]:
    """Check a hosted session against its stream's reference graph."""
    where = session.where
    ref = session.stream.host
    config = live.partitioner.config
    labels = np.asarray(live.partition)
    problems = []
    if digest["applied_seq"] != session.last_seq:
        problems.append(
            f"{where}: applied through seq {digest['applied_seq']}, "
            f"last acknowledged {session.last_seq}"
        )
    if partition_sha256(labels) != digest["sha256"]:
        problems.append(f"{where}: digest reply does not hash the labels")
    active = ref.active_vertices()
    engine = live.partitioner.graph.to_host_graph()
    if engine.active_vertices() != active:
        problems.append(f"{where}: active vertices differ from the reference")
    elif any(engine.neighbors(u) != ref.neighbors(u) for u in active):
        problems.append(f"{where}: adjacency differs from the reference")
    parts = labels[active]
    inactive = np.ones(len(labels), dtype=bool)
    inactive[active] = False
    if (
        parts.min() < 0
        or parts.max() >= config.k
        or np.any(labels[inactive] != UNASSIGNED)
    ):
        problems.append(f"{where}: labels are not a k-way partition")
        return problems
    weights = np.bincount(
        parts, weights=[ref.vwgt[u] for u in active], minlength=config.k
    )
    # Incremental balancing keeps parts under W_pmax of the live weight
    # at the time of each move; cell deletions lower that weight later
    # without re-tightening the parts.  So the bound is W_pmax of the
    # heaviest the graph has been: deletions explain nothing beyond it.
    limit = max_partition_weight(
        session.stream.peak_weight, config.k, config.epsilon
    )
    if weights.max() > limit:
        problems.append(
            f"{where}: heaviest part weighs {int(weights.max())}, over "
            f"{limit}, W_pmax of the peak live weight"
        )
    csr, id_map = ref.to_csr()
    cut = cut_size_csr(csr, labels[id_map])
    if cut != digest["cut"]:
        problems.append(
            f"{where}: reported cut {digest['cut']}, recomputed {cut}"
        )
    return problems
