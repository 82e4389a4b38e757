"""Serve gate: the ``repro.serve`` contracts, enforced end to end.

Boots in-process :class:`~repro.serve.server.ServerThread`\\ s and runs
three stage groups in order; each group ends with its own verdict line.

**Hosting** (verdict ``serve gate``) drives a seeded three-tenant
workload over **one** shared simulated device and asserts:

* **bit-identical hosting** — each tenant's final partition sha256
  equals a standalone :class:`~repro.stream.session.StreamSession` run
  of the same seeded workload (interleaving three tenants on a shared
  device must not perturb anyone's result), including across a
  checkpoint-evict-reattach cycle for one tenant;
* **attribution sums** — per-tenant device-cycle charges on each
  worker sum exactly (``math.isclose``) to that worker's total, and
  every tenant's charge is nonzero;
* **valid scrape** — ``GET /metrics`` parses as Prometheus text format
  0.0.4 (HELP/TYPE discipline, sample syntax, finite values) and
  carries one ``tenant``-labeled sample per tenant for the per-tenant
  series;
* **no shedding at low load** — the baseline workload finishes with a
  zero global shed counter and zero per-tenant sheds;
* **typed shedding under overload** — against a second server with a
  tiny backlog watermark, submits are rejected with the retryable
  ``shed-overload`` code, the shed counter is nonzero, and the
  flush-and-resubmit retry loop still lands every modifier: the same
  overload scenario run twice produces the same digest, and an
  evict/re-attach round-trip preserves it (sheds never corrupt state).

**Durability** (verdict ``serve chaos gate``) drives seeded fault
sweeps over a two-tenant workload and asserts:

* **crash convergence** — a server killed by an injected
  ``crash_after_wal`` fault (process dies between the durable write and
  the ack) and restarted with ``recover=True`` finishes the identical
  workload with the *same* partition sha256 per tenant (strict
  equality) and the same per-tenant ledger cycle totals
  (``math.isclose``: settled-at-checkpoint + deterministic replay must
  equal the uncrashed run's figure) as an uncrashed baseline;
* **transport fault sweep** — with ``torn_response``,
  ``drop_connection``, and ``delay_response`` faults armed one run at a
  time, the retrying client (seeded-jitter backoff + ``next_seq``
  resync) still converges bit-identically and cycle-identically to the
  fault-free reference, and every armed fault actually fired;
* **worker failover** — killing one of two device workers mid-traffic
  (the ``kill-worker`` chaos op) leaves every session intact on the
  survivor, converges to the fault-free digest, keeps the per-worker
  attribution sums exact, reports degraded health (``/healthz`` 503),
  and counts the failover in the recovery metrics;
* **zero quarantine leaks** — the workload is clean by construction, so
  any nonzero quarantine/dead-letter gauge after any run means fault
  handling corrupted a batch.

Windows form only from the deterministic ``target_batch_size``
auto-flush (no mid-traffic manual flushes), so window boundaries —
and therefore partitions and cycle charges — depend on the modifier
stream alone, never on where a crash landed.

**Observability** (verdict ``serve obs gate``) drives a smaller copy of
the two-tenant workload with one shared
:class:`~repro.obs.distrib.TraceRecorder` wired into both the clients
and the server, and asserts:

* **trace connectivity** — every recorded span belongs to a trace;
  each trace has exactly one root, the ``client.<op>`` span; every
  other span's parent resolves inside the same trace; the trace count
  equals the number of client calls issued; and at least one submit
  trace demonstrably spans all four roles (client span → server op
  span → worker execute span → folded engine spans);
* **exact attribution** — per tenant, the device cycles summed over
  the ``serve.<op>`` op spans equal the scraped
  ``serve_tenant_device_cycles_total`` *bit-exactly* (the server
  mirrors the same settled float into both);
* **deterministic structure** — two runs of the identical seeded
  workload produce bit-identical ``structure_digest()`` views (host
  start/duration are the only fields allowed to differ);
* **live dashboard** — ``GET /debug/dashboard`` returns a
  self-contained HTML page whose embedded dataset agrees exactly with
  an independent parse of the ``/metrics`` scrape;
* **flight recorder** — a chaos ``kill-worker`` leaves a
  ``flightrec-*.jsonl`` dump in the data dir that
  :func:`~repro.obs.distrib.validate_flight` (the ``repro-obs
  flightrec`` checker) accepts, naming the dead worker.

Writes ``results/serve.txt`` (consumed by
``tools/build_experiments_md.py``) and ``results/dashboard.html``
(uploaded by CI).

Usage::

    python tools/serve_gate.py

Exit status 0 = pass, 1 = contract violation.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.graph.modifiers import EdgeDelete, EdgeInsert  # noqa: E402
from repro.obs.dashboard import (  # noqa: E402
    DASHBOARD_SCHEMA,
    dashboard_data,
    extract_data_block,
)
from repro.obs.distrib import (  # noqa: E402
    TraceRecorder,
    load_flight,
    validate_flight,
)
from repro.partition.config import PartitionConfig  # noqa: E402
from repro.serve import (  # noqa: E402
    ServeClient,
    ServerConfig,
    ServerThread,
    ShedPolicy,
    build_graph,
    partition_sha256,
)
from repro.stream.session import StreamSession  # noqa: E402
from repro.utils.errors import ServeError  # noqa: E402
from repro.utils.faultinject import ServeFaultPlan  # noqa: E402

RESULTS = REPO_ROOT / "results"
HOST = "127.0.0.1"

#: The seeded three-tenant hosting workload: distinct graphs, seeds,
#: and stream lengths so a cross-tenant state leak cannot cancel out.
TENANTS = {
    "acme": {
        "graph": {
            "generator": "circuit",
            "args": {"num_vertices": 400, "edge_ratio": 1.4, "seed": 11},
        },
        "k": 4,
        "seed": 3,
        "modifiers": 120,
        "mod_seed": 101,
    },
    "globex": {
        "graph": {
            "generator": "random",
            "args": {"num_vertices": 300, "edge_ratio": 2.0, "seed": 5},
        },
        "k": 3,
        "seed": 9,
        "modifiers": 90,
        "mod_seed": 202,
    },
    "initech": {
        "graph": {
            "generator": "community",
            "args": {"num_vertices": 350, "edges_per_vertex": 4, "seed": 2},
        },
        "k": 5,
        "seed": 1,
        "modifiers": 100,
        "mod_seed": 303,
    },
}

#: Tenant that additionally goes through checkpoint -> evict ->
#: transparent re-attach mid-stream.
EVICTED_TENANT = "globex"

#: Overload scenario: a deliberately tiny watermark so a short stream
#: trips the shedder.
OVERLOAD = {
    "high_watermark": 8,
    "low_watermark": 0,
    "modifiers": 64,
    "chunk": 4,
}


def two_tenants(acme: tuple[int, int], bravo: tuple[int, int]) -> dict:
    """The seeded two-tenant workload, sized ``(num_vertices,
    modifiers)`` per tenant.

    Traffic is *clean* by construction (only inserts of edges absent
    from graph and stream), because the cycle-parity contract is exact
    only for poison-free streams: a degraded window is a checkpoint
    barrier whose post-checkpoint quarantine work recovery
    intentionally does not replay.
    """
    return {
        "acme": {
            "graph": {
                "generator": "circuit",
                "args": {
                    "num_vertices": acme[0], "edge_ratio": 1.3, "seed": 11,
                },
            },
            "k": 3,
            "seed": 4,
            "modifiers": acme[1],
            "stride": 17,
        },
        "bravo": {
            "graph": {
                "generator": "community",
                "args": {
                    "num_vertices": bravo[0], "edges_per_vertex": 4, "seed": 6,
                },
            },
            "k": 4,
            "seed": 9,
            "modifiers": bravo[1],
            "stride": 23,
        },
    }


#: Durability workload (fault sweeps) and the smaller traced copy.
DURABLE = two_tenants(acme=(96, 42), bravo=(80, 36))
TRACED = two_tenants(acme=(72, 24), bravo=(64, 18))

#: Submit slice size == scheduler target_batch_size: windows form from
#: the modifier count alone.
CHUNK = 6

#: Engine-touching ops the traced workload issues per tenant, in order.
WORKLOAD_OPS = ("create", "submit", "flush", "digest")


def clean_modifiers(spec: dict) -> list:
    """Deterministic insert-only stream of edges that do not exist in
    the graph and never repeat within the stream."""
    graph = build_graph(spec["graph"])
    nv = spec["graph"]["args"]["num_vertices"]
    stride = spec["stride"]
    out: list = []
    seen: set = set()
    candidate = 0
    while len(out) < spec["modifiers"]:
        u = candidate % nv
        v = (u + stride + candidate // nv) % nv
        candidate += 1
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or graph.has_edge(u, v):
            continue
        seen.add(key)
        out.append(EdgeInsert(u=u, v=v))
    return out


DURABLE_STREAMS = {name: clean_modifiers(DURABLE[name]) for name in DURABLE}
TRACED_STREAMS = {name: clean_modifiers(TRACED[name]) for name in TRACED}


def make_clients(
    port: int, tenants: dict, recorder: TraceRecorder | None = None
) -> dict:
    return {
        name: ServeClient(
            HOST, port, tenant=name, retry_seed=7, trace_recorder=recorder
        )
        for name in sorted(tenants)
    }


def create_sessions(clients: dict, tenants: dict) -> None:
    for name in sorted(tenants):
        spec = tenants[name]
        clients[name].create(
            "s0",
            spec["graph"],
            k=spec["k"],
            seed=spec["seed"],
            target_batch_size=CHUNK,
        )


def close_clients(clients: dict) -> None:
    for client in clients.values():
        client.close()


def drain_digests(clients: dict) -> dict:
    """Drain every tenant's session; returns tenant -> sha256."""
    digests = {}
    for name in sorted(clients):
        clients[name].flush("s0", drain=True)
        digests[name] = clients[name].digest("s0")["sha256"]
    return digests


def http_get(port: int, path: str) -> tuple[str, str]:
    """GET ``path`` from the HTTP listener; returns (Content-Type, body)."""
    with urllib.request.urlopen(
        f"http://{HOST}:{port}{path}", timeout=30
    ) as response:
        return (
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


# -- hosting: bit-identity, attribution, scrape, shedding -----------------------


def make_modifiers(count: int, num_vertices: int, seed: int) -> list:
    """Seeded modifier stream: mostly inserts, some deletes of earlier
    inserts (exercises coalescing through the serving path)."""
    rng = np.random.default_rng(seed)
    out = []
    inserted: list[tuple[int, int]] = []
    for i in range(count):
        if inserted and i % 7 == 6:
            u, v = inserted[int(rng.integers(0, len(inserted)))]
            out.append(EdgeDelete(u=u, v=v))
            continue
        u = int(rng.integers(0, num_vertices))
        v = int(rng.integers(0, num_vertices))
        if u == v:
            v = (v + 1) % num_vertices
        out.append(EdgeInsert(u=u, v=v))
        inserted.append((u, v))
    return out


def standalone_digest(spec: dict, journal_dir: str) -> str:
    """The reference run: one private StreamSession, same stream."""
    csr = build_graph(spec["graph"])
    session = StreamSession(
        csr,
        PartitionConfig(k=spec["k"], seed=spec["seed"]),
        journal_dir=journal_dir,
        policy="reject",
    )
    session.start()
    nv = spec["graph"]["args"]["num_vertices"]
    for modifier in make_modifiers(
        spec["modifiers"], nv, spec["mod_seed"]
    ):
        session.submit(modifier)
    session.drain()
    digest = partition_sha256(session.partition)
    session.close()
    return digest


_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME})(\{{[^{{}}]*\}})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$"
)
_LABEL_RE = re.compile(
    rf'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def validate_prometheus(text: str) -> tuple[list[str], dict]:
    """Validate Prometheus text format 0.0.4; return (failures, samples).

    ``samples`` maps metric name -> list of (labels-dict, value).
    """
    failures: list[str] = []
    typed: dict[str, str] = {}
    helped: set[str] = set()
    samples: dict[str, list] = {}
    if text and not text.endswith("\n"):
        failures.append("scrape does not end with a newline")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not re.fullmatch(_METRIC_NAME, parts[2]):
                failures.append(f"line {lineno}: malformed HELP: {line!r}")
                continue
            if parts[2] in helped:
                failures.append(
                    f"line {lineno}: duplicate HELP for {parts[2]}"
                )
            helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped",
            ):
                failures.append(f"line {lineno}: malformed TYPE: {line!r}")
                continue
            if parts[2] in typed:
                failures.append(
                    f"line {lineno}: duplicate TYPE for {parts[2]}"
                )
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            failures.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name, labelblock, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            failures.append(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        labels = {}
        if labelblock:
            body = labelblock[1:-1].rstrip(",")
            parsed = _LABEL_RE.findall(body)
            stripped = re.sub(_LABEL_RE, "", body).replace(",", "").strip()
            if stripped:
                failures.append(
                    f"line {lineno}: unparseable label block {labelblock!r}"
                )
            labels = dict(parsed)
        try:
            parsed_value = float(value)
        except ValueError:
            failures.append(f"line {lineno}: bad sample value {value!r}")
            continue
        samples.setdefault(name, []).append((labels, parsed_value))
    return failures, samples


def check_multi_tenant(report: list) -> list[str]:
    """Baseline scenario: 3 tenants, 1 shared device, bit-identity +
    attribution + scrape validity + zero shed."""
    failures: list[str] = []
    with ServerThread(
        ServerConfig(workers=1)
    ) as server_thread, tempfile.TemporaryDirectory() as tmp:
        clients = make_clients(server_thread.tcp_port, TENANTS)
        streams = {}
        for name in sorted(TENANTS):
            spec = TENANTS[name]
            clients[name].create(
                "s0", spec["graph"], k=spec["k"], seed=spec["seed"]
            )
            nv = spec["graph"]["args"]["num_vertices"]
            streams[name] = make_modifiers(
                spec["modifiers"], nv, spec["mod_seed"]
            )
        # Interleave submits round-robin so the tenants genuinely share
        # the device rather than running back to back.
        cursors = {name: 0 for name in sorted(TENANTS)}
        chunk = 10
        progressed = True
        while progressed:
            progressed = False
            for name in sorted(TENANTS):
                cur = cursors[name]
                batch = streams[name][cur : cur + chunk]
                if not batch:
                    continue
                clients[name].submit("s0", batch)
                cursors[name] = cur + len(batch)
                progressed = True
                if name == EVICTED_TENANT and cur == chunk * 3:
                    clients[name].checkpoint("s0")
                    clients[name].evict("s0")
                    # Next touch transparently re-attaches via recover.
        digests = drain_digests(clients)

        for name in sorted(TENANTS):
            ref = standalone_digest(
                TENANTS[name], f"{tmp}/{name}-standalone"
            )
            tag = " (with evict/re-attach)" if name == EVICTED_TENANT else ""
            if digests[name] != ref:
                failures.append(
                    f"tenant {name!r}{tag}: hosted sha256 "
                    f"{digests[name][:16]} != standalone {ref[:16]}"
                )
            report.append(
                f"  {name:<8} sha256={digests[name][:16]}.. "
                f"standalone={'match' if digests[name] == ref else 'MISMATCH'}"
                f"{tag}"
            )

        stats = clients["acme"].stats()
        for worker in stats["workers"]:
            by_tenant = worker["cycles_by_tenant"]
            total = worker["total_cycles"]
            attributed = sum(by_tenant.values())
            if not math.isclose(attributed, total, rel_tol=1e-9):
                failures.append(
                    f"worker {worker['index']}: per-tenant cycles sum "
                    f"{attributed} != total {total}"
                )
            missing = sorted(set(TENANTS) - set(by_tenant))
            if missing:
                failures.append(
                    f"worker {worker['index']}: no cycles attributed "
                    f"to {missing}"
                )
            zero = sorted(t for t, c in by_tenant.items() if c <= 0)
            if zero:
                failures.append(
                    f"worker {worker['index']}: zero cycle charge "
                    f"for {zero}"
                )
            report.append(
                f"  worker {worker['index']}: total={total:.0f} cycles, "
                f"attribution residual="
                f"{abs(attributed - total):.3g}"
            )

        content_type, body = http_get(server_thread.http_port, "/metrics")
        if "version=0.0.4" not in content_type:
            failures.append(
                f"/metrics Content-Type {content_type!r} does not "
                "declare text format 0.0.4"
            )
        prom_failures, samples = validate_prometheus(body)
        failures.extend(f"/metrics: {f}" for f in prom_failures)
        labeled = samples.get("serve_tenant_requests_total", [])
        seen_tenants = sorted(
            labels.get("tenant", "") for labels, _ in labeled
        )
        if seen_tenants != sorted(TENANTS):
            failures.append(
                "per-tenant series serve_tenant_requests_total carries "
                f"labels {seen_tenants}, expected {sorted(TENANTS)}"
            )
        report.append(
            f"  /metrics: {len(body.splitlines())} lines, "
            f"{len(samples)} metric names, tenants={seen_tenants}"
        )

        shed_total = sum(v for _, v in samples.get("serve_shed_total", []))
        tenant_shed = sum(
            v for _, v in samples.get("serve_tenant_shed_total", [])
        )
        if shed_total != 0 or tenant_shed != 0:
            failures.append(
                f"low-load run shed requests (global={shed_total}, "
                f"tenant={tenant_shed}); expected zero"
            )
        report.append(f"  low-load shed counters: global={shed_total:.0f} "
                      f"tenant={tenant_shed:.0f}")
        close_clients(clients)
    return failures


def _run_overload_scenario() -> tuple[str, int, int, str, str]:
    """One overload run; returns (digest, sheds_seen, shed_counter,
    digest_before_evict, digest_after_reattach)."""
    spec = TENANTS["acme"]
    nv = spec["graph"]["args"]["num_vertices"]
    modifiers = make_modifiers(OVERLOAD["modifiers"], nv, spec["mod_seed"])
    config = ServerConfig(
        workers=1,
        shed=ShedPolicy(
            high_watermark=OVERLOAD["high_watermark"],
            low_watermark=OVERLOAD["low_watermark"],
        ),
    )
    sheds_seen = 0
    with ServerThread(config) as server_thread:
        with ServeClient(
            HOST, server_thread.tcp_port, tenant="acme"
        ) as client:
            client.create(
                "s0", spec["graph"], k=spec["k"], seed=spec["seed"]
            )
            pending = list(modifiers)
            while pending:
                batch = pending[: OVERLOAD["chunk"]]
                try:
                    client.submit("s0", batch)
                except ServeError as err:
                    if err.code != "shed-overload":
                        raise
                    if not err.retryable:
                        raise ServeError(
                            "shed-overload response not marked retryable"
                        )
                    sheds_seen += 1
                    client.flush("s0", drain=True)
                    continue  # resubmit the same slice
                pending = pending[OVERLOAD["chunk"]:]
            client.flush("s0", drain=True)
            digest = client.digest("s0")["sha256"]
            stats = client.stats()
            shed_counter = int(
                stats["server_metrics"].get("serve_shed_total", 0)
            )
            client.evict("s0")
            after = client.digest("s0")["sha256"]
    return digest, sheds_seen, shed_counter, digest, after


def check_overload(report: list) -> list[str]:
    """Overload scenario: typed retryable sheds, convergent retries."""
    failures: list[str] = []
    first = _run_overload_scenario()
    second = _run_overload_scenario()
    digest, sheds_seen, shed_counter, before, after = first
    if sheds_seen == 0:
        failures.append(
            "overload run saw no shed-overload rejections "
            f"(watermark={OVERLOAD['high_watermark']})"
        )
    if shed_counter == 0:
        failures.append("serve_shed_total stayed zero under overload")
    if after != before:
        failures.append(
            "evict/re-attach after shedding changed the partition "
            f"({before[:16]} -> {after[:16]})"
        )
    if second[0] != digest:
        failures.append(
            "two identical overload runs diverged "
            f"({digest[:16]} vs {second[0][:16]}); "
            "shedding corrupted state"
        )
    report.append(
        f"  overload: {sheds_seen} typed sheds (client), "
        f"serve_shed_total={shed_counter}, "
        f"rerun={'identical' if second[0] == digest else 'DIVERGED'}, "
        f"evict-roundtrip={'ok' if after == before else 'CORRUPT'}"
    )
    return failures


def check_hosting(report: list) -> list[str]:
    report.append("multi-tenant bit-identity (3 tenants, 1 shared device):")
    failures = check_multi_tenant(report)
    report.append("overload shedding:")
    failures.extend(check_overload(report))
    return failures


# -- durability: crash recovery, transport faults, failover ---------------------


def drive(clients: dict, cursors: dict, ends: dict | None = None) -> None:
    """Interleave each tenant's remaining stream in CHUNK slices, up to
    ``ends[tenant]`` (default: the whole stream).

    ``cursors`` maps tenant -> modifiers already accepted by the
    server; on a post-crash resume it comes straight from each
    session's ``next_seq``, which for this append-only workload *is*
    the stream position.
    """
    progressed = True
    while progressed:
        progressed = False
        for name in sorted(DURABLE):
            cur = cursors[name]
            end = ends[name] if ends else len(DURABLE_STREAMS[name])
            batch = DURABLE_STREAMS[name][cur : min(cur + CHUNK, end)]
            if not batch:
                continue
            clients[name].submit_with_retry("s0", batch)
            cursors[name] = cur + len(batch)
            progressed = True


def finish(clients: dict) -> tuple[dict, dict, dict]:
    """Drain, digest, and read per-tenant cycle totals + resilience."""
    digests = drain_digests(clients)
    stats = clients["acme"].stats()
    cycles = {name: 0.0 for name in sorted(DURABLE)}
    for worker in stats["workers"]:
        for tenant, charge in worker["cycles_by_tenant"].items():
            cycles[tenant] += charge
    resilience = {
        name: clients[name].metrics()["metrics"] for name in sorted(DURABLE)
    }
    return digests, cycles, resilience


def check_no_quarantine(
    resilience: dict, scenario: str, failures: list
) -> None:
    for name in sorted(resilience):
        snapshot = resilience[name]
        for metric in (
            "serve_tenant_quarantined_modifiers",
            "serve_tenant_dead_letters",
        ):
            value = snapshot.get(metric, 0)
            if value:
                failures.append(
                    f"{scenario}: tenant {name!r} leaked {metric}={value} "
                    "on a clean workload"
                )


def run_workload(config: ServerConfig) -> tuple[dict, dict, dict]:
    """One uninterrupted run of the full workload on a fresh server."""
    with ServerThread(config) as thread:
        clients = make_clients(thread.tcp_port, DURABLE)
        create_sessions(clients, DURABLE)
        drive(clients, {name: 0 for name in sorted(DURABLE)})
        result = finish(clients)
        close_clients(clients)
    return result


def check_crash_recovery(
    baseline: tuple, report: list
) -> list[str]:
    failures: list[str] = []
    base_digests, base_cycles, _ = baseline
    plan = ServeFaultPlan(seed=20250808)
    plan.arm("crash_after_wal", op="submit", after_matches=5)
    with tempfile.TemporaryDirectory() as data_dir:
        thread = ServerThread(
            ServerConfig(
                workers=2,
                data_dir=data_dir,
                enable_chaos=True,
                fault_plan=plan,
            )
        ).start()
        clients = make_clients(thread.tcp_port, DURABLE)
        create_sessions(clients, DURABLE)
        cursors = {name: 0 for name in sorted(DURABLE)}
        crashed = False
        try:
            drive(clients, cursors)
        except (ServeError, OSError):
            # The armed fault killed the server between the durable
            # write and the ack; the in-flight submit's fate is exactly
            # what recovery must resolve.
            crashed = True
        close_clients(clients)
        if crashed:
            thread.join_crashed()
        if not crashed or not thread.crashed:
            # Stop a server the fault never took down before its data
            # dir is deleted.
            thread.stop()
            failures.append(
                "crash_after_wal fault never took the server down "
                f"(client saw crash: {crashed}, "
                f"server crashed: {thread.crashed})"
            )
            return failures
        if plan.armed:
            failures.append(
                f"armed faults never fired: "
                f"{[f.kind for f in plan.armed]}"
            )

        # Restart on the same data dir and finish the workload.
        with ServerThread(
            ServerConfig(workers=2, data_dir=data_dir, recover=True)
        ) as recovered:
            clients = make_clients(recovered.tcp_port, DURABLE)
            recoveries = {}
            for name in sorted(DURABLE):
                info = clients[name].attach("s0")
                # next_seq is the resume cursor: exactly the accepted
                # prefix, whether or not its ack ever arrived.
                cursors[name] = info["next_seq"]
                recoveries[name] = info["recoveries"]
            drive(clients, cursors)
            digests, cycles, resilience = finish(clients)
            tenant_recoveries = {
                name: resilience[name].get(
                    "serve_tenant_recoveries_total", 0
                )
                for name in sorted(DURABLE)
            }
            close_clients(clients)

    for name in sorted(DURABLE):
        match = digests[name] == base_digests[name]
        close = math.isclose(
            cycles[name], base_cycles[name], rel_tol=1e-6
        )
        if not match:
            failures.append(
                f"crash recovery: tenant {name!r} digest "
                f"{digests[name][:16]} != baseline "
                f"{base_digests[name][:16]}"
            )
        if not close:
            failures.append(
                f"crash recovery: tenant {name!r} cycles "
                f"{cycles[name]} != baseline {base_cycles[name]}"
            )
        if recoveries[name] < 1:
            failures.append(
                f"crash recovery: tenant {name!r} session reports "
                "zero recoveries after a crash-restart"
            )
        if tenant_recoveries[name] < 1:
            failures.append(
                f"crash recovery: serve_tenant_recoveries_total stayed "
                f"zero for {name!r}"
            )
        report.append(
            f"  {name:<6} digest={'match' if match else 'MISMATCH'} "
            f"cycles={'match' if close else 'MISMATCH'} "
            f"(residual {abs(cycles[name] - base_cycles[name]):.3g}) "
            f"recoveries={recoveries[name]}"
        )
    check_no_quarantine(resilience, "crash recovery", failures)
    return failures


#: (kind, op, arm kwargs) — one server run per armed fault.
TRANSPORT_FAULTS = (
    ("torn_response", "submit", {"after_matches": 3}),
    ("drop_connection", "submit", {"after_matches": 4}),
    ("delay_response", "submit", {"after_matches": 2, "delay": 0.02}),
)


def check_transport_faults(
    baseline: tuple, report: list
) -> list[str]:
    failures: list[str] = []
    base_digests, base_cycles, _ = baseline
    for kind, op, kwargs in TRANSPORT_FAULTS:
        plan = ServeFaultPlan(seed=41)
        plan.arm(kind, op=op, **kwargs)
        with tempfile.TemporaryDirectory() as data_dir:
            digests, cycles, resilience = run_workload(
                ServerConfig(
                    workers=2,
                    data_dir=data_dir,
                    enable_chaos=True,
                    fault_plan=plan,
                )
            )
        fired = [f.kind for f in plan.fired]
        if plan.armed or fired != [kind]:
            failures.append(
                f"{kind}: fault coverage wrong (armed left: "
                f"{[f.kind for f in plan.armed]}, fired: {fired})"
            )
        mismatches = [
            name
            for name in sorted(DURABLE)
            if digests[name] != base_digests[name]
        ]
        drifted = [
            name
            for name in sorted(DURABLE)
            if not math.isclose(
                cycles[name], base_cycles[name], rel_tol=1e-9
            )
        ]
        if mismatches:
            failures.append(
                f"{kind}: digests diverged from fault-free baseline "
                f"for {mismatches}"
            )
        if drifted:
            failures.append(
                f"{kind}: cycle totals drifted for {drifted}"
            )
        check_no_quarantine(resilience, kind, failures)
        report.append(
            f"  {kind:<16} fired={len(fired)} "
            f"digest={'match' if not mismatches else 'MISMATCH'} "
            f"cycles={'match' if not drifted else 'DRIFT'}"
        )
    return failures


def check_worker_failover(
    baseline: tuple, report: list
) -> list[str]:
    failures: list[str] = []
    base_digests, _, _ = baseline
    with tempfile.TemporaryDirectory() as data_dir:
        with ServerThread(
            ServerConfig(
                workers=2, data_dir=data_dir, enable_chaos=True
            )
        ) as thread:
            clients = make_clients(thread.tcp_port, DURABLE)
            create_sessions(clients, DURABLE)
            # First half of the traffic on the healthy pool.
            cursors = {name: 0 for name in sorted(DURABLE)}
            half = {
                name: (DURABLE[name]["modifiers"] // (2 * CHUNK))
                * CHUNK
                for name in sorted(DURABLE)
            }
            drive(clients, cursors, ends=half)

            verdict = clients["acme"].kill_worker(0, reason="chaos gate")
            if not verdict["degraded"]:
                failures.append(
                    "kill-worker did not leave the pool degraded"
                )
            if not verdict["restored"]:
                failures.append(
                    "kill-worker restored no sessions (worker 0 "
                    "should have held at least one)"
                )
            try:
                http_get(thread.http_port, "/healthz")
                failures.append(
                    "/healthz answered 200 while a worker was dead"
                )
            except urllib.error.HTTPError as err:
                payload = json.loads(err.read().decode("utf-8"))
                if err.code != 503 or not payload.get("degraded"):
                    failures.append(
                        f"/healthz degraded response wrong: "
                        f"{err.code} {payload}"
                    )

            # Every session must still answer, and the rest of the
            # traffic must land on the survivor.
            for name in sorted(DURABLE):
                info = clients[name].attach("s0")
                if not info["worker_alive"]:
                    failures.append(
                        f"failover: tenant {name!r} still bound to a "
                        "dead worker"
                    )
            drive(clients, cursors)
            digests, _, resilience = finish(clients)
            stats = clients["acme"].stats()
            close_clients(clients)

    for worker in stats["workers"]:
        attributed = sum(worker["cycles_by_tenant"].values())
        if not math.isclose(
            attributed, worker["total_cycles"], rel_tol=1e-9
        ):
            failures.append(
                f"failover: worker {worker['index']} attribution sum "
                f"{attributed} != total {worker['total_cycles']}"
            )
    server_metrics = stats["server_metrics"]
    if server_metrics.get("serve_recovery_sessions_total", 0) < 1:
        failures.append(
            "failover: serve_recovery_sessions_total stayed zero"
        )
    if server_metrics.get("serve_workers_dead", 0) != 1:
        failures.append(
            "failover: serve_workers_dead gauge is not 1"
        )
    mismatches = [
        name
        for name in sorted(DURABLE)
        if digests[name] != base_digests[name]
    ]
    if mismatches:
        failures.append(
            f"failover: digests diverged from fault-free baseline "
            f"for {mismatches}"
        )
    check_no_quarantine(resilience, "failover", failures)
    report.append(
        f"  kill worker 0: digest="
        f"{'match' if not mismatches else 'MISMATCH'}, "
        f"failovers={server_metrics.get('serve_recovery_sessions_total', 0):.0f}, "
        f"replay_cycles="
        f"{server_metrics.get('serve_recovery_replay_cycles_total', 0):.0f}"
    )
    return failures


def check_durability(report: list) -> list[str]:
    with tempfile.TemporaryDirectory() as base_dir:
        # The fault-free reference run every scenario converges to.
        baseline = run_workload(ServerConfig(workers=2, data_dir=base_dir))
    report.append("crash_after_wal -> restart --recover convergence:")
    failures = check_crash_recovery(baseline, report)
    report.append("transport fault sweep (seeded, one fault per run):")
    failures.extend(check_transport_faults(baseline, report))
    report.append("worker kill + failover:")
    failures.extend(check_worker_failover(baseline, report))
    return failures


# -- observability: traces, attribution, dashboard, flight recorder -------------


def run_traced(data_dir: str) -> dict:
    """One seeded traced run; returns everything the checks consume."""
    recorder = TraceRecorder(session="serve-obs-gate")
    with ServerThread(
        ServerConfig(
            workers=2,
            data_dir=data_dir,
            trace_recorder=recorder,
            flight_capacity=256,
        )
    ) as thread:
        clients = make_clients(thread.tcp_port, TRACED, recorder)
        create_sessions(clients, TRACED)
        calls = len(clients)
        for name in sorted(TRACED):
            stream = TRACED_STREAMS[name]
            for offset in range(0, len(stream), CHUNK):
                clients[name].submit(
                    "s0", stream[offset : offset + CHUNK]
                )
                calls += 1
        digests = drain_digests(clients)
        calls += 3 * len(clients)  # flush + digest + metrics (below)
        tenant_metrics = {
            name: clients[name].metrics()["metrics"]
            for name in sorted(TRACED)
        }
        close_clients(clients)
        _, dashboard_html = http_get(thread.http_port, "/debug/dashboard")
        _, scrape = http_get(thread.http_port, "/metrics")
    return {
        "recorder": recorder,
        "calls": calls,
        "digests": digests,
        "tenant_metrics": tenant_metrics,
        "dashboard_html": dashboard_html,
        "scrape": scrape,
    }


def check_connectivity(run: dict, report: list) -> list[str]:
    """Every span joins one connected, client-rooted trace."""
    failures: list[str] = []
    recorder: TraceRecorder = run["recorder"]
    groups = recorder.traces()
    orphans = groups.pop("", [])
    if orphans:
        failures.append(
            f"{len(orphans)} recorded spans carry no trace context "
            f"(first: {orphans[0].name!r})"
        )
    if len(groups) != run["calls"]:
        failures.append(
            f"trace count {len(groups)} != client calls issued "
            f"{run['calls']} (each call must mint exactly one trace)"
        )
    full_role_traces = 0
    for trace_id in sorted(groups):
        events = groups[trace_id]
        ids = {event.span_id for event in events}
        roots = [e for e in events if e.parent is None]
        if len(roots) != 1:
            failures.append(
                f"trace {trace_id!r} has {len(roots)} roots "
                "(expected exactly the client span)"
            )
            continue
        if not roots[0].name.startswith("client."):
            failures.append(
                f"trace {trace_id!r} is rooted at {roots[0].name!r}, "
                "not a client span"
            )
        broken = [
            e.name
            for e in events
            if e.parent is not None and e.parent not in ids
        ]
        if broken:
            failures.append(
                f"trace {trace_id!r} has spans whose parents resolve "
                f"outside the trace: {broken[:3]}"
            )
        names = {event.name for event in events}
        if (
            any(n.startswith("client.") for n in names)
            and any(
                n == f"serve.{op}" for n in names for op in WORKLOAD_OPS
            )
            and "serve.worker.execute" in names
            and any(
                e.depth >= 3 or e.kind == "kernel" for e in events
            )
        ):
            full_role_traces += 1
    if full_role_traces == 0:
        failures.append(
            "no trace spans all four roles "
            "(client -> server -> worker -> engine)"
        )
    report.append(
        f"  {len(groups)} traces, {len(recorder.events)} spans, "
        f"{full_role_traces} spanning client->server->worker->engine"
    )
    return failures


def check_attribution(run: dict, report: list) -> list[str]:
    """Op-span cycles equal the scraped per-tenant cycle counters."""
    failures: list[str] = []
    recorder: TraceRecorder = run["recorder"]
    span_cycles = {name: 0.0 for name in sorted(TRACED)}
    for event in recorder.events:
        trace = event.trace
        if trace is None:
            continue
        tenant = trace.get("tenant")
        if tenant not in span_cycles:
            continue
        if event.name == f"serve.{trace.get('op')}":
            span_cycles[tenant] += event.device_cycles
    for name in sorted(TRACED):
        scraped = run["tenant_metrics"][name].get(
            "serve_tenant_device_cycles_total", 0.0
        )
        if span_cycles[name] != scraped:
            failures.append(
                f"tenant {name!r}: op-span cycles {span_cycles[name]!r}"
                f" != scraped serve_tenant_device_cycles_total "
                f"{scraped!r} (attribution must be bit-exact)"
            )
        report.append(
            f"  {name:<6} op-span cycles {span_cycles[name]:.1f} "
            f"scrape {scraped:.1f} "
            f"{'exact' if span_cycles[name] == scraped else 'MISMATCH'}"
        )
    return failures


def check_determinism(
    run: dict, rerun: dict, report: list
) -> list[str]:
    """Two seeded runs have bit-identical trace structure."""
    failures: list[str] = []
    first = run["recorder"].structure_digest()
    second = rerun["recorder"].structure_digest()
    if run["digests"] != rerun["digests"]:
        failures.append(
            "partition digests differ between identical seeded runs"
        )
    if first != second:
        divergence = len(first)
        for index, (a, b) in enumerate(zip(first, second)):
            if a != b:
                divergence = index
                break
        failures.append(
            f"trace structure diverged between identical seeded runs "
            f"(at event {divergence} of {len(first)}/{len(second)})"
        )
    report.append(
        f"  run 1: {len(first)} events, run 2: {len(second)} events, "
        f"structure {'identical' if first == second else 'DIVERGED'}"
    )
    return failures


def check_dashboard(run: dict, report: list) -> list[str]:
    """/debug/dashboard is self-contained and agrees with the scrape."""
    failures: list[str] = []
    page = run["dashboard_html"]
    if not page.lstrip().lower().startswith("<!doctype html"):
        failures.append("/debug/dashboard is not an HTML document")
    for needle in ("<svg", "</html>", DASHBOARD_SCHEMA):
        if needle not in page:
            failures.append(
                f"dashboard page is missing {needle!r}"
            )
    for external in ("<script src=", "<link rel="):
        if external in page:
            failures.append(
                f"dashboard is not self-contained: found {external!r}"
            )
    try:
        embedded = extract_data_block(page)
    except ValueError as err:
        failures.append(f"dashboard data block unreadable: {err}")
        return failures
    independent = dashboard_data(run["scrape"])
    if embedded != independent:
        keys = [
            key
            for key in sorted(set(embedded) | set(independent))
            if embedded.get(key) != independent.get(key)
        ]
        failures.append(
            "dashboard dataset disagrees with an independent parse of "
            f"/metrics (differing keys: {keys})"
        )
    tenants = sorted(embedded.get("tenants", {}))
    report.append(
        f"  {len(page)} bytes, tenants {tenants}, "
        f"dataset {'matches' if embedded == independent else 'MISMATCH'}"
        " the /metrics scrape"
    )
    return failures


def check_flight_dump(report: list) -> list[str]:
    """A chaos worker kill leaves a valid flight dump."""
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as data_dir:
        with ServerThread(
            ServerConfig(
                workers=2,
                data_dir=data_dir,
                enable_chaos=True,
                flight_capacity=256,
            )
        ) as thread:
            clients = make_clients(thread.tcp_port, TRACED)
            create_sessions(clients, TRACED)
            for name in sorted(TRACED):
                clients[name].submit("s0", TRACED_STREAMS[name][:CHUNK])
            clients["acme"].kill_worker(0, reason="obs gate")
            dumps = sorted(Path(data_dir).glob("flightrec-*.jsonl"))
            close_clients(clients)
        if not dumps:
            failures.append(
                "kill-worker produced no flightrec-*.jsonl dump"
            )
            return failures
        errors = validate_flight(dumps[-1])
        if errors:
            failures.append(
                f"flight dump fails validation: {errors[0]}"
                + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else "")
            )
            return failures
        header, events = load_flight(dumps[-1])
        if "worker-0-dead" not in header.get("reason", ""):
            failures.append(
                f"flight dump reason {header.get('reason')!r} does not "
                "name the dead worker"
            )
        kinds = sorted({event["kind"] for event in events})
        if "worker_dead" not in kinds:
            failures.append(
                f"flight dump records no worker_dead event ({kinds})"
            )
        if "request" not in kinds:
            failures.append(
                "flight dump holds no request history leading up to "
                f"the fault ({kinds})"
            )
        report.append(
            f"  {dumps[-1].name}: {len(events)} events {kinds}, "
            f"reason {header.get('reason')!r}, validation clean"
        )
    return failures


def check_observability(report: list) -> list[str]:
    with tempfile.TemporaryDirectory() as data_dir:
        run = run_traced(data_dir)
    with tempfile.TemporaryDirectory() as data_dir:
        rerun = run_traced(data_dir)
    report.append("trace connectivity (client -> server -> worker -> engine):")
    failures = check_connectivity(run, report)
    report.append("per-tenant cycle attribution (op spans vs scrape):")
    failures.extend(check_attribution(run, report))
    report.append("trace structure determinism (two seeded runs):")
    failures.extend(check_determinism(run, rerun, report))
    report.append("/debug/dashboard self-contained HTML:")
    failures.extend(check_dashboard(run, report))
    report.append("chaos worker kill -> flight recorder dump:")
    failures.extend(check_flight_dump(report))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "dashboard.html").write_text(run["dashboard_html"])
    return failures


#: (verdict label, stage group), run in this order.
GROUPS = (
    ("serve gate", check_hosting),
    ("serve chaos gate", check_durability),
    ("serve obs gate", check_observability),
)


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    report: list[str] = []
    failures: list[str] = []
    for verdict, group in GROUPS:
        group_failures = group(report)
        report.append(f"{verdict}: {'PASS' if not group_failures else 'FAIL'}")
        failures.extend(group_failures)

    text = "\n".join(report)
    print(text)
    if failures:
        print("\nserve gate failures:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "serve.txt").write_text(text + "\n")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
