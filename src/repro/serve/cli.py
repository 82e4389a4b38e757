"""``repro-serve``: run the multi-tenant partition server.

Boots a :class:`~repro.serve.server.PartitionServer` on the current
thread's event loop and prints the bound ports, one JSON object on the
first stdout line so wrappers can parse it::

    $ repro-serve --port 0 --http-port 0 --workers 2
    {"host": "127.0.0.1", "http_port": 43211, "tcp_port": 38655}

Scrape ``http://<host>:<http_port>/metrics`` for the live Prometheus
text, or open ``http://<host>:<http_port>/debug/dashboard`` for the
self-contained per-tenant HTML dashboard rendered from the same
scrape; speak the framed JSON protocol (see
:mod:`repro.serve.protocol`) to the TCP port, e.g. via
:class:`repro.serve.client.ServeClient`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional, Sequence

from repro.serve.quotas import TenantQuota
from repro.serve.server import PartitionServer, ServerConfig
from repro.serve.shedding import ShedPolicy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "multi-tenant streaming partition server "
            "(framed JSON over TCP + Prometheus /metrics over HTTP)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7421,
        help="TCP protocol port (0 = ephemeral)",
    )
    parser.add_argument(
        "--http-port", type=int, default=7422,
        help="HTTP /metrics + /healthz port (0 = ephemeral)",
    )
    parser.add_argument(
        "--data-dir", default=None,
        help="journal root (default: a temporary directory)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="simulated devices in the shared pool",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=8,
        help="per-tenant live-session quota",
    )
    parser.add_argument(
        "--max-queued", type=int, default=4096,
        help="per-tenant queued-modifier quota",
    )
    parser.add_argument(
        "--cycle-budget", type=float, default=None,
        help="per-tenant device-cycle budget per window (default: off)",
    )
    parser.add_argument(
        "--window-cycles", type=float, default=1e9,
        help="cycle-budget window length on the worker clock",
    )
    parser.add_argument(
        "--shed-high", type=int, default=16384,
        help="global backlog (queued modifiers) that starts shedding",
    )
    parser.add_argument(
        "--shed-low", type=int, default=None,
        help="backlog at which shedding stops (default: high/2)",
    )
    parser.add_argument(
        "--idle-evict-after-ops", type=int, default=0,
        help=(
            "checkpoint-and-evict sessions idle for this many registry "
            "operations (0 = never)"
        ),
    )
    parser.add_argument(
        "--recover", action="store_true",
        help=(
            "re-materialize every session --data-dir holds a "
            "checkpoint of before accepting requests (disaster recovery)"
        ),
    )
    parser.add_argument(
        "--enable-chaos", action="store_true",
        help=(
            "accept the kill-worker chaos op (testing only; never "
            "expose on a production server)"
        ),
    )
    parser.add_argument(
        "--flight-capacity", type=int, default=0,
        help=(
            "crash flight-recorder ring size; dumps to "
            "<data-dir>/flightrec-*.jsonl on faults, worker death, "
            "and crashes (0 = off)"
        ),
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    if args.recover and args.data_dir is None:
        raise SystemExit(
            "repro-serve: --recover needs --data-dir (a temporary "
            "directory has no checkpoints to recover from)"
        )
    return ServerConfig(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        data_dir=args.data_dir,
        workers=args.workers,
        default_quota=TenantQuota(
            max_sessions=args.max_sessions,
            max_queued_modifiers=args.max_queued,
            cycle_budget_per_window=args.cycle_budget,
            window_cycles=args.window_cycles,
        ),
        shed=ShedPolicy(
            high_watermark=args.shed_high,
            low_watermark=args.shed_low,
        ),
        idle_evict_after_ops=args.idle_evict_after_ops,
        recover=args.recover,
        enable_chaos=args.enable_chaos,
        flight_capacity=args.flight_capacity,
    )


async def _serve(config: ServerConfig) -> None:
    server = PartitionServer(config)
    await server.start()
    print(
        json.dumps(
            {
                "host": config.host,
                "http_port": server.http_port,
                "tcp_port": server.tcp_port,
            },
            sort_keys=True,
        ),
        flush=True,
    )
    try:
        while True:
            await asyncio.sleep(3600)
    except asyncio.CancelledError:
        raise
    finally:
        await server.stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(_serve(config_from_args(args)))
    except KeyboardInterrupt:
        print("repro-serve: interrupted, shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
