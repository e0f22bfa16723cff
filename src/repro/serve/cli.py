"""The ``repro serve`` subcommand: boot the matching service.

Runs the service in the foreground until SIGINT/SIGTERM, then drains
gracefully (in-flight requests finish, new ones are shed) before
exiting.  ``--probe`` instead issues one ``GET /healthz`` against a
running service and exits 0/1 — what scripts and CI use instead of
depending on curl semantics.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys

from repro.experiment.spec import ExecutorSpec

__all__ = ["add_serve_arguments", "cmd_serve"]


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8642, help="0 picks a free port (printed on boot)"
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="concurrent executions (also the worker-pool size)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=16, help="requests allowed to wait for a slot"
    )
    parser.add_argument(
        "--max-spec-bytes",
        type=int,
        default=1_000_000,
        help="per-request body size limit (413 beyond it)",
    )
    parser.add_argument(
        "--jobs-capacity", type=int, default=64, help="bounded async job table size"
    )
    parser.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="graceful-shutdown budget for in-flight work",
    )
    parser.add_argument(
        "--sweep-executor",
        choices=("batch", "parallel"),
        default="parallel",
        help="execution plane for /v1/sweep",
    )
    parser.add_argument(
        "--sweep-workers",
        type=int,
        default=None,
        help="workers the parallel sweep plane spreads a sweep's chunks over "
        "(default: the usable cores)",
    )
    parser.add_argument(
        "--probe",
        action="store_true",
        help="GET /healthz against --host/--port and exit (no server boot)",
    )


def _config_from_args(args):
    from repro.serve.config import ServiceConfig

    return ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_spec_bytes=args.max_spec_bytes,
        jobs_capacity=args.jobs_capacity,
        drain_seconds=args.drain_seconds,
        sweep_executor=ExecutorSpec(
            name=args.sweep_executor,
            workers=args.sweep_workers if args.sweep_executor == "parallel" else None,
        ),
    )


def _cmd_probe(args) -> int:
    from repro.serve.client import request

    try:
        response = request(args.host, args.port, "GET", "/healthz", timeout=5.0)
    except OSError as exc:
        print(f"probe failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(response.json(), sort_keys=True))
    return 0 if response.status == 200 else 1


def cmd_serve(args) -> int:
    if args.probe:
        return _cmd_probe(args)
    from repro.errors import ReproError
    from repro.serve.server import MatchingService

    try:
        config = _config_from_args(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def main() -> None:
        service = MatchingService(config)
        await service.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # pragma: no cover
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(service.stop())
                )
        print(
            f"repro serve: listening on http://{config.host}:{service.port} "
            f"(inflight<={config.max_inflight}, queue<={config.max_queue}, "
            f"sweeps via {config.sweep_executor.name})",
            flush=True,
        )
        await service.wait_closed()
        print("repro serve: drained and stopped", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover — signal-handler race
        pass
    return 0
