"""Declarative service configuration.

A :class:`ServiceConfig` pins everything the matching service plane
needs to boot: the listen address, the admission-control envelope
(queue bound, in-flight bound, which also sizes the worker pool, and
per-request spec-size limit), the execution planes sweeps and single
runs use inside the workers (:class:`~repro.experiment.spec.ExecutorSpec`
— parallel for sweeps, batch for singles, by default), the job-table
capacity, and the graceful-shutdown drain budget.  Like every spec in
this codebase it is JSON-round-trippable, so a deployment can archive
the exact envelope a service ran with next to the records it served.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ServeError
from repro.experiment.spec import ExecutorSpec

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """The service plane's knobs, fully declarative.

    Admission semantics (see :mod:`repro.serve.admission`): at most
    ``max_inflight`` requests execute concurrently, on a pool of as many
    worker processes that lives as long as the service; up to
    ``max_queue`` more wait for a slot; anything beyond that is shed
    with ``503`` and a ``Retry-After: retry_after_seconds`` header.
    Request bodies over ``max_spec_bytes`` are rejected with ``413``
    before being read.  ``drain_seconds`` bounds how long a graceful
    shutdown waits for in-flight work before closing anyway (workers
    still busy then are terminated).
    """

    host: str = "127.0.0.1"
    port: int = 8642
    max_inflight: int = 4
    max_queue: int = 16
    max_spec_bytes: int = 1_000_000
    jobs_capacity: int = 64
    retry_after_seconds: int = 1
    drain_seconds: float = 10.0
    #: How ``POST /v1/sweep`` chunks a sweep over the worker pool:
    #: ``batch`` (chunks of up to ``DEFAULT_BATCH_SIZE`` specs) or
    #: ``parallel`` (the pool's chunk rule over ``workers``, default the
    #: usable cores).  A sweep job runs whole in one worker, batched.
    sweep_executor: ExecutorSpec = field(
        default_factory=lambda: ExecutorSpec(name="parallel")
    )
    #: The in-process plane ``POST /v1/run`` (and single-spec jobs) run
    #: on inside a worker.
    run_executor: ExecutorSpec = field(default_factory=lambda: ExecutorSpec(name="batch"))

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ServeError(f"port must lie in [0, 65535], got {self.port}")
        if self.max_inflight < 1:
            raise ServeError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queue < 0:
            raise ServeError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.max_spec_bytes < 1:
            raise ServeError(f"max_spec_bytes must be >= 1, got {self.max_spec_bytes}")
        if self.jobs_capacity < 1:
            raise ServeError(f"jobs_capacity must be >= 1, got {self.jobs_capacity}")
        if self.retry_after_seconds < 0:
            raise ServeError(
                f"retry_after_seconds must be >= 0, got {self.retry_after_seconds}"
            )
        if self.drain_seconds < 0:
            raise ServeError(f"drain_seconds must be >= 0, got {self.drain_seconds}")
        if self.sweep_executor.name not in ("batch", "parallel"):
            raise ServeError(
                "sweep_executor must be 'batch' or 'parallel' (the streaming "
                f"planes), got {self.sweep_executor.name!r}"
            )
        if self.run_executor.name not in ("serial", "batch"):
            raise ServeError(
                "run_executor must be 'serial' or 'batch' (single specs never "
                f"justify a pool), got {self.run_executor.name!r}"
            )

    def to_dict(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "max_spec_bytes": self.max_spec_bytes,
            "jobs_capacity": self.jobs_capacity,
            "retry_after_seconds": self.retry_after_seconds,
            "drain_seconds": self.drain_seconds,
            "sweep_executor": self.sweep_executor.to_dict(),
            "run_executor": self.run_executor.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServiceConfig":
        sweep_executor = data.get("sweep_executor")
        run_executor = data.get("run_executor")
        return cls(
            host=str(data.get("host", "127.0.0.1")),
            port=int(data.get("port", 8642)),
            max_inflight=int(data.get("max_inflight", 4)),
            max_queue=int(data.get("max_queue", 16)),
            max_spec_bytes=int(data.get("max_spec_bytes", 1_000_000)),
            jobs_capacity=int(data.get("jobs_capacity", 64)),
            retry_after_seconds=int(data.get("retry_after_seconds", 1)),
            drain_seconds=float(data.get("drain_seconds", 10.0)),
            sweep_executor=(
                ExecutorSpec.from_dict(sweep_executor)
                if sweep_executor is not None
                else ExecutorSpec(name="parallel")
            ),
            run_executor=(
                ExecutorSpec.from_dict(run_executor)
                if run_executor is not None
                else ExecutorSpec(name="batch")
            ),
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServiceConfig":
        return cls.from_dict(json.loads(text))
