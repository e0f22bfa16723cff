"""The matching service: scenarios in, records out, over plain HTTP/1.1.

:class:`MatchingService` promotes the batch engine into a long-lived
backend.  It is a stdlib-only asyncio server (hand-rolled HTTP via
:mod:`repro.serve.http` over ``asyncio.start_server``, in the
:mod:`repro.net.transports` style) exposing:

* ``POST /v1/run``    — one :class:`~repro.experiment.spec.ScenarioSpec`,
  records in the JSON response; ``?lattice=1`` additionally stamps each
  record with its ``lattice_position=`` tag (which element of the
  stable-matching lattice the honest parties landed on — see
  :mod:`repro.experiment.lattice_tags`);
* ``POST /v1/sweep``  — a :class:`~repro.experiment.spec.Sweep`, records
  streamed back as NDJSON lines (schema header first) as chunks
  complete — byte-identical to the same sweep run in-process;
* ``POST /v1/jobs`` / ``GET /v1/jobs/<id>`` — async submission into the
  bounded :class:`~repro.serve.jobs.JobTable`;
* ``GET /healthz``    — liveness (reports ``draining`` during shutdown);
* ``GET /statz``      — uptime, admission counters and queue depth,
  merged cache statistics, per-endpoint latency histograms.

Every execution request passes the
:class:`~repro.serve.admission.AdmissionController` (overload sheds
with ``503`` + ``Retry-After``) and then runs on the service's worker
pool: ``max_inflight`` processes, forked once by
:meth:`MatchingService.start` before the listener accepts and joined by
:meth:`MatchingService.stop`.  ``/v1/run`` and both job kinds are one
pool task each, on the config's in-process planes (``run_executor`` for
single specs, batch for sweep jobs); ``/v1/sweep`` is cut into the
engine's chunks (``DEFAULT_BATCH_SIZE`` specs on the batch plane, the
pool's chunk rule on the parallel one), which
:func:`~repro.experiment.engine.stream_sweep` runs on the same pool and
drains in spec order.  Every task runs over a fresh
:class:`~repro.runtime.ExecutionCache` — the per-request scope of the
in-process batch plane — so replies are byte-identical to in-process
records and worker memory does not grow with uptime.  A worker that
dies breaks the pool: the requests it held fail (``500``, or a sweep
stream that ends in an error line) and the next request runs on a
fresh pool.
Graceful shutdown stops admitting, drains in-flight work (bounded by
``drain_seconds``), then closes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import gc
import json
import os
import signal
import stat
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.errors import ReproError
from repro.experiment.engine import Engine, stream_sweep
from repro.experiment.lattice_tags import stamp_lattice_positions
from repro.experiment.sinks import StreamSink
from repro.experiment.spec import ScenarioSpec, Sweep
from repro.io import records_ndjson_header
from repro.serve.admission import AdmissionController, Overloaded
from repro.serve.config import ServiceConfig
from repro.serve.http import (
    HttpError,
    Request,
    error_body,
    json_response,
    read_request,
    response_head,
)
from repro.serve.jobs import DONE, FAILED, RUNNING, JobTable
from repro.serve.stats import ServiceStats

__all__ = ["MatchingService", "ServiceHandle", "start_background"]


def _parse_spec(data: object) -> ScenarioSpec:
    """A request body as a spec (:class:`HttpError` 400 on anything off)."""
    if not isinstance(data, dict):
        raise HttpError(400, "bad_spec", "request body must be a ScenarioSpec object")
    try:
        return ScenarioSpec.from_dict(data)
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise HttpError(400, "bad_spec", f"not a valid ScenarioSpec: {exc}")


def _query_flag(query: str, name: str) -> bool:
    """True when ``name`` appears truthy (``1``/``true``/bare) in a query string."""
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == name:
            return value.lower() in ("", "1", "true", "yes")
    return False


def _parse_sweep(data: object) -> Sweep:
    if not isinstance(data, dict) or not isinstance(data.get("specs"), list):
        raise HttpError(400, "bad_sweep", "request body must be {'specs': [...]}")
    try:
        return Sweep.from_dict(data)
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise HttpError(400, "bad_sweep", f"not a valid Sweep: {exc}")


def _execute_records(
    engine: Engine, specs: Sequence[ScenarioSpec], lattice: bool = False
) -> dict:
    """Worker-pool task: run ``specs`` on an in-process ``engine`` (its
    batch plane builds a fresh cache per call), stamping lattice
    positions when asked; returns the JSON-ready records, the elapsed
    seconds and the cache statistics."""
    records = engine.run_sweep(specs)
    if lattice:
        records = stamp_lattice_positions(specs[0], records)
    return {
        "records": [record.to_dict() for record in records],
        "elapsed_seconds": records.elapsed_seconds,
        "cache_stats": records.cache_stats,
    }


def _failure(exc: BaseException) -> HttpError:
    """The structured ``500`` for an execution that raised ``exc``."""
    if isinstance(exc, BrokenProcessPool):
        return HttpError(500, "worker_died", f"a service worker died: {exc}")
    return HttpError(500, "internal", repr(exc))


def _worker_init() -> None:
    """Worker-pool initializer: leave the server's sockets and SIGINT alone.

    A forked worker inherits every descriptor the server holds, and a
    client connection a worker still holds never sees EOF when the
    server closes it — which is how a streamed sweep ends.  Each
    inherited socket is pointed at ``/dev/null`` (not closed, so the
    copied socket objects can never close a reused descriptor).  SIGINT
    is ignored, since the server drives shutdown, and SIGTERM, which the
    server may have routed to its event loop, terminates again.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # no procfs to list descriptors with
        return
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        try:
            if fd != null and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:  # closed since the listing
            pass
    os.close(null)


class _WorkerPool:
    """The service's worker processes: one process pool of ``size``
    workers, forked on construction and replaced when a dead worker has
    broken it (a pool with a dead worker fails everything it held)."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._lock = threading.Lock()
        self._executor = self._fork()

    def _fork(self) -> concurrent.futures.ProcessPoolExecutor:
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.size, initializer=_worker_init
        )
        # Frozen objects stay out of the workers' collections, so the
        # pages they inherit stay shared with the server.
        gc.freeze()
        try:
            executor.submit(int)  # the first task starts the workers
        finally:
            gc.unfreeze()
        return executor

    def submit(self, fn, /, *args) -> concurrent.futures.Future:
        """Run ``fn(*args)`` on a worker.  A broken pool is replaced
        first: the task has not started, so the new pool may run it.
        Replacing joins and forks processes, so call this off the event
        loop."""
        with self._lock:
            try:
                return self._executor.submit(fn, *args)
            except BrokenProcessPool:
                self._executor.shutdown()
                self._executor = self._fork()
                return self._executor.submit(fn, *args)

    def submit_nowait(self, fn, /, *args) -> concurrent.futures.Future | None:
        """:meth:`submit` for the event loop: ``None``, instead of
        waiting, when the pool is broken or another thread holds it."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            return self._executor.submit(fn, *args)
        except BrokenProcessPool:
            return None
        finally:
            self._lock.release()

    def pids(self) -> tuple[int, ...]:
        """The current pool's worker process ids."""
        with self._lock:
            return tuple(self._executor._processes or ())

    def shutdown(self, kill: bool = False) -> None:
        """Stop and join the workers; ``kill`` terminates them first, so
        work still running is abandoned rather than waited for."""
        with self._lock:
            if kill:
                for process in tuple((self._executor._processes or {}).values()):
                    process.terminate()
            self._executor.shutdown(cancel_futures=True)


class MatchingService:
    """One service instance: config in, a bound listening socket out."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.admission = AdmissionController(
            self.config.max_inflight, self.config.max_queue
        )
        self.jobs = JobTable(self.config.jobs_capacity)
        self.stats = ServiceStats()
        #: Where every execution runs (forked by :meth:`start`).
        self.workers: _WorkerPool | None = None
        # Threads only submit and wait: a sweep stream drains its chunks
        # on one, and a run whose pool needs replacing is submitted from one.
        self._threads = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.max_inflight, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.base_events.Server | None = None
        self._closed = asyncio.Event()
        self._job_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self.port: int = self.config.port

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Fork the worker pool, then bind and start accepting (resolves
        port 0 to the real port).  A failed bind joins the pool again."""
        self.workers = _WorkerPool(self.config.max_inflight)
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )
        except BaseException:
            self.workers.shutdown()
            raise
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop admitting, drain, close.

        With ``drain=True`` (the default) in-flight requests — including
        a sweep mid-stream — finish and flush before the listener's
        connections are torn down, bounded by ``config.drain_seconds``.
        The worker pool is joined last; workers still busy past the
        budget (or on ``drain=False``) are terminated first.
        """
        if self._server is not None:
            self._server.close()
        self.admission.start_draining()
        drained = False
        if drain:
            drained = await self.admission.drain(self.config.drain_seconds)
            if self._job_tasks:
                await asyncio.wait(
                    tuple(self._job_tasks), timeout=self.config.drain_seconds
                )
        # Anything still open now is an idle keep-alive connection (or
        # work past the drain budget): close it.
        for writer in tuple(self._writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self.workers is not None:
            self.workers.shutdown(kill=not drained)
        self._threads.shutdown(wait=False)
        self._closed.set()

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` has completed."""
        await self._closed.wait()

    # -- connection handling --------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_spec_bytes
                    )
                except HttpError as exc:
                    # The stream may hold an unread body: answer and close.
                    writer.write(
                        json_response(
                            exc.status, error_body(exc.code, exc.message), close=True
                        )
                    )
                    await writer.drain()
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        endpoint = request.path
        if request.path.startswith("/v1/jobs/"):
            endpoint = "/v1/jobs/<id>"
        started = time.perf_counter()
        status = 500
        keep_alive = request.keep_alive
        try:
            if request.path == "/healthz" and request.method == "GET":
                status = 200
                payload = {
                    "status": "draining" if self.admission.draining else "ok",
                    "port": self.port,
                }
                writer.write(json_response(status, payload, close=not keep_alive))
            elif request.path == "/statz" and request.method == "GET":
                status = 200
                writer.write(
                    json_response(status, self._statz(), close=not keep_alive)
                )
            elif request.path == "/v1/run" and request.method == "POST":
                status = await self._handle_run(request, writer)
            elif request.path == "/v1/sweep" and request.method == "POST":
                status = await self._handle_sweep_stream(request, writer)
                keep_alive = False  # streamed bodies are EOF-delimited
            elif request.path == "/v1/jobs" and request.method == "POST":
                status = await self._handle_job_submit(request, writer)
            elif endpoint == "/v1/jobs/<id>" and request.method == "GET":
                status = self._handle_job_poll(request, writer)
            elif request.path in ("/healthz", "/statz", "/v1/run", "/v1/sweep", "/v1/jobs"):
                status = 405
                writer.write(
                    json_response(
                        status,
                        error_body("method_not_allowed", f"{request.method} {request.path}"),
                        close=not keep_alive,
                    )
                )
            else:
                status = 404
                writer.write(
                    json_response(
                        status,
                        error_body("not_found", f"no route for {request.path}"),
                        close=not keep_alive,
                    )
                )
        except HttpError as exc:
            status = exc.status
            extra = (
                {"Retry-After": str(self.config.retry_after_seconds)}
                if status == 503
                else None
            )
            writer.write(
                json_response(
                    status,
                    error_body(exc.code, exc.message),
                    close=not keep_alive,
                    extra_headers=extra,
                )
            )
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # noqa: BLE001 — the service must not die
            status = 500
            try:
                writer.write(
                    json_response(
                        status, error_body("internal", repr(exc)), close=True
                    )
                )
            except ConnectionError:
                pass
            keep_alive = False
        finally:
            self.stats.observe(endpoint, status, time.perf_counter() - started)
        try:
            await writer.drain()
        except ConnectionError:
            return False
        return keep_alive

    # -- endpoints ------------------------------------------------------------

    def _overloaded(self, exc: Overloaded) -> HttpError:
        return HttpError(503, "overloaded", str(exc))

    async def _execute(self, engine: Engine, specs: tuple, lattice: bool = False) -> dict:
        """One execution as one worker-pool task (see :func:`_execute_records`).

        A healthy pool takes the task right here; otherwise it is
        submitted from a thread, since replacing a broken pool joins and
        forks processes, which must not stall the event loop.
        """
        assert self.workers is not None  # start() forks the pool
        args = (_execute_records, engine, specs, lattice)
        try:
            future = self.workers.submit_nowait(*args)
            if future is None:
                future = await asyncio.get_running_loop().run_in_executor(
                    self._threads, self.workers.submit, *args
                )
            reply = await asyncio.wrap_future(future)
        except BrokenProcessPool as exc:
            raise _failure(exc)
        self.stats.observe_cache(reply["cache_stats"])
        self.stats.records_served += len(reply["records"])
        return reply

    async def _handle_run(self, request: Request, writer: asyncio.StreamWriter) -> int:
        spec = _parse_spec(request.json())
        lattice = _query_flag(request.query, "lattice")
        try:
            await self.admission.admit()
        except Overloaded as exc:
            raise self._overloaded(exc)
        try:
            reply = await self._execute(Engine(self.config.run_executor), (spec,), lattice)
            payload = {
                "records": reply["records"],
                "count": len(reply["records"]),
                "elapsed_seconds": round(reply["elapsed_seconds"], 6),
            }
            writer.write(json_response(200, payload, close=not request.keep_alive))
            await writer.drain()
        finally:
            self.admission.release()
        return 200

    async def _handle_sweep_stream(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> int:
        sweep = _parse_sweep(request.json())
        try:
            await self.admission.admit()
        except Overloaded as exc:
            raise self._overloaded(exc)
        try:
            executor = self.config.sweep_executor
            # Both planes stream the worker pool's chunks in spec order:
            # batch-sized chunks on the batch plane, the pool's chunk rule
            # on parallel (stream_sweep is the engine's chunked core, so
            # records are byte-identical).
            workers = 1 if executor.name == "batch" else executor.workers
            loop = asyncio.get_running_loop()
            queue: asyncio.Queue = asyncio.Queue()

            def producer() -> dict:
                # Encoding goes through the shared StreamSink, the same
                # encoder NdjsonSink spills to disk with — byte-identity
                # between the HTTP stream and an in-process NDJSON dump
                # holds by construction, not by parallel code paths.
                stats: dict = {}
                sink = StreamSink(
                    lambda text: loop.call_soon_threadsafe(
                        queue.put_nowait, ("chunk", text)
                    ),
                    header=False,  # sent with the response head below
                )
                try:
                    for _ in stream_sweep(
                        sweep.specs,
                        workers=workers,
                        warm_cache=executor.warm_cache,
                        stats=stats,
                        sink=sink,
                        pool=self.workers,
                    ):
                        pass
                    sink.close()
                except BaseException as exc:  # noqa: BLE001 — forwarded to the consumer
                    loop.call_soon_threadsafe(queue.put_nowait, ("error", exc))
                else:
                    loop.call_soon_threadsafe(queue.put_nowait, ("done", None))
                return stats

            writer.write(
                response_head(200, content_type="application/x-ndjson")
                + records_ndjson_header().encode("utf-8")
            )
            await writer.drain()
            future = loop.run_in_executor(self._threads, producer)
            while True:
                kind, payload = await queue.get()
                if kind == "chunk":
                    self.stats.records_served += payload.count("\n")
                    writer.write(payload.encode("utf-8"))
                    await writer.drain()
                elif kind == "done":
                    break
                else:
                    # Status already sent: end the stream with one error
                    # line after the last whole record, so a reader can
                    # tell a sweep cut short from a complete one.
                    error = _failure(payload)
                    trailer = json.dumps(error_body(error.code, error.message), sort_keys=True)
                    writer.write(trailer.encode("utf-8") + b"\n")
                    await writer.drain()
                    await future
                    return 500
            self.stats.observe_cache(await future)
        finally:
            self.admission.release()
        return 200

    async def _handle_job_submit(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> int:
        data = request.json()
        if not isinstance(data, dict) or ("spec" in data) == ("sweep" in data):
            raise HttpError(
                400, "bad_job", "job submissions carry exactly one of 'spec' or 'sweep'"
            )
        if "spec" in data:
            kind, engine = "run", Engine(self.config.run_executor)
            specs = (_parse_spec(data["spec"]),)
        else:
            # One task runs the whole sweep in one worker: batch, over
            # one cache.
            kind = "sweep"
            engine = Engine("batch", warm_cache=self.config.sweep_executor.warm_cache)
            specs = _parse_sweep(data["sweep"]).specs
        try:
            job = self.jobs.submit(kind)
        except Overloaded as exc:
            raise self._overloaded(exc)
        task = asyncio.get_running_loop().create_task(
            self._run_job(job.id, engine, specs)
        )
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        writer.write(
            json_response(
                202,
                {"job": job.id, "kind": kind, "status": job.status},
                close=not request.keep_alive,
            )
        )
        return 202

    async def _run_job(self, job_id: str, engine: Engine, specs: tuple) -> None:
        job = self.jobs.get(job_id)
        if job is None:  # evicted while queued: nothing to record into
            return
        try:
            await self.admission.admit()
        except Overloaded as exc:
            job.status = FAILED
            job.error = f"shed: {exc}"
            return
        job.status = RUNNING
        started = time.perf_counter()
        try:
            job.records = (await self._execute(engine, specs))["records"]
            job.status = DONE
            job.elapsed_seconds = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 — failures land on the job row
            job.status = FAILED
            job.error = repr(exc)
        finally:
            self.admission.release()

    def _handle_job_poll(self, request: Request, writer: asyncio.StreamWriter) -> int:
        job_id = request.path.removeprefix("/v1/jobs/")
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, "unknown_job", f"no job {job_id!r} (evicted or never submitted)")
        writer.write(json_response(200, job.describe(), close=not request.keep_alive))
        return 200

    def _statz(self) -> dict:
        data = self.stats.to_dict()
        data["status"] = "draining" if self.admission.draining else "ok"
        data["admission"] = self.admission.stats()
        data["jobs"] = self.jobs.stats()
        data["config"] = self.config.to_dict()
        return data


# -- hosting helpers -----------------------------------------------------------


async def serve_forever(config: ServiceConfig | None = None) -> MatchingService:
    """Start a service and block until something calls its :meth:`stop`."""
    service = MatchingService(config)
    await service.start()
    await service.wait_closed()
    return service


class ServiceHandle:
    """A service running on its own background thread + event loop.

    What the tests, the bench harness, and embedders use: start, read
    ``.port``, drive traffic from the calling thread, then ``stop()``
    (graceful by default).
    """

    def __init__(
        self,
        service: MatchingService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.service = service
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def host(self) -> str:
        return self.service.config.host

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service (graceful drain by default) and join the thread."""
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.service.stop(drain=drain), self._loop
            )
            future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_background(
    config: ServiceConfig | None = None, *, timeout: float = 10.0
) -> ServiceHandle:
    """Boot a :class:`MatchingService` on a daemon thread and wait for bind."""
    started = threading.Event()
    holder: dict = {}

    def runner() -> None:
        async def main() -> None:
            service = MatchingService(config)
            await service.start()
            holder["service"] = service
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            await service.wait_closed()

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover — surfaced via holder
            holder["error"] = exc
            started.set()

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=timeout):
        raise TimeoutError("service did not start within the timeout")
    if "error" in holder:
        raise holder["error"]
    return ServiceHandle(holder["service"], holder["loop"], thread)
