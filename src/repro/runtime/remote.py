"""Cross-host sweep execution: the ``hosts`` backend's worker plane.

The engine's execution core (:mod:`repro.experiment.engine`) cuts a
sweep into contiguous chunks and drains them in spec order; this module
is the backend that runs those chunks on *worker endpoints* —
subprocesses, SSH targets, or :mod:`repro.serve` instances — fed from a
work-stealing queue.  Records come back byte-identical to the
``serial`` executor (gated by the ``executor_differential`` oracle).

Worker protocol (``repro worker``): newline-delimited JSON over the
worker's stdio, one reply line per request line.

* on startup the worker emits ``{"op": "ready", "version": <fp>}`` —
  the parent refuses a worker whose code fingerprint
  (:func:`repro.runtime.diskcache.cache_version`) differs from its own,
  because byte-identical records need identical producing code;
* ``{"op": "warm", "state": <base64 pickle>}`` primes the worker's
  persistent :class:`~repro.runtime.cache.ExecutionCache` from a warm
  state (see :func:`repro.runtime.diskcache.restore_warm_state`) and
  replies ``{"op": "warmed"}``;
* ``{"op": "run", "id": N, "specs": [<spec dicts>]}`` executes the
  chunk through the batched round loop and replies ``{"id": N,
  "records": [<record dicts>], "cache_stats": {...}}`` (or ``{"id": N,
  "error": "..."}``); the parent sends the chunk's first spec index as
  ``N``;
* EOF on stdin ends the worker.

Host endpoint strings (``ExecutorSpec(name="hosts", hosts=...)``):

* ``"local"`` — spawn ``sys.executable -m repro worker`` here (the
  degenerate cross-host case; what CI's hosts-smoke and the
  differential tests exercise);
* ``"ssh:user@box"`` — ``ssh -o BatchMode=yes user@box python3 -m
  repro worker`` (the remote side needs ``repro`` importable for its
  login shell);
* ``"cmd:<shell words>"`` — an explicit worker command line, for
  wrapper scripts, containers, or tests;
* ``"http://host:port"`` — POST chunks to a running ``repro serve``
  instance's ``/v1/sweep`` and parse the NDJSON stream (no worker
  process at all; the service's own executor does the work).
  ``https://`` is rejected: the client speaks plain HTTP only.

Every host's pump thread takes the next unclaimed chunk, so a fast
host simply takes more of them.  A host that fails puts its claimed
chunk back and stops; the other pumps wait for work until the sweep is
over, so a live host steals it.  The sweep fails
(:class:`~repro.errors.RemoteError`) only when a chunk is left with no
live host, naming the chunk's spec range and what each host died of —
for a subprocess worker, the last lines of its stderr.
"""

from __future__ import annotations

import base64
import itertools
import json
import os
import pickle
import queue
import shlex
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import Future
from typing import IO, Mapping, Sequence

from repro.errors import RemoteError, ReproError
from repro.runtime.diskcache import cache_version

__all__ = ["HostPumps", "worker_main"]


def _emit(stream: IO[str], reply: Mapping) -> None:
    stream.write(json.dumps(reply, sort_keys=True) + "\n")
    stream.flush()


def _chunk_name(start: int, count: int) -> str:
    """How errors name a chunk: its inclusive spec index range."""
    return f"chunk specs {start}..{start + count - 1}"


def worker_main(stdin: IO[str] | None = None, stdout: IO[str] | None = None) -> int:
    """The ``repro worker`` stdio loop (see the module docstring).

    One persistent :class:`~repro.runtime.cache.ExecutionCache` spans
    every chunk this worker executes, and each chunk runs through the
    same worker-side function as a pool worker's
    (:func:`repro.experiment.engine._run_chunk`).  The loop only writes
    protocol lines to stdout — anything else a run might print would
    corrupt the stream, so nothing here prints.
    """
    from repro.experiment.engine import _prime_worker, _run_chunk
    from repro.runtime.cache import ExecutionCache

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    cache = ExecutionCache()
    _emit(stdout, {"op": "ready", "version": cache_version()})
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError:
            _emit(stdout, {"error": "request line is not JSON"})
            continue
        if not isinstance(request, dict):
            _emit(stdout, {"error": "request must be a JSON object"})
            continue
        op = request.get("op")
        if op == "warm":
            try:
                _prime_worker(cache, pickle.loads(base64.b64decode(request["state"])))
            except Exception as exc:  # a bad warm state is non-fatal
                _emit(stdout, {"op": "warmed", "error": f"{type(exc).__name__}: {exc}"})
            else:
                _emit(stdout, {"op": "warmed"})
            continue
        if op == "run":
            task_id = request.get("id")
            try:
                reply = dict(_run_chunk(cache, request["specs"]), id=task_id)
            except Exception as exc:
                reply = {"id": task_id, "error": f"{type(exc).__name__}: {exc}"}
            _emit(stdout, reply)
            continue
        _emit(stdout, {"error": f"unknown op {op!r}"})
    return 0


# -- parent-side host handles --------------------------------------------------


class _SubprocessHost:
    """One worker process (local, ssh, or explicit command) and its pipes.

    The worker's stderr goes to a temporary file, so a failure can quote
    the last lines it wrote (a traceback, an ssh error).
    """

    def __init__(self, host: str, command: Sequence[str]) -> None:
        self.host = host
        self._stderr = tempfile.TemporaryFile()
        try:
            self.process = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                text=True,
            )
        except OSError as exc:
            self._stderr.close()
            raise RemoteError(f"cannot start worker for {host!r}: {exc}") from exc
        try:
            ready = self._read_reply("during the handshake")
            if ready.get("op") != "ready":
                raise self._error(f"did not handshake: {ready!r}")
            version = ready.get("version")
            if version != cache_version():
                raise RemoteError(
                    f"worker {host!r} runs different code "
                    f"(fingerprint {version!r} != {cache_version()!r}); "
                    "byte-identical records need identical code on every host"
                )
        except RemoteError:
            self.close()
            raise

    def _error(self, what: str) -> RemoteError:
        """A failure naming this worker and quoting the end of its stderr."""
        fd = self._stderr.fileno()  # pread: the worker shares the file offset
        tail = os.pread(fd, 4096, max(0, os.fstat(fd).st_size - 4096))
        lines = tail.decode("utf-8", "replace").splitlines()[-20:]
        quoted = "; its stderr ends:\n" + "\n".join(lines) if lines else ""
        return RemoteError(f"worker {self.host!r} {what}{quoted}")

    def _read_reply(self, context: str) -> dict:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            raise self._error(f"closed its stream (died?) {context}")
        try:
            reply = json.loads(line)
        except ValueError:
            reply = None
        if not isinstance(reply, dict):
            raise self._error(f"spoke garbage {context}: {line[:200]!r}")
        return reply

    def call(self, request: Mapping, context: str) -> dict:
        assert self.process.stdin is not None
        try:
            self.process.stdin.write(json.dumps(request, sort_keys=True) + "\n")
            self.process.stdin.flush()
        except OSError as exc:  # a dead worker's stdin is a broken pipe
            raise self._error(f"stopped reading requests {context}: {exc}") from exc
        return self._read_reply(context)

    def warm(self, encoded_state: str) -> None:
        self.call({"op": "warm", "state": encoded_state}, "while warming")

    def run_chunk(self, start: int, spec_dicts: Sequence[dict]) -> tuple[list, dict]:
        context = f"running {_chunk_name(start, len(spec_dicts))}"
        reply = self.call({"op": "run", "id": start, "specs": list(spec_dicts)}, context)
        if "error" in reply:
            raise self._error(f"failed {context}: {reply['error']}")
        return list(reply.get("records", ())), dict(reply.get("cache_stats", {}))

    def close(self) -> None:
        try:
            if self.process.stdin is not None:
                self.process.stdin.close()
            self.process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
        self._stderr.close()


class _HttpHost:
    """A ``repro serve`` endpoint driven through ``POST /v1/sweep``."""

    def __init__(self, host: str) -> None:
        self.host = host
        rest = host.split("://", 1)[1]
        rest = rest.split("/", 1)[0]
        name, _, port = rest.partition(":")
        if not name or not port.isdigit():
            raise RemoteError(
                f"http host must look like http://host:port, got {host!r}"
            )
        self._addr = (name, int(port))

    def warm(self, encoded_state: str) -> None:
        pass  # the service owns its session; nothing to prime remotely

    def run_chunk(self, start: int, spec_dicts: Sequence[dict]) -> tuple[list, dict]:
        from repro.io.ndjson import parse_records_ndjson_header
        from repro.serve.client import request as http_request

        chunk = _chunk_name(start, len(spec_dicts))
        try:
            response = http_request(
                self._addr[0],
                self._addr[1],
                "POST",
                "/v1/sweep",
                {"specs": list(spec_dicts)},
                timeout=600.0,
            )
        except OSError as exc:
            raise RemoteError(
                f"service {self.host!r} unreachable running {chunk}: {exc}"
            ) from exc
        if response.status != 200:
            raise RemoteError(
                f"service {self.host!r} rejected {chunk}: HTTP {response.status}"
            )
        lines = response.lines()
        try:
            parse_records_ndjson_header(lines[0] if lines else "")
        except ReproError as exc:
            raise RemoteError(f"service {self.host!r} answered {chunk}: {exc}") from exc
        records = []
        for line in lines[1:]:  # after the schema header
            try:
                row = json.loads(line)
            except ValueError:
                row = None
            if not isinstance(row, dict) or "scenario" not in row:
                # A service that cannot finish a sweep ends it with an
                # error line: the chunk goes back for a live host.
                raise RemoteError(
                    f"service {self.host!r} did not finish {chunk}: {line[:300]}"
                )
            records.append(row)
        return records, {}

    def close(self) -> None:
        pass


def _open_host(host: str):
    """A host handle for one endpoint string (see the module docstring)."""
    if host == "local":
        return _SubprocessHost(host, [sys.executable, "-m", "repro", "worker"])
    if host.startswith("ssh:"):
        target = host[len("ssh:") :]
        if not target:
            raise RemoteError("ssh host needs a target: 'ssh:user@box'")
        return _SubprocessHost(
            host, ["ssh", "-o", "BatchMode=yes", target, "python3", "-m", "repro", "worker"]
        )
    if host.startswith("cmd:"):
        words = shlex.split(host[len("cmd:") :])
        if not words:
            raise RemoteError("cmd host needs a command line: 'cmd:python -m repro worker'")
        return _SubprocessHost(host, words)
    if host.startswith("https://"):
        raise RemoteError(
            f"host {host!r} rejected: TLS is unsupported (the client speaks "
            "plain HTTP only; reach the service over http:// or through ssh:)"
        )
    if host.startswith("http://"):
        return _HttpHost(host)
    raise RemoteError(
        f"unknown host endpoint {host!r}; expected 'local', 'ssh:<target>', "
        "'cmd:<command>', or 'http://host:port'"
    )


# -- the pump plane --------------------------------------------------------------


class HostPumps:
    """One pump thread per host endpoint, all fed from one chunk queue
    (see the module docstring); the engine's ``hosts`` backend drains
    the reply futures :meth:`submit` returns in spec order, and
    :meth:`close` ends the sweep.  ``warm_state`` (the engine's worker
    warm state, or ``None``) primes every subprocess/SSH worker first.
    """

    def __init__(self, hosts: Sequence[str], warm_state: dict | None) -> None:
        encoded_state = None
        if warm_state is not None:
            blob = pickle.dumps(warm_state, protocol=pickle.HIGHEST_PROTOCOL)
            encoded_state = base64.b64encode(blob).decode("ascii")
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._alive = len(hosts)
        self._failures: list[Exception] = []
        self._threads = [
            threading.Thread(target=self._pump, args=(slot, host, encoded_state), daemon=True)
            for slot, host in enumerate(hosts)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, start: int, spec_dicts: list) -> Future:
        future: Future = Future()
        with self._lock:
            if self._alive:
                self._queue.put((start, spec_dicts, future))
                return future
            error = self._stranded(start, len(spec_dicts))
        future.set_exception(error)
        return future

    def close(self) -> None:
        """End the sweep: drop unclaimed chunks, stop every pump, wait."""
        for _, _, future in self._unclaimed():
            future.cancel()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()

    def _unclaimed(self) -> list:
        items = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return items
            if item is not None:
                items.append(item)

    def _stranded(self, start: int, count: int) -> RemoteError:
        reasons = "; ".join(str(exc) for exc in self._failures)
        return RemoteError(f"{_chunk_name(start, count)} has no live host left: {reasons}")

    def _pump(self, slot: int, host: str, encoded_state: str | None) -> None:
        handle = None
        try:
            handle = _open_host(host)
            if encoded_state is not None:
                handle.warm(encoded_state)
            for seq in itertools.count(1):
                item = self._queue.get()
                if item is None:
                    return
                start, spec_dicts, future = item
                try:
                    records, cache_stats = handle.run_chunk(start, spec_dicts)
                except BaseException:
                    self._queue.put(item)  # for a live host to steal
                    raise
                future.set_result(
                    {"records": records, "cache_stats": cache_stats, "worker": slot, "seq": seq}
                )
        except Exception as exc:  # this host is out; the others carry on
            with self._lock:
                self._failures.append(exc)
                self._alive -= 1
                if not self._alive:
                    for start, spec_dicts, future in self._unclaimed():
                        future.set_exception(self._stranded(start, len(spec_dicts)))
        finally:
            if handle is not None:
                handle.close()
