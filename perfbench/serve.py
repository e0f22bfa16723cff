"""serve_closed_loop: ``repro serve`` under a closed loop of two clients.

The service is booted as its own process through the CLI
(``python3 -m repro serve --port 0 --sweep-executor batch``).  Two
keep-alive connections opened by this process drive it: each sends its
next request only after the previous reply has fully arrived.  A pass
is the fixed request list of :func:`perfbench.specs.serve_requests` in
a seeded order;
``/v1/sweep`` streams are EOF-delimited, so the connection that carried
one reconnects for its next request.

Every response must be 200, every ``/v1/run`` body must carry exactly
the in-process records of its spec, and every ``/v1/sweep`` stream must
be byte-identical to the in-process NDJSON of its specs.

The traced run measures half of ``--seconds`` against the plain server
(the ``serve.*`` layer metrics come from ``/statz`` and ``/proc`` there)
and half against a server started through
:mod:`perfbench.traced_serve`, which reports the library layers' spans
when it exits.  On this workload ``trace.traced_wall_s`` is the
server's busy time per pass (its root spans, summed over threads).
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

from perfbench import common, layers, specs

_HOST = "127.0.0.1"


class Connection:
    """A keep-alive HTTP/1.1 client connection (reopened after a close)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._sock: socket.socket | None = None
        self._file = None

    def close(self) -> None:
        if self._sock is not None:
            self._file.close()
            self._sock.close()
            self._sock = self._file = None

    def call(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes, float, float]:
        """``(status, body, first record at, last byte at)``; times in
        seconds from the send."""
        if self._sock is None:
            self._sock = socket.create_connection((_HOST, self.port), timeout=120)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._file = self._sock.makefile("rb")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {_HOST}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        started = time.perf_counter()
        self._sock.sendall(head + body)
        status_line = self._file.readline()
        if not status_line:
            raise ConnectionError("connection closed before a response")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self._file.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "content-length" in headers:
            payload = self._file.read(int(headers["content-length"]))
            first = time.perf_counter() - started
        else:  # an NDJSON stream: schema header, then records, then EOF
            header_line = self._file.readline()
            first_line = self._file.readline()
            first = time.perf_counter() - started
            payload = header_line + first_line + self._file.read()
        last = time.perf_counter() - started
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, payload, first, last


class Server:
    """One service process, booted and stopped by the benchmark."""

    def __init__(self, spans_out: str | None = None) -> None:
        self.spans_out = spans_out
        args = ["--port", "0", "--sweep-executor", "batch"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, "-m", "perfbench.traced_serve", spans_out, *args]
        self.log_dir = common.scratch_dir("serve-")
        self._log = open(os.path.join(self.log_dir, "server.log"), "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, env=common.child_env(), stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        try:
            banner = self.proc.stdout.readline()
            if "listening on" not in banner:
                raise RuntimeError(f"server did not boot: {banner!r}")
            self.port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            probe = Connection(self.port)
            status = probe.call("GET", "/healthz")[0]
            probe.close()
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def statz(self) -> dict:
        probe = Connection(self.port)
        try:
            status, body, _, _ = probe.call("GET", "/statz")
        finally:
            probe.close()
        if status != 200:
            raise RuntimeError(f"/statz answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()
        common.remove_dir(self.log_dir)


def _bodies(requests) -> list[bytes]:
    bodies = []
    for path, group in requests:
        payload = group[0].to_dict() if path == "/v1/run" else {"specs": [s.to_dict() for s in group]}
        bodies.append(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return bodies


def _pass(port: int, requests, bodies, order: list[int]) -> tuple[float, list]:
    """Drive one pass through the closed loop, sending the requests in
    ``order``; ``(wall, replies)`` with replies in request-list order."""
    replies: list = [None] * len(requests)
    cursor = iter(order)
    lock = threading.Lock()

    def client() -> None:
        connection = Connection(port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                try:
                    replies[index] = connection.call("POST", requests[index][0], bodies[index])
                except OSError:
                    connection.close()
                    replies[index] = (0, b"", math.nan, math.nan)
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(specs.SERVE_CONNECTIONS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, replies


def _measure(server: Server, requests, bodies, seed: int, seconds: float,
             min_passes: int = 1) -> dict:
    """Warm up with one pass, then run passes for ``seconds`` (and at
    least ``min_passes``).

    Each pass sends the requests in a fresh seeded order, so a run
    averages over which requests happen to overlap on the two clients.
    """
    rng = random.Random(seed)

    def order() -> list[int]:
        indices = list(range(len(requests)))
        rng.shuffle(indices)
        return indices

    _pass(server.port, requests, bodies, order())
    if server.spans_out is not None:
        server.proc.send_signal(signal.SIGUSR1)  # forget the warm-up's spans
        time.sleep(0.2)
    before, cpu_before = server.statz(), common.proc_cpu_s(server.proc.pid)
    walls, passes = [], []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds or len(walls) < min_passes:
        wall, replies = _pass(server.port, requests, bodies, order())
        walls.append(wall)
        passes.append(replies)
    measured = sum(walls)
    return {
        "walls": walls, "passes": passes,
        "server_cpu": common.proc_cpu_s(server.proc.pid) - cpu_before,
        "hwm_mb": common.proc_hwm_mb(server.proc.pid),
        "before": before, "after": server.statz(), "measured": measured,
    }


def _failures(requests, passes, expected) -> int:
    """Replies that are not 200 or differ from the in-process records."""
    failed = 0
    for replies in passes:
        for (path, group), (status, body, _, _) in zip(requests, replies):
            if status != 200:
                failed += 1
            elif path == "/v1/run":
                failed += json.loads(body)["records"] != expected.run_records(group[0])
            else:
                failed += body != expected.stream(group)
    return failed


class Expected:
    """The in-process records every reply is checked against."""

    def __init__(self, spec_list) -> None:
        from repro import Session

        records = Session(executor="batch").sweep(spec_list).records
        self._by_spec = {spec.to_json(): record for spec, record in zip(spec_list, records)}

    def record(self, spec):
        return self._by_spec[spec.to_json()]

    def run_records(self, spec) -> list:
        return json.loads(json.dumps([self.record(spec).to_dict()]))

    def stream(self, group) -> bytes:
        from repro.io.ndjson import record_ndjson_line, records_ndjson_header

        lines = [record_ndjson_line(self.record(spec)) for spec in group]
        return (records_ndjson_header() + "".join(lines)).encode("utf-8")


def _endpoint_delta(before: dict, after: dict, name: str) -> tuple[int, float]:
    """Requests and summed latency (ms) of one endpoint between snapshots."""
    def totals(snapshot):
        stats = snapshot["endpoints"].get(name)
        if stats is None:
            return 0, 0.0
        latency = stats["latency"]
        return latency["count"], latency["count"] * latency["mean_ms"]

    (count_a, sum_a), (count_b, sum_b) = totals(before), totals(after)
    return count_b - count_a, sum_b - sum_a


def _counter_delta(before: dict, after: dict, key: str) -> int:
    return sum(
        after["endpoints"][name][key] - before["endpoints"].get(name, {}).get(key, 0)
        for name in after["endpoints"]
    )


def _cache_delta(before: dict, after: dict) -> dict:
    delta = {}
    for family in ("signatures", "verifications", "memo"):
        a, b = before["cache"].get(family, {}), after["cache"].get(family, {})
        delta[family] = {key: b.get(key, 0) - a.get(key, 0) for key in ("hits", "misses")}
    return delta


def run(seed: int, seconds: float, trace: bool) -> dict:
    spec_list = specs.grid_specs(seed)
    requests = specs.serve_requests(spec_list)
    bodies = _bodies(requests)
    expected = Expected([spec for _, group in requests for spec in group])
    runs = [group for path, group in requests if path == "/v1/run"]
    # Enough passes for 1000 /v1/run samples, so run_p99_ms is a p99.
    min_passes = 1 if trace else math.ceil(1000 / len(runs))

    boots = []
    for attempt in range(common.SETUP_REPEATS):
        server = Server()
        boots.append(server.boot_s)
        if attempt < common.SETUP_REPEATS - 1:
            server.stop()
    try:
        plain = _measure(server, requests, bodies, seed, seconds / 2 if trace else seconds,
                         min_passes)
    finally:
        server.stop()
    traced = None
    if trace:
        spans_dir = common.scratch_dir("spans-")
        spans_out = os.path.join(spans_dir, "spans.json")
        traced_server = Server(spans_out)
        try:
            traced = _measure(traced_server, requests, bodies, seed, seconds / 2)
        finally:
            traced_server.stop()
        with open(spans_out, encoding="utf-8") as handle:
            traced["spans"] = json.load(handle)
        common.remove_dir(spans_dir)

    rounds = [plain] + ([traced] if traced else [])
    failed = sum(_failures(requests, stats["passes"], expected) for stats in rounds)
    attempted = len(requests) * sum(len(stats["passes"]) for stats in rounds)

    setup_s = common.median(boots)
    if trace:
        metrics = common.setup_layers({"server_boot_s": setup_s})
        metrics.update(_layers(plain, traced, requests, expected))
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "detail": {"passes": len(plain["passes"]), "traced_passes": len(traced["passes"])}}

    run_ms, sweep_first, sweep_last = [], [], []
    for replies in plain["passes"]:
        for (path, _), (_, _, first, last) in zip(requests, replies):
            if path == "/v1/run":
                run_ms.append(last * 1000.0)
            else:
                sweep_first.append(first)
                sweep_last.append(last * 1000.0)
    pct, p99 = common.tail(run_ms)
    walls = plain["walls"]
    metrics = {
        "setup_s": setup_s,
        "sweep_s": common.median(walls),
        "first_record_s": common.median(sweep_first),
        "peak_resident_records": max(len(group) for _, group in requests),
        "peak_rss_mb": plain["hwm_mb"],
        "req_per_s": len(requests) * len(walls) / plain["measured"],
        "run_p50_ms": common.percentile(run_ms, 50),
        "run_p99_ms": p99,
        "sweep_p50_ms": common.median(sweep_last),
        "success_ratio": 1.0 - failed / attempted,
    }
    detail = {"passes": len(walls), "requests_per_pass": len(requests),
              "run_requests_per_pass": len(runs), "run_samples": len(run_ms),
              "run_tail_percentile": pct, "sweep_samples": len(sweep_last),
              "boots_s": boots}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}


def _layers(plain: dict, traced: dict, requests, expected: Expected) -> dict:
    before, after, measured = plain["before"], plain["after"], plain["measured"]
    run_count, run_sum = _endpoint_delta(before, after, "/v1/run")
    sweep_count, sweep_sum = _endpoint_delta(before, after, "/v1/sweep")
    client_run = [
        last * 1000.0
        for replies in plain["passes"]
        for (path, _), (_, _, _, last) in zip(requests, replies)
        if path == "/v1/run"
    ]
    out = layers.cache_metrics(_cache_delta(before, after))
    out.update({
        "serve.run_server_mean_ms": run_sum / run_count,
        "serve.sweep_server_mean_ms": sweep_sum / sweep_count if sweep_count else 0.0,
        "serve.transport_ms": sum(client_run) / len(client_run) - run_sum / run_count,
        "serve.server_cpu_s": plain["server_cpu"] / len(plain["passes"]),
        "serve.server_utilization": plain["server_cpu"] / (common.cores() * measured),
        "serve.shed": _counter_delta(before, after, "shed"),
        "serve.errors": _counter_delta(before, after, "errors"),
    })
    count = len(traced["passes"])
    spans = traced["spans"]
    per_pass = [{key: value / count for key, value in table.items()}
                for table in (spans["self"], spans["span"], spans["calls"])]
    out.update(layers.span_metrics(*per_pass))
    busy = sum(per_pass[0].values())
    executed = [expected.record(spec) for _, group in requests for spec in group]
    out.update({
        "runtime.messages": sum(record.messages for record in executed),
        "runtime.bytes": sum(record.bytes for record in executed),
        "crypto.size_share": per_pass[0].get("crypto.size", 0.0) / busy if busy else 0.0,
        "trace.overhead_ratio": common.median(traced["walls"]) / common.median(plain["walls"]),
        "trace.traced_wall_s": busy,
    })
    return out
