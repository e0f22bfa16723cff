"""The matching service plane: HTTP endpoints, admission, jobs, loadgen.

End-to-end tests boot the real service on a real socket (port 0) via
``start_background`` and talk to it with the blocking client — the same
path ``repro serve`` + curl exercises.  The load-bearing invariant:
records that leave the service are byte-identical to the same work run
in-process.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.errors import ReproError, ServeError
from repro.experiment import Engine, ScenarioSpec, Session, Sweep
from repro.experiment.spec import ExecutorSpec
from repro.io import iter_records_ndjson, record_ndjson_line, records_ndjson_header
from repro.serve import ServiceConfig, request, start_background

SPEC = ScenarioSpec()
SWEEP = Sweep.seeds(SPEC, range(4))
#: About two seconds of work in one worker: long enough to be caught in
#: flight.
SLOW = ScenarioSpec.from_dict(
    {
        "adversary": {"kind": "equivocate", "seed": 1, "corrupt": "budget"},
        "topology": "bipartite",
        "profile": {"kind": "random", "seed": 1},
        "k": 8,
        "tL": 8,
        "tR": 2,
    }
)


@pytest.fixture(scope="module")
def service():
    """One shared service for the read-mostly endpoint tests."""
    handle = start_background(ServiceConfig(port=0))
    yield handle
    handle.stop()


def _poll_job(handle, job_id: str, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        data = request(handle.host, handle.port, "GET", f"/v1/jobs/{job_id}").json()
        if data["status"] in ("done", "failed"):
            return data
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


def _wait_for_inflight(handle, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        statz = request(handle.host, handle.port, "GET", "/statz").json()
        if statz["admission"]["inflight"] >= 1:
            return
        time.sleep(0.01)
    raise AssertionError("no request ever went in flight")


class TestEndpoints:
    def test_healthz(self, service):
        response = request(service.host, service.port, "GET", "/healthz")
        assert response.status == 200
        assert response.json()["status"] == "ok"

    def test_run_records_match_in_process(self, service):
        response = request(service.host, service.port, "POST", "/v1/run", SPEC.to_dict())
        assert response.status == 200
        payload = response.json()
        expected = Session().run(SPEC)
        assert payload["count"] == len(expected)
        assert payload["records"] == [record.to_dict() for record in expected]

    def test_run_lattice_flag_stamps_position_tags(self, service):
        spec = ScenarioSpec(k=3, tL=0, tR=0)
        response = request(
            service.host, service.port, "POST", "/v1/run?lattice=1", spec.to_dict()
        )
        assert response.status == 200
        records = response.json()["records"]
        assert records
        for record in records:
            stamped = [t for t in record["tags"] if t.startswith("lattice_position=")]
            # The deterministic protocol lands on the L-optimal element
            # (the empty rotation set) on a fault-free run.
            assert stamped == ["lattice_position=rot[]"]
        # Except for the tag, the records are the in-process ones.
        expected = Session().run(spec)
        assert len(records) == len(expected)
        for served, record in zip(records, expected):
            untagged = dict(served, tags=[t for t in served["tags"] if not t.startswith("lattice_position=")])
            assert untagged == record.to_dict()

    def test_run_without_lattice_flag_stamps_nothing(self, service):
        spec = ScenarioSpec(k=3, tL=0, tR=0)
        response = request(
            service.host, service.port, "POST", "/v1/run", spec.to_dict()
        )
        for record in response.json()["records"]:
            assert not any(
                t.startswith("lattice_position=") for t in record["tags"]
            )

    @pytest.mark.parametrize("plane", ["batch", "parallel"])
    def test_sweep_stream_is_byte_identical_to_in_process(self, plane):
        handle = start_background(
            ServiceConfig(port=0, sweep_executor=ExecutorSpec(name=plane))
        )
        try:
            response = request(
                handle.host, handle.port, "POST", "/v1/sweep", SWEEP.to_dict()
            )
        finally:
            handle.stop()
        assert response.status == 200
        assert response.headers["content-type"] == "application/x-ndjson"
        # The stream is EOF-delimited, so the server must close.
        assert response.headers["connection"] == "close"
        records = Session(executor=ExecutorSpec(name="parallel")).sweep(SWEEP)
        expected = records_ndjson_header() + "".join(
            record_ndjson_line(record) for record in records
        )
        assert response.body.decode("utf-8") == expected

    def test_sweep_stream_reloads_as_records(self, service):
        from repro.experiment.records import RunRecord

        response = request(
            service.host, service.port, "POST", "/v1/sweep", SWEEP.to_dict()
        )
        header, *lines = response.lines()
        assert json.loads(header)["kind"] == "run-records"
        rebuilt = [RunRecord.from_dict(json.loads(line)) for line in lines]
        assert rebuilt == list(Session().sweep(SWEEP))

    def test_statz_reports_counters_and_latency(self, service):
        request(service.host, service.port, "POST", "/v1/run", SPEC.to_dict())
        statz = request(service.host, service.port, "GET", "/statz").json()
        assert statz["status"] == "ok"
        assert statz["records_served"] >= 1
        assert statz["executions"] >= 1
        assert statz["cache"]["signatures"]["hits"] >= 0
        run_stats = statz["endpoints"]["/v1/run"]
        assert run_stats["requests"] >= 1
        assert run_stats["latency"]["p50_ms"] > 0
        assert statz["admission"]["admitted"] >= 1
        assert statz["config"]["max_inflight"] == 4

    def test_malformed_body_is_structured_400(self, service):
        response = request(
            service.host, service.port, "POST", "/v1/run", b"{not json"
        )
        assert response.status == 400
        assert response.json()["error"]["code"] == "bad_json"

    def test_invalid_spec_is_structured_400(self, service):
        response = request(
            service.host, service.port, "POST", "/v1/run", {"k": "banana"}
        )
        assert response.status == 400
        error = response.json()["error"]
        assert error["code"] == "bad_spec"
        assert "banana" in error["message"]

    def test_invalid_sweep_is_structured_400(self, service):
        response = request(
            service.host, service.port, "POST", "/v1/sweep", {"nope": []}
        )
        assert response.status == 400
        assert response.json()["error"]["code"] == "bad_sweep"

    def test_unknown_route_404(self, service):
        response = request(service.host, service.port, "GET", "/v2/everything")
        assert response.status == 404
        assert response.json()["error"]["code"] == "not_found"

    def test_wrong_method_405(self, service):
        response = request(service.host, service.port, "GET", "/v1/run")
        assert response.status == 405

    def test_oversized_spec_is_413_before_reading_body(self):
        handle = start_background(ServiceConfig(port=0, max_spec_bytes=64))
        try:
            big = {"name": "x" * 1000}
            response = request(handle.host, handle.port, "POST", "/v1/run", big)
            assert response.status == 413
            assert response.json()["error"]["code"] == "spec_too_large"
        finally:
            handle.stop()


class TestJobs:
    def test_run_job_lifecycle(self, service):
        submitted = request(
            service.host, service.port, "POST", "/v1/jobs", {"spec": SPEC.to_dict()}
        )
        assert submitted.status == 202
        job_id = submitted.json()["job"]
        data = _poll_job(service, job_id)
        assert data["status"] == "done"
        expected = Session().run(SPEC)
        assert data["records"] == [record.to_dict() for record in expected]
        assert data["elapsed_seconds"] > 0

    def test_sweep_job_lifecycle(self, service):
        submitted = request(
            service.host, service.port, "POST", "/v1/jobs", {"sweep": SWEEP.to_dict()}
        )
        job_id = submitted.json()["job"]
        data = _poll_job(service, job_id)
        assert data["status"] == "done"
        assert data["records"] == [
            record.to_dict() for record in Session().sweep(SWEEP)
        ]

    def test_unknown_job_404(self, service):
        response = request(service.host, service.port, "GET", "/v1/jobs/job-999999")
        assert response.status == 404
        assert response.json()["error"]["code"] == "unknown_job"

    def test_bad_job_body_400(self, service):
        for body in ({}, {"spec": SPEC.to_dict(), "sweep": SWEEP.to_dict()}):
            response = request(service.host, service.port, "POST", "/v1/jobs", body)
            assert response.status == 400
            assert response.json()["error"]["code"] == "bad_job"


class TestAdmission:
    def test_overload_sheds_503_with_retry_after(self):
        # One slot, no queue: while the test itself holds the slot,
        # anything at the door is shed immediately.
        handle = start_background(
            ServiceConfig(port=0, max_inflight=1, max_queue=0, retry_after_seconds=2)
        )
        admission = handle.service.admission
        try:
            asyncio.run_coroutine_threadsafe(admission.admit(), handle._loop).result()
            try:
                shed = request(handle.host, handle.port, "POST", "/v1/run", SPEC.to_dict())
            finally:
                handle._loop.call_soon_threadsafe(admission.release)
            assert shed.status == 503
            assert shed.headers["retry-after"] == "2"
            assert shed.json()["error"]["code"] == "overloaded"
            # The slot is free again: the same request now runs.
            served = request(handle.host, handle.port, "POST", "/v1/run", SPEC.to_dict())
            assert served.status == 200
            statz = request(handle.host, handle.port, "GET", "/statz").json()
            assert statz["admission"]["shed_queue_full"] >= 1
            assert statz["endpoints"]["/v1/run"]["shed"] >= 1
        finally:
            handle.stop()

    def test_graceful_shutdown_drains_inflight_sweep(self):
        handle = start_background(ServiceConfig(port=0, max_inflight=1))
        big = Sweep.seeds(SPEC, range(40))
        streamed: dict = {}
        worker = threading.Thread(
            target=lambda: streamed.update(
                response=request(
                    handle.host, handle.port, "POST", "/v1/sweep", big.to_dict()
                )
            )
        )
        worker.start()
        _wait_for_inflight(handle)
        handle.stop()  # graceful: drains the in-flight stream first
        worker.join(timeout=60)
        response = streamed["response"]
        assert response.status == 200
        header, *lines = response.lines()
        assert len(lines) == len(big)  # nothing truncated by shutdown
        # The listener is gone afterwards.
        with pytest.raises(OSError):
            request(handle.host, handle.port, "GET", "/healthz", timeout=2.0)

    def test_draining_service_sheds_new_work(self):
        handle = start_background(ServiceConfig(port=0))
        try:
            handle.service.admission.start_draining()
            health = request(handle.host, handle.port, "GET", "/healthz")
            assert health.json()["status"] == "draining"
            shed = request(handle.host, handle.port, "POST", "/v1/run", SPEC.to_dict())
            assert shed.status == 503
        finally:
            handle.stop()


def _pool_pids(handle) -> tuple[int, ...]:
    return handle.service.workers.pids()


def _alive(pid: int) -> bool:
    """Whether ``pid`` still exists (a zombie counts: nobody joined it)."""
    return os.path.exists(f"/proc/{pid}")


def _wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never held")
        time.sleep(0.01)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
class TestWorkerPool:
    def test_pool_is_max_inflight_processes_and_stop_joins_them(self):
        handle = start_background(ServiceConfig(port=0, max_inflight=3))
        pids = _pool_pids(handle)
        response = request(handle.host, handle.port, "POST", "/v1/run", SPEC.to_dict())
        assert response.status == 200
        assert len(pids) == 3 and all(_alive(pid) for pid in pids)
        handle.stop()
        assert not any(_alive(pid) for pid in pids)

    def test_killed_worker_fails_inflight_run_then_pool_is_replaced(self):
        handle = start_background(ServiceConfig(port=0, max_inflight=2))
        first = _pool_pids(handle)
        second: tuple[int, ...] = ()
        try:
            replies: dict = {}
            client = threading.Thread(
                target=lambda: replies.update(
                    run=request(handle.host, handle.port, "POST", "/v1/run", SLOW.to_dict())
                )
            )
            client.start()
            _wait_for_inflight(handle)
            time.sleep(0.2)  # the task is in a worker now
            os.kill(first[0], signal.SIGKILL)
            client.join(timeout=60)
            failed = replies["run"]
            assert failed.status == 500
            assert failed.json()["error"]["code"] == "worker_died"
            health = request(handle.host, handle.port, "GET", "/healthz")
            assert health.json()["status"] == "ok"
            # The next run lands on a fresh pool and returns the
            # in-process records.
            response = request(handle.host, handle.port, "POST", "/v1/run", SPEC.to_dict())
            assert response.status == 200
            expected = Session(executor="batch").sweep(Sweep.of(SPEC))
            assert response.json()["records"] == [record.to_dict() for record in expected]
            second = _pool_pids(handle)
            assert second and not set(second) & set(first)
        finally:
            handle.stop()
        assert not any(_alive(pid) for pid in first + second)

    def test_killed_worker_ends_inflight_sweep_with_error_line(self, tmp_path):
        # One-spec chunks (parallel plane, two workers): the fast specs
        # stream before the slow ones are caught in flight.
        handle = start_background(
            ServiceConfig(
                port=0, sweep_executor=ExecutorSpec(name="parallel", workers=2)
            )
        )
        sweep = Sweep.of(SPEC, ScenarioSpec(k=3), *([SLOW] * 6))
        try:
            pids = _pool_pids(handle)
            replies: dict = {}
            client = threading.Thread(
                target=lambda: replies.update(
                    sweep=request(
                        handle.host, handle.port, "POST", "/v1/sweep", sweep.to_dict()
                    )
                )
            )
            client.start()

            def statz() -> dict:
                return request(handle.host, handle.port, "GET", "/statz").json()

            _wait_for(lambda: statz()["records_served"] >= 2)
            os.kill(pids[0], signal.SIGKILL)
            client.join(timeout=60)
            response = replies["sweep"]
            assert response.status == 200  # sent before the worker died
            header, *lines, trailer = response.lines()
            assert json.loads(header)["kind"] == "run-records"
            # Whole, correct records, then one error line.
            assert json.loads(trailer)["error"]["code"] == "worker_died"
            assert 2 <= len(lines) < len(sweep)
            expected = Session(executor="batch").sweep(sweep.specs[: len(lines)])
            assert lines == [record_ndjson_line(record).rstrip("\n") for record in expected]
            assert statz()["endpoints"]["/v1/sweep"]["errors"] == 1
            assert request(handle.host, handle.port, "GET", "/healthz").status == 200
        finally:
            handle.stop()
        captured = tmp_path / "sweep.ndjson"
        captured.write_bytes(response.body)
        with pytest.raises(ReproError, match="ends with an error.*worker_died"):
            list(iter_records_ndjson(captured))

    def test_http_host_hands_back_a_chunk_its_worker_died_on(self):
        # Two services as hosts, one chunk each; the victim's worker is
        # killed mid-chunk, so the survivor must run that chunk too.
        victim = start_background(ServiceConfig(port=0, max_inflight=1))
        survivor = start_background(ServiceConfig(port=0, max_inflight=1))
        # Each must still be running when the 0.2 s kill below lands, on
        # a fast host too (SLOW takes about 0.8 s on a 2-vCPU x86-64 host).
        specs = (SLOW, SLOW)
        hosts = tuple(f"http://{h.host}:{h.port}" for h in (victim, survivor))
        pids = _pool_pids(victim) + _pool_pids(survivor)
        try:
            result: dict = {}
            client = threading.Thread(
                target=lambda: result.update(
                    records=Engine("hosts", hosts=hosts).run_sweep(specs)
                )
            )
            client.start()
            _wait_for_inflight(victim)
            time.sleep(0.2)  # the chunk is in the victim's worker now
            os.kill(_pool_pids(victim)[0], signal.SIGKILL)
            client.join(timeout=60)
            assert result["records"].to_json() == Session(executor="batch").sweep(specs).to_json()
            victim_statz = request(victim.host, victim.port, "GET", "/statz").json()
            assert victim_statz["endpoints"]["/v1/sweep"]["errors"] == 1
            survivor_statz = request(survivor.host, survivor.port, "GET", "/statz").json()
            assert survivor_statz["endpoints"]["/v1/sweep"]["requests"] == 2
        finally:
            victim.stop()
            survivor.stop()
        assert not any(_alive(pid) for pid in pids + _pool_pids(victim))

    def test_pool_replacement_leaves_the_event_loop_free(self, monkeypatch):
        handle = start_background(ServiceConfig(port=0, max_inflight=1))
        workers = handle.service.workers
        first = _pool_pids(handle)
        forking, release = threading.Event(), threading.Event()
        fork = workers._fork

        def slow_fork():
            forking.set()
            release.wait(timeout=30)
            return fork()

        try:
            os.kill(first[0], signal.SIGKILL)
            _wait_for(lambda: not _alive(first[0]))  # reaped: the pool is broken
            monkeypatch.setattr(workers, "_fork", slow_fork)
            replies: dict = {}
            client = threading.Thread(
                target=lambda: replies.update(
                    run=request(handle.host, handle.port, "POST", "/v1/run", SPEC.to_dict())
                )
            )
            client.start()
            assert forking.wait(timeout=10)
            # The replacement is under way and blocked: the loop still answers.
            health = request(handle.host, handle.port, "GET", "/healthz", timeout=5.0)
            assert health.json()["status"] == "ok"
            release.set()
            client.join(timeout=60)
            assert replies["run"].status == 200
            expected = Session(executor="batch").sweep(Sweep.of(SPEC))
            assert replies["run"].json()["records"] == [record.to_dict() for record in expected]
        finally:
            release.set()
            handle.stop()

    def test_stop_without_drain_terminates_busy_workers(self):
        handle = start_background(ServiceConfig(port=0, max_inflight=1))
        pids = _pool_pids(handle)

        def client() -> None:
            try:
                request(handle.host, handle.port, "POST", "/v1/run", SLOW.to_dict())
            except OSError:
                pass  # the connection closes under it

        thread = threading.Thread(target=client)
        thread.start()
        _wait_for_inflight(handle)
        started = time.monotonic()
        handle.stop(drain=False)
        assert time.monotonic() - started < 1.5  # the run alone takes ~2 s
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert not any(_alive(pid) for pid in pids)

    def test_failed_bind_leaves_no_workers(self):
        def children() -> set[int]:
            out = set()
            for name in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{name}/stat") as stat:
                        ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
                except (OSError, ValueError, IndexError):
                    continue  # exited since the listing
                if ppid == os.getpid():
                    out.add(int(name))
            return out

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            before = children()
            with pytest.raises(OSError):
                start_background(ServiceConfig(port=taken.getsockname()[1]))
        assert children() <= before

    def test_statz_cache_totals_match_in_process_runs(self):
        specs = [ScenarioSpec(k=k, tL=1, tR=0) for k in (2, 3)] + [SPEC]
        handle = start_background(ServiceConfig(port=0))
        try:
            for spec in specs:
                response = request(handle.host, handle.port, "POST", "/v1/run", spec.to_dict())
                assert response.status == 200
            statz = request(handle.host, handle.port, "GET", "/statz").json()
        finally:
            handle.stop()
        in_process = [
            Session(executor="batch").sweep(Sweep.of(spec)).cache_stats for spec in specs
        ]
        assert statz["executions"] == len(specs)
        for family in ("signatures", "verifications"):
            served = statz["cache"][family]
            assert served["hits"] + served["misses"] > 0
            assert served["hits"] == sum(stats[family]["hits"] for stats in in_process)
            assert served["misses"] == sum(stats[family]["misses"] for stats in in_process)


class TestAdmissionController:
    def test_queue_full_sheds(self):
        import asyncio

        from repro.serve.admission import AdmissionController, Overloaded

        async def scenario():
            admission = AdmissionController(max_inflight=1, max_queue=1)
            await admission.admit()  # takes the slot
            waiter = asyncio.create_task(admission.admit())  # fills the queue
            await asyncio.sleep(0)  # let the waiter block on the semaphore
            with pytest.raises(Overloaded):
                await admission.admit()  # queue full: shed
            assert admission.stats()["shed_queue_full"] == 1
            admission.release()
            await waiter
            assert admission.inflight == 1
            admission.release()
            assert await admission.drain(timeout=1.0)
            with pytest.raises(Overloaded):
                await admission.admit()  # draining: shed
            assert admission.stats()["shed_draining"] == 1

        asyncio.run(scenario())


class TestJobTable:
    def test_eviction_and_overload(self):
        from repro.serve.jobs import DONE, JobTable
        from repro.serve.admission import Overloaded

        table = JobTable(capacity=2)
        first = table.submit("run")
        table.submit("run")
        with pytest.raises(Overloaded):
            table.submit("run")  # both rows live
        first.status = DONE
        third = table.submit("run")  # evicts the finished row
        assert table.get(first.id) is None
        assert table.get(third.id) is third
        assert table.evicted == 1
        assert table.stats()["size"] == 2


class TestLatencyHistogram:
    def test_percentiles_from_buckets(self):
        from repro.serve.stats import LatencyHistogram

        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.observe(0.0015)  # ~1.5ms -> bucket <=2ms
        histogram.observe(1.0)  # one 1s outlier
        data = histogram.to_dict()
        assert data["count"] == 100
        assert data["p50_ms"] == 2.0
        assert data["p99_ms"] == 2.0  # the 99th sample is still fast
        assert data["max_ms"] == pytest.approx(1000.0)
        assert data["buckets_ms"]["2"] == 99

    def test_empty_histogram(self):
        from repro.serve.stats import LatencyHistogram

        data = LatencyHistogram().to_dict()
        assert data == {
            "count": 0,
            "mean_ms": 0.0,
            "max_ms": 0.0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
            "buckets_ms": {},
        }


class TestServiceStats:
    def test_cache_totals_are_running_sums(self):
        from repro.runtime import merge_cache_stats
        from repro.serve.stats import ServiceStats

        stats = ServiceStats()
        fed = [
            {
                "signatures": {"entries": i, "hits": 2 * i, "misses": 1},
                "verifications": {"entries": 1, "hits": i, "misses": 0},
                "memo": {"entries": 0, "hits": 0, "misses": i % 3},
                "encode": {"leaf_entries": i},
                "workers": [{"signatures": {"hits": 2 * i}}],
            }
            for i in range(200)
        ]
        for entry in fed:
            stats.observe_cache(entry)
        stats.observe_cache({})  # no shared cache: no execution
        data = stats.to_dict()
        assert data["executions"] == len(fed)
        assert data["cache"]["signatures"]["hits"] == sum(2 * i for i in range(200))
        assert data["cache"]["signatures"]["misses"] == 200
        assert data["cache"]["memo"]["misses"] == sum(i % 3 for i in range(200))
        assert data["cache"]["encode"] == {"leaf_entries": sum(range(200))}
        # The same report a merge of every request's stats gives ...
        merged = merge_cache_stats(fed)
        del merged["workers"]
        assert data["cache"] == merged
        # ... from totals alone: nothing grows with the request count.
        assert not any(isinstance(value, (list, tuple)) for value in vars(stats).values())
        assert "workers" not in data["cache"]


class TestServiceConfig:
    def test_round_trip(self):
        config = ServiceConfig(port=9000, max_inflight=2)
        clone = ServiceConfig.from_json(config.to_json())
        assert clone == config

    def test_validation(self):
        with pytest.raises(ServeError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ServeError):
            ServiceConfig(port=99999)
        with pytest.raises(ServeError):
            ServiceConfig(sweep_executor=ExecutorSpec(name="serial"))
        assert issubclass(ServeError, ReproError)


class TestLoadgen:
    def test_burst_against_live_service(self):
        from repro.serve.loadgen import LoadConfig, run_load

        handle = start_background(ServiceConfig(port=0))
        try:
            report = run_load(
                LoadConfig(port=handle.port, total_requests=20, concurrency=3)
            )
        finally:
            handle.stop()
        assert report.total == 20
        assert report.ok == 20
        assert report.errors == 0 and report.shed == 0
        assert report.requests_per_second > 0
        data = report.to_dict()
        assert data["latency_ms"]["p99"] >= data["latency_ms"]["p50"] > 0

    def test_loadgen_cli_main(self, capsys):
        from repro.serve.loadgen import main

        handle = start_background(ServiceConfig(port=0))
        try:
            code = main(
                ["--port", str(handle.port), "--requests", "8", "--concurrency", "2"]
            )
        finally:
            handle.stop()
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] == 8

    def test_config_validation(self):
        from repro.serve.loadgen import LoadConfig

        with pytest.raises(ValueError):
            LoadConfig(total_requests=0)
        with pytest.raises(ValueError):
            LoadConfig(concurrency=0)


class TestServeCLI:
    def test_probe_against_background_service(self, capsys):
        from repro.cli import main

        handle = start_background(ServiceConfig(port=0))
        try:
            code = main(["serve", "--probe", "--port", str(handle.port)])
        finally:
            handle.stop()
        assert code == 0
        assert '"status": "ok"' in capsys.readouterr().out

    def test_probe_against_nothing_fails(self, capsys):
        from repro.cli import main

        # A port nothing listens on: bind-and-release to find one.
        import socket

        with socket.socket() as probe_socket:
            probe_socket.bind(("127.0.0.1", 0))
            free_port = probe_socket.getsockname()[1]
        assert main(["serve", "--probe", "--port", str(free_port)]) == 1
