"""Cross-executor differentials: the contract of the execution plane.

The engine's executor axis — serial, single-worker batch, the parallel
pool and the hosts plane — must be a pure throughput knob: for any
sweep, every executor returns byte-identical records in spec order.
This suite drives the same specs the runtime-equivalence suite uses
through the *engine* layer instead, including link faults, provenance
tags, and the warm-cache path, and pins the error contracts
(pool-backed executors reject structured tracing) plus the supporting
machinery (deterministic chunking, the in-order drain, cache-stats
merging, encode-memo snapshot/restore).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.problem import Setting
from repro.core.solvability import is_solvable
from repro.crypto.encoding import EncodeMemo, encode
from repro.errors import SolvabilityError
from repro.experiment import (
    AdversarySpec,
    ExecutorSpec,
    LinkSpec,
    ProfileSpec,
    ScenarioSpec,
    Session,
    Sweep,
)
from repro.experiment.engine import _spec_chunks
from repro.ids import left_party, right_party
from repro.net.topology import TOPOLOGY_NAMES
from repro.runtime import ExecutionCache, TraceRecorder, merge_cache_stats

SESSION = Session()

#: Every in-process and pool executor; serial is the reference (hosts
#: has its own class below: it spawns worker processes).
EXECUTOR_AXIS = ("serial", "batch", "parallel")

SWEEPS = {
    "plain_grid": Sweep.grid(
        topologies=("fully_connected",),
        auths=(True,),
        ks=(2, 3),
        budgets="solvable",
        adversary=AdversarySpec(kind="silent"),
    ),
    "link_faults": Sweep.of(
        ScenarioSpec(
            topology="fully_connected",
            authenticated=True,
            k=3,
            tL=1,
            tR=0,
            adversary=AdversarySpec(
                kind="silent", link=LinkSpec(kind="random", probability=0.2, seed=9)
            ),
        ),
        ScenarioSpec(
            topology="fully_connected",
            authenticated=True,
            k=2,
            adversary=AdversarySpec(
                kind="silent", corrupt=(), link=LinkSpec(kind="after_round", cutoff=2)
            ),
            max_rounds=30,
        ),
        ScenarioSpec(
            topology="bipartite",
            authenticated=True,
            k=3,
            tL=1,
            tR=1,
            adversary=AdversarySpec(
                kind="silent", link=LinkSpec(kind="partition")
            ),
            max_rounds=40,
        ),
    ),
    "tags_and_mutators": Sweep.of(
        ScenarioSpec(k=2, tags=("conform", "seed0", "ix1")),
        ScenarioSpec(
            topology="bipartite",
            authenticated=True,
            k=3,
            tL=1,
            tR=1,
            adversary=AdversarySpec(kind="equivocate", corrupt=("R0",)),
            tags=("ensemble", "ix2"),
        ),
        ScenarioSpec(
            topology="one_sided",
            authenticated=False,
            k=3,
            tL=0,
            tR=1,
            adversary=AdversarySpec(kind="noise", seed=5),
        ),
    ),
    "mixed_families": Sweep.of(
        ScenarioSpec(k=2, name="bsm"),
        ScenarioSpec(family="attack", attack="lemma7", name="attack"),
        ScenarioSpec(family="offline", algorithm="gale_shapley", k=5, name="offline"),
        ScenarioSpec(
            family="roommates",
            n=4,
            t=1,
            authenticated=True,
            adversary=AdversarySpec(kind="silent"),
            name="roommates",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_executors_byte_identical(name):
    """serial / batch / parallel agree byte-for-byte, in order."""
    sweep = SWEEPS[name]
    reference = SESSION.sweep(sweep)
    for executor in EXECUTOR_AXIS[1:]:
        candidate = SESSION.sweep(sweep, executor=executor, workers=2)
        assert candidate.to_json() == reference.to_json(), executor
        assert candidate.aggregate_json() == reference.aggregate_json(), executor
        assert candidate.executor == executor


def test_parallel_single_worker_stays_in_process():
    """One effective shard degrades to the batched path (no pool) and
    still reports a one-worker stats breakdown."""
    sweep = SWEEPS["plain_grid"]
    records = SESSION.sweep(sweep, executor="parallel", workers=1)
    assert records.to_json() == SESSION.sweep(sweep).to_json()
    assert len(records.cache_stats["workers"]) == 1


def test_parallel_merges_per_worker_cache_stats():
    sweep = SWEEPS["plain_grid"]
    records = SESSION.sweep(sweep, executor="parallel", workers=2)
    stats = records.cache_stats
    per_worker = stats["workers"]
    # One entry per pool worker that ran at least one chunk.
    assert 1 <= len(per_worker) <= 2
    for family in ("signatures", "verifications", "memo"):
        for key in ("entries", "hits", "misses"):
            assert stats[family][key] == sum(w[family][key] for w in per_worker)
        total = stats[family]["hits"] + stats[family]["misses"]
        if total:
            assert stats[family]["hit_rate"] == round(
                stats[family]["hits"] / total, 4
            )
    assert stats["encode"]["leaf_entries"] == sum(
        w["encode"]["leaf_entries"] for w in per_worker
    )


def test_warm_cache_is_transparent():
    """Warm-started workers change wall-clock, never bytes."""
    sweep = SWEEPS["plain_grid"] + SWEEPS["link_faults"]
    cold = SESSION.sweep(sweep, executor="parallel", workers=2)
    warm = SESSION.sweep(
        sweep, executor=ExecutorSpec(name="parallel", workers=2, warm_cache=True)
    )
    assert warm.to_json() == cold.to_json()
    # The seed pre-registers entries, so warm workers start non-empty.
    assert all(
        w["encode"]["leaf_entries"] > 0 for w in warm.cache_stats["workers"]
    )


def test_cli_rejects_workers_on_in_process_executor(capsys):
    """An explicitly named in-process executor + --workers is an error,
    not a silent switch to the process pool."""
    from repro.cli import main

    code = main(["sweep", "--preset", "smoke", "--executor", "batch", "--workers", "2"])
    assert code == 2
    assert "pool-backed executor" in capsys.readouterr().err


@pytest.mark.parametrize("executor", ["parallel"])
def test_pool_backed_executors_reject_tracing(executor):
    with pytest.raises(SolvabilityError, match="structured tracing"):
        SESSION.sweep(
            SWEEPS["plain_grid"], executor=executor, workers=2, trace=TraceRecorder()
        )


class TestExecutorSpec:
    def test_round_trip(self):
        spec = ExecutorSpec(name="parallel", workers=4, warm_cache=True)
        assert ExecutorSpec.from_dict(spec.to_dict()) == spec
        assert ExecutorSpec.from_dict({"name": "serial"}) == ExecutorSpec()

    def test_hosts_round_trip(self):
        spec = ExecutorSpec(
            name="hosts", hosts=("local", "ssh:user@box"), warm_cache=True
        )
        assert ExecutorSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["hosts"] == ["local", "ssh:user@box"]
        # Absent hosts stays absent (and None) through the dict form.
        assert "hosts" not in ExecutorSpec(name="serial").to_dict()
        assert ExecutorSpec.from_dict({"name": "serial"}).hosts is None

    def test_session_accepts_executor_spec(self):
        session = Session(executor=ExecutorSpec(name="parallel", workers=3))
        assert session.engine.executor == "parallel"
        assert session.engine.workers == 3

    def test_session_accepts_hosts_spec(self):
        session = Session(executor=ExecutorSpec(name="hosts", hosts=("local",)))
        assert session.engine.executor == "hosts"
        assert session.engine.hosts == ("local",)

    def test_validation(self):
        with pytest.raises(SolvabilityError, match="unknown executor"):
            ExecutorSpec(name="quantum")
        with pytest.raises(SolvabilityError, match="workers"):
            ExecutorSpec(name="parallel", workers=0)
        with pytest.raises(SolvabilityError, match="pool-backed"):
            ExecutorSpec(name="serial", workers=2)
        with pytest.raises(SolvabilityError, match="warm_cache"):
            ExecutorSpec(name="batch", warm_cache=True)

    def test_hosts_validation(self):
        with pytest.raises(SolvabilityError, match="host endpoint"):
            ExecutorSpec(name="hosts")
        with pytest.raises(SolvabilityError, match="host endpoint"):
            ExecutorSpec(name="hosts", hosts=())
        with pytest.raises(SolvabilityError, match="non-empty"):
            ExecutorSpec(name="hosts", hosts=("local", ""))
        with pytest.raises(SolvabilityError, match="hosts"):
            ExecutorSpec(name="parallel", hosts=("local",))
        # warm_cache rides on hosts just like on parallel.
        assert ExecutorSpec(name="hosts", hosts=("local",), warm_cache=True)


class TestChunking:
    @pytest.mark.parametrize(
        "count,batch,workers",
        [(0, 4, 1), (1, 4, 1), (5, 2, 1), (7, 3, 1), (9, 256, 2), (103, 256, 4), (103, 5, 4)],
    )
    def test_contiguous_cover_in_order(self, count, batch, workers):
        bounds = _spec_chunks(count, batch, workers)
        # Concatenated in order, the chunks are exactly the sweep.
        assert [i for start, stop in bounds for i in range(start, stop)] == list(
            range(count)
        )
        assert all(0 < stop - start <= batch for start, stop in bounds)

    def test_spread_over_workers(self):
        # About four chunks per worker, unless batch_size caps them smaller.
        assert len(_spec_chunks(576, 256, 2)) == 8
        assert len(_spec_chunks(576, 50, 2)) == 12
        assert len(_spec_chunks(576, 256, 1)) == 3

    def test_deterministic(self):
        assert _spec_chunks(103, 7, 3) == _spec_chunks(103, 7, 3)


def test_workers_follow_the_affinity_mask(monkeypatch):
    """Usable cores come from the affinity mask (``taskset``), not the
    machine's CPU count."""
    import os

    from repro.experiment.engine import Engine, effective_workers

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert effective_workers("parallel", None, 100) == 1
    assert Engine("parallel").workers == 1


def test_serial_session_streams_without_a_shared_cache():
    """A serial session's ``sweep_into`` runs the reference path: no
    shared cache, so ``stats`` stays empty and ``warm_cache`` is refused
    rather than dropped; a batch session reports its one cache."""
    from repro.experiment import MemorySink
    from repro.experiment.engine import Engine

    specs = tuple(SWEEPS["plain_grid"])
    serial, batch = MemorySink(), MemorySink()
    serial_stats: dict = {}
    batch_stats: dict = {}
    Session().sweep_into(specs, serial, stats=serial_stats)
    Session(executor="batch").sweep_into(specs, batch, stats=batch_stats)
    assert serial.recordset().to_json() == batch.recordset().to_json()
    assert serial_stats == {}
    assert len(batch_stats["workers"]) == 1
    with pytest.raises(SolvabilityError, match="warm_cache"):
        Engine("serial", warm_cache=True)
    with pytest.raises(SolvabilityError, match="warm_cache"):
        Session().sweep_into(specs, MemorySink(), warm_cache=True)


def test_drain_holds_at_most_two_chunks_per_worker_undrained():
    """The out-of-process drain never runs more than ``2 * workers``
    chunks ahead of the consumer, and yields them in spec order."""
    from concurrent.futures import Future

    from repro.experiment.engine import _drain

    specs = tuple(ScenarioSpec(k=2, name=f"s{i}") for i in range(10))
    submitted: list[int] = []

    def submit(start, payload):
        submitted.append(start)
        future: Future = Future()
        future.set_result({"records": [], "cache_stats": {}, "worker": 0})
        return future

    drained = []
    for stop, records in _drain(specs, _spec_chunks(10, 1), submit, 2, {}):
        drained.append(stop)
        assert len(submitted) - len(drained) <= 2 * 2
    assert drained == list(range(1, 11))
    assert submitted == list(range(10))


class TestEncodeMemoSnapshot:
    def test_restore_reproduces_canonical_bytes(self):
        memo = EncodeMemo()
        payloads = [
            ("vote", left_party(0), (1, 2, True)),
            ("echo", right_party(1), "payload", b"raw"),
            (None, 0, False),
        ]
        expected = [encode(p, memo) for p in payloads]
        snapshot = memo.snapshot()
        assert snapshot  # leaves and structs captured

        fresh = EncodeMemo()
        fresh.restore(snapshot)
        assert fresh.entry_counts()["leaf_entries"] == memo.entry_counts()["leaf_entries"]
        assert fresh.entry_counts()["struct_entries"] == memo.entry_counts()["struct_entries"]
        assert [encode(p, fresh) for p in payloads] == expected

    def test_snapshot_survives_pickling(self):
        import pickle

        memo = EncodeMemo()
        payload = ("msg", left_party(2), (3, "x"))
        expected = encode(payload, memo)
        shipped = pickle.loads(pickle.dumps(memo.snapshot()))
        fresh = EncodeMemo()
        fresh.restore(shipped)
        assert encode(payload, fresh) == expected


def test_merge_cache_stats_empty_and_single():
    empty = merge_cache_stats([])
    assert empty["signatures"]["hits"] == 0 and empty["workers"] == []
    single = ExecutionCache().stats()
    merged = merge_cache_stats([single])
    assert merged["workers"] == [single]


def test_bench_runner_records_worker_counts():
    """Satellite: BENCH results carry executor worker counts per phase."""
    from repro.bench.runner import BenchRunner

    result = BenchRunner(tier="quick", workers=2, repeat=2).run("sweep_parallel")
    assert result.ok, result.failures
    assert result.metrics["workers_serial"] == 1.0
    assert result.metrics["workers_batch"] == 1.0
    assert result.metrics["workers_parallel"] == 2.0
    assert result.environment["executor_workers"] == {
        "serial": 1,
        "batch": 1,
        "parallel": 2,
    }
    assert result.environment["repeat"] == 2
    # One phase entry per executor even with repetitions (the minimum).
    assert [name for name, _ in result.phases] == [
        "build",
        "sweep[serial]",
        "sweep[batch]",
        "sweep[parallel]",
    ]
    assert "speedup_parallel_vs_serial" in result.metrics
    # The parallel phase merged its per-worker cache stats.
    assert len(result.cache["workers"]) >= 1


def test_executor_differential_oracle_registered():
    from repro.conform.oracles import (
        OracleContext,
        default_oracle_names,
        resolve_oracles,
    )

    assert "executor_differential" in default_oracle_names()
    (oracle,) = resolve_oracles(["executor_differential"])
    spec = ScenarioSpec(
        topology="fully_connected",
        authenticated=True,
        k=2,
        tL=1,
        tR=0,
        adversary=AdversarySpec(kind="silent"),
    )
    assert oracle.applies(spec)
    assert oracle.check(spec, OracleContext()) == ()


def test_differential_sweep_executor_axis():
    from repro.conform.oracles import differential_sweep

    specs = tuple(SWEEPS["tags_and_mutators"])
    violations = differential_sweep(
        specs, runtimes=("lockstep",), executors=("batch", "parallel")
    )
    assert violations == ()


class TestHostsExecutor:
    """The cross-host plane: byte-identity, stealing, error contracts.

    Every test here uses localhost worker subprocesses ("local" /
    "cmd:" endpoints) — the full protocol and reassembly path minus the
    network.  One combined sweep per test keeps worker spawns (a python
    interpreter each) off the per-spec hot path.
    """

    def test_hosts_byte_identical_across_sweeps(self):
        sweep = (
            SWEEPS["plain_grid"]
            + SWEEPS["link_faults"]
            + SWEEPS["tags_and_mutators"]
            + SWEEPS["mixed_families"]
        )
        reference = SESSION.sweep(sweep)
        candidate = SESSION.sweep(
            sweep, executor=ExecutorSpec(name="hosts", hosts=("local", "local"))
        )
        assert candidate.to_json() == reference.to_json()
        assert candidate.aggregate_json() == reference.aggregate_json()
        assert candidate.executor == "hosts"
        # Both workers report merged (persistent, cumulative) cache stats.
        assert candidate.cache_stats["signatures"]["entries"] >= 0
        assert 1 <= len(candidate.cache_stats["workers"]) <= 2

    def test_hosts_warm_cache_is_transparent(self):
        sweep = SWEEPS["plain_grid"] + SWEEPS["tags_and_mutators"]
        cold = SESSION.sweep(sweep)
        warm = SESSION.sweep(
            sweep,
            executor=ExecutorSpec(
                name="hosts", hosts=("local", "local"), warm_cache=True
            ),
        )
        assert warm.to_json() == cold.to_json()

    def test_failed_host_work_is_stolen(self):
        """A dead endpoint's chunks complete on the surviving host."""
        sweep = SWEEPS["plain_grid"]
        reference = SESSION.sweep(sweep)
        candidate = SESSION.sweep(
            sweep,
            executor=ExecutorSpec(name="hosts", hosts=("local", "cmd:false")),
        )
        assert candidate.to_json() == reference.to_json()

    def test_all_hosts_dead_raises(self):
        from repro.errors import RemoteError

        with pytest.raises(RemoteError):
            SESSION.sweep(
                SWEEPS["plain_grid"],
                executor=ExecutorSpec(name="hosts", hosts=("cmd:false",)),
            )

    def test_chunk_put_back_after_the_queue_ran_dry_is_stolen(self, monkeypatch):
        """A host dying mid-chunk after the live host has drained the
        queue still gets its chunk finished by the live host, and the
        merged cache stats are that host's newest running totals."""
        import threading

        import repro.runtime.remote as remote
        from repro.errors import RemoteError
        from repro.experiment.engine import Engine, _run_chunk

        specs = tuple(SWEEPS["plain_grid"])[:2]  # two one-spec chunks
        bad_claimed, good_closed = threading.Event(), threading.Event()
        newest: list[dict] = []  # the good host's totals after its last chunk

        class FakeHost:
            def __init__(self, host):
                self.host, self.cache = host, ExecutionCache()
                if host == "good":
                    bad_claimed.wait(timeout=5.0)  # "bad" claims chunk 0

            def warm(self, state):
                pass

            def run_chunk(self, start, spec_dicts):
                if self.host == "bad":
                    bad_claimed.set()
                    # Die once "good" has seen an empty queue and stopped
                    # (or after a grace period, if it keeps waiting).
                    good_closed.wait(timeout=1.0)
                    raise RemoteError("bad died mid-chunk")
                reply = _run_chunk(self.cache, spec_dicts)
                newest[:] = [reply["cache_stats"]]
                return reply["records"], reply["cache_stats"]

            def close(self):
                if self.host == "good":
                    good_closed.set()

        monkeypatch.setattr(remote, "_open_host", FakeHost)
        result = Engine("hosts", hosts=("bad", "good")).run_sweep(specs)
        assert result.to_json() == SESSION.sweep(specs).to_json()
        # Chunk 0 ran last (stolen) but drains first: its totals still win.
        assert result.cache_stats["workers"] == newest

    def test_failure_names_host_chunk_and_stderr(self):
        import shlex
        import sys

        from repro.errors import RemoteError

        script = "import sys; sys.stderr.write(sys.argv[1].upper()); sys.exit(3)"
        host = f"cmd:{sys.executable} -c {shlex.quote(script)} worker-died-here"
        with pytest.raises(RemoteError) as failure:
            SESSION.sweep(
                SWEEPS["plain_grid"], executor=ExecutorSpec(name="hosts", hosts=(host,))
            )
        message = str(failure.value)
        assert host in message
        assert "chunk specs 0.." in message
        assert "WORKER-DIED-HERE" in message

    def test_worker_speaking_garbage_mid_sweep(self):
        """A worker that handshakes, then answers every request with a
        non-JSON line: beside a live host its chunks are stolen and the
        records are the reference; alone, the sweep fails naming the
        host and the chunk."""
        import shlex
        import sys

        from repro.errors import RemoteError
        from repro.runtime.diskcache import cache_version

        script = (
            "import json, sys\n"
            "print(json.dumps({'op': 'ready', 'version': sys.argv[1]}), flush=True)\n"
            "for _ in sys.stdin:\n"
            "    print('<html>not a reply</html>', flush=True)\n"
        )
        host = f"cmd:{sys.executable} -c {shlex.quote(script)} {cache_version()}"
        sweep = SWEEPS["plain_grid"]
        reference = SESSION.sweep(sweep)
        candidate = SESSION.sweep(
            sweep, executor=ExecutorSpec(name="hosts", hosts=(host, "local"))
        )
        assert candidate.to_json() == reference.to_json()
        with pytest.raises(RemoteError) as failure:
            SESSION.sweep(sweep, executor=ExecutorSpec(name="hosts", hosts=(host,)))
        message = str(failure.value)
        assert f"worker {host!r} spoke garbage running chunk specs 0.." in message

    def test_https_endpoint_rejected(self):
        from repro.errors import RemoteError
        from repro.runtime.remote import _open_host

        with pytest.raises(RemoteError, match="TLS is unsupported"):
            _open_host("https://127.0.0.1:8642")
        with pytest.raises(RemoteError, match=r"chunk specs 0\.\..*https://"):
            SESSION.sweep(
                SWEEPS["plain_grid"],
                executor=ExecutorSpec(name="hosts", hosts=("https://127.0.0.1:8642",)),
            )

    def test_hosts_reject_tracing(self):
        with pytest.raises(SolvabilityError, match="structured tracing"):
            SESSION.sweep(
                SWEEPS["plain_grid"],
                executor=ExecutorSpec(name="hosts", hosts=("local",)),
                trace=TraceRecorder(),
            )

    def test_differential_sweep_hosts_axis(self):
        from repro.conform.oracles import differential_sweep

        specs = tuple(SWEEPS["tags_and_mutators"])
        assert (
            differential_sweep(specs, runtimes=("lockstep",), executors=("hosts",))
            == ()
        )

    def test_executor_differential_oracle_covers_hosts(self):
        from repro.conform.oracles import ExecutorDifferential, OracleContext

        oracle = ExecutorDifferential(executors=("serial", "hosts"))
        spec = ScenarioSpec(
            topology="fully_connected",
            authenticated=True,
            k=2,
            tL=1,
            tR=0,
            adversary=AdversarySpec(kind="silent"),
        )
        assert oracle.applies(spec)
        assert oracle.check(spec, OracleContext()) == ()


class TestWorkerProtocol:
    """worker_main driven directly over in-memory streams (no process)."""

    def _drive(self, lines):
        import io
        import json

        from repro.runtime.remote import worker_main

        stdout = io.StringIO()
        code = worker_main(io.StringIO("".join(lines)), stdout)
        assert code == 0
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_handshake_and_run(self):
        import json

        from repro.runtime.diskcache import cache_version

        spec = ScenarioSpec(k=2, adversary=None)
        replies = self._drive(
            [json.dumps({"op": "run", "id": 7, "specs": [spec.to_dict()]}) + "\n"]
        )
        ready, reply = replies
        assert ready == {"op": "ready", "version": cache_version()}
        assert reply["id"] == 7
        expected = [r.to_dict() for r in SESSION.sweep(Sweep.of(spec)).records]
        assert reply["records"] == expected
        assert reply["cache_stats"]["signatures"]["entries"] >= 0

    def test_garbage_and_unknown_ops_are_survivable(self):
        import json

        replies = self._drive(
            [
                "not json\n",
                "[1, 2]\n",
                json.dumps({"op": "dance"}) + "\n",
                json.dumps({"op": "run", "id": 1, "specs": [{"family": "nope"}]})
                + "\n",
            ]
        )
        assert replies[0]["op"] == "ready"
        assert "error" in replies[1] and "error" in replies[2]
        assert "unknown op" in replies[3]["error"]
        assert replies[4]["id"] == 1 and "error" in replies[4]

    def test_version_mismatch_refused(self, monkeypatch):
        import repro.runtime.remote as remote

        class FakeProcess:
            def __init__(self):
                import io

                self.stdin = io.StringIO()
                self.stdout = io.StringIO('{"op": "ready", "version": "stale"}\n')

            def wait(self, timeout=None):
                return 0

            def kill(self):
                pass

        monkeypatch.setattr(
            remote.subprocess, "Popen", lambda *a, **kw: FakeProcess()
        )
        from repro.errors import RemoteError

        with pytest.raises(RemoteError, match="different code"):
            remote._SubprocessHost("local", ["ignored"])

    def test_unknown_endpoint_rejected(self):
        from repro.errors import RemoteError
        from repro.runtime.remote import _open_host

        with pytest.raises(RemoteError, match="unknown host endpoint"):
            _open_host("ftp://nope")
        with pytest.raises(RemoteError, match="ssh host needs a target"):
            _open_host("ssh:")
        with pytest.raises(RemoteError, match="http host must look like"):
            from repro.runtime.remote import _HttpHost

            _HttpHost("http://noport")


class TestHostsCli:
    def test_cli_sweep_hosts_flags(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--preset", "smoke", "--hosts", "local", "--workers", "2"]) == 2
        assert "--workers does not apply" in capsys.readouterr().err
        assert main(["sweep", "--preset", "smoke", "--executor", "hosts"]) == 2
        assert "needs --hosts" in capsys.readouterr().err
        assert main(
            ["sweep", "--preset", "smoke", "--executor", "serial", "--hosts", "local"]
        ) == 2
        assert "conflicts with --executor" in capsys.readouterr().err


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    topology=st.sampled_from(TOPOLOGY_NAMES),
    auth=st.booleans(),
    k=st.integers(min_value=2, max_value=3),
    tL=st.integers(min_value=0, max_value=3),
    tR=st.integers(min_value=0, max_value=3),
    kind=st.sampled_from(("silent", "noise", "crash")),
    seed=st.integers(min_value=0, max_value=3),
    lossy=st.booleans(),
)
def test_executors_agree_property(topology, auth, k, tL, tR, kind, seed, lossy):
    """Property form: any runnable grid point agrees across the
    in-process executors (the pool executors ride the same worker code
    paths and are covered by the parametrized suite — spawning a pool
    per hypothesis example would dominate the suite's budget)."""
    tL, tR = min(tL, k), min(tR, k)
    if not is_solvable(Setting(topology, auth, k, tL, tR)).solvable:
        return
    link = LinkSpec(kind="random", probability=0.15, seed=seed) if lossy else None
    spec = ScenarioSpec(
        topology=topology,
        authenticated=auth,
        k=k,
        tL=tL,
        tR=tR,
        profile=ProfileSpec(seed=seed),
        adversary=(
            AdversarySpec(kind=kind, seed=seed, link=link) if (tL or tR) else None
        ),
    )
    sweep = Sweep.of(spec)
    reference = SESSION.sweep(sweep)
    assert SESSION.sweep(sweep, executor="batch").to_json() == reference.to_json()
    # workers=1 parallel: the sharded plane's in-process short-circuit.
    assert (
        SESSION.sweep(sweep, executor="parallel", workers=1).to_json()
        == reference.to_json()
    )
