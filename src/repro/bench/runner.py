"""The bench runner: registry cases in, schema-versioned results out.

One :class:`BenchRunner` executes :class:`~repro.bench.registry.BenchCase`
workloads through the shared :class:`~repro.experiment.Session` façade —
the exact production path, not a parallel harness — and measures:

* **per-phase wall-clocks** — sweep construction plus one sweep
  execution per configured executor, so a regression localizes;
* **work totals** — runs, protocol rounds, messages, bytes, and the
  derived per-round / per-run latencies;
* **cache statistics** — hit rates of the shared
  :class:`~repro.runtime.ExecutionCache` whenever a batch executor ran;
* **correctness** — every non-canonical executor must reproduce the
  canonical records byte-identically, and the case's own ``check`` hook
  must pass; failures make the result (and the CLI exit code) red.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, Sequence

from repro.bench.registry import BenchCase, bench_case
from repro.bench.result import BenchResult, environment_fingerprint
from repro.errors import ReproError
from repro.experiment.engine import POOLED_EXECUTORS, Session, effective_workers
from repro.experiment.records import RunRecordSet
from repro.experiment.spec import ScenarioSpec, Sweep

__all__ = ["BenchRunner"]


def _warm_process_memos(sweep: Sweep) -> None:
    """Pre-fill the process-level memos every executor shares.

    Solvability verdicts and keyrings are memoized per process; without
    this, whichever executor runs *first* pays their one-time build and
    every later executor times warm — biasing the cross-executor
    speedup metrics.  Touching the memos here (microseconds per spec,
    keyring derivation per distinct ``k``) is charged to the build
    phase, so all timed sweeps start from the same cache state.
    """
    from repro.experiment.engine import cached_keyring, cached_verdict

    for spec in sweep:
        if spec.family != "bsm":
            continue
        cached_verdict(spec.setting())
        if spec.authenticated:
            cached_keyring(spec.k)


def _pin_runtime(sweep: Sweep, runtime: str) -> Sweep:
    """The sweep with every bsm spec pinned to ``runtime``."""
    if runtime == "lockstep":
        return sweep
    pinned: list[ScenarioSpec] = []
    for spec in sweep:
        pinned.append(replace(spec, runtime=runtime) if spec.family == "bsm" else spec)
    return Sweep.of(*pinned)


class BenchRunner:
    """Execute registry cases and produce :class:`BenchResult` rows.

    ``tier`` picks the workload size (``quick``/``full``/``scale``);
    ``session`` is shared across every case the runner executes, so the
    process-level memos (solvability verdicts, keyrings) amortize the
    way they do for real callers.  ``workers`` bounds the pool-backed
    executor (``parallel``; default: the usable cores) — the
    effective per-executor worker counts are recorded in each result's
    ``metrics``/``environment``, so trajectory files measured on
    multicore and single-core hosts stay comparable.

    ``repeat`` times every executor phase N times and keeps each
    executor's minimum, **rotating the executor order each repetition**
    (rep 0: A B C, rep 1: B C A, ...).  Wall-clock on a busy host
    drifts within one process, so later phases are systematically
    penalized; rotation gives every executor a shot at every position
    and min-of-N then filters the drift.  ``wall_seconds`` stays
    comparable across repeat settings: the surplus time of the extra
    repetitions is excluded, so the recorded wall is the distilled
    single-pass cost.
    """

    def __init__(
        self,
        tier: str = "quick",
        session: Session | None = None,
        workers: int | None = None,
        repeat: int = 1,
    ) -> None:
        self.tier = tier
        self.session = session if session is not None else Session()
        self.workers = workers
        self.repeat = max(1, repeat)


    # -- execution ------------------------------------------------------------

    def run(self, case: BenchCase | str) -> BenchResult:
        """Run one case at the runner's tier (never raises for red runs —
        workload errors become failed results so a suite keeps going)."""
        if isinstance(case, str):
            case = bench_case(case)
        try:
            return self._run(case)
        except ReproError as exc:
            return BenchResult(
                case=case.name,
                tier=self.tier,
                ok=False,
                wall_seconds=0.0,
                runs=0,
                rounds=0,
                messages=0,
                bytes=0,
                failures=(f"error: {exc}",),
                environment=environment_fingerprint(),
            )

    def _run(self, case: BenchCase) -> BenchResult:
        if case.harness is not None:
            return self._run_harness(case)
        phases: list[tuple[str, float]] = []
        started = time.perf_counter()
        sweep = _pin_runtime(case.sweep(self.tier), case.runtime)
        _warm_process_memos(sweep)
        phases.append(("build", time.perf_counter() - started))

        failures: list[str] = []
        canonical: RunRecordSet | None = None
        canonical_json = ""
        cache_stats: dict = {}
        executor_seconds: dict[str, float] = {}
        all_rep_seconds = 0.0
        executor_workers: dict[str, int] = {}
        for rep in range(self.repeat):
            # Rotate so every executor samples every position (rep 0 runs
            # the declared order; the canonical reference stays first).
            pivot = rep % len(case.executors)
            ordered = case.executors[pivot:] + case.executors[:pivot]
            for executor in ordered:
                # Resolve through the session's engine when the runner has
                # no override of its own, so the recorded count matches the
                # pool Session.sweep actually builds.
                executor_workers[executor] = effective_workers(
                    executor, self.workers or self.session.engine.workers, len(sweep)
                )
                records = self.session.sweep(
                    sweep,
                    executor=executor,
                    workers=self.workers if executor in POOLED_EXECUTORS else None,
                )
                all_rep_seconds += records.elapsed_seconds
                best = executor_seconds.get(executor)
                if best is None or records.elapsed_seconds < best:
                    executor_seconds[executor] = records.elapsed_seconds
                if rep > 0:
                    continue  # records are deterministic: compare once
                if records.cache_stats:
                    # Last cached executor wins: with both batch and
                    # parallel axes configured, the parallel plane's
                    # merged per-worker stats are the richer record.
                    cache_stats = dict(records.cache_stats)
                if canonical is None:
                    canonical = records
                    canonical_json = records.to_json()
                elif records.to_json() != canonical_json:
                    failures.append(
                        f"executor {executor!r} records diverge from "
                        f"{case.executors[0]!r} (determinism regression)"
                    )
        phases.extend(
            (f"sweep[{executor}]", executor_seconds[executor])
            for executor in case.executors
        )

        assert canonical is not None  # executors is validated non-empty
        if case.check is not None:
            failures.extend(case.check(canonical, self.tier))

        metrics: dict[str, float] = {}
        base = case.executors[0]
        for executor in case.executors[1:]:
            if executor_seconds[executor] > 0:
                metrics[f"speedup_{executor}_vs_{base}"] = round(
                    executor_seconds[base] / executor_seconds[executor], 3
                )
        # Effective worker count per executor phase: a speedup measured
        # with 8 workers and one measured with 1 are different claims,
        # so the trajectory file says which this was.
        for executor, workers in executor_workers.items():
            metrics[f"workers_{executor}"] = float(workers)
        if case.metrics is not None:
            metrics.update(
                {str(k): float(v) for k, v in case.metrics(canonical, self.tier).items()}
            )

        # The distilled single-pass wall: total elapsed minus the surplus
        # of the non-minimum repetitions, so repeat=N results gate
        # against repeat=1 baselines on equal terms.
        surplus = all_rep_seconds - sum(executor_seconds.values())
        wall = time.perf_counter() - started - surplus
        rounds = sum(canonical.column("rounds"))
        reference = executor_seconds[base]
        environment = dict(environment_fingerprint())
        environment["executor_workers"] = dict(executor_workers)
        environment["repeat"] = self.repeat
        return BenchResult(
            case=case.name,
            tier=self.tier,
            ok=not failures,
            wall_seconds=round(wall, 6),
            runs=len(canonical),
            rounds=rounds,
            messages=sum(canonical.column("messages")),
            bytes=sum(canonical.column("bytes")),
            per_round_seconds=round(reference / rounds, 9) if rounds else 0.0,
            per_run_seconds=round(reference / len(canonical), 9) if len(canonical) else 0.0,
            phases=tuple((name, round(seconds, 6)) for name, seconds in phases),
            failures=tuple(failures),
            metrics=metrics,
            cache=cache_stats,
            environment=environment,
        )

    def _run_harness(self, case: BenchCase) -> BenchResult:
        """Harness-driven cases: the case owns its measurement loop.

        Repeat/min-of-N applies to the harness wall exactly as it does
        to executor phases (the harness is re-run per repetition and the
        fastest wall wins); work totals, metrics, and failures come from
        the fastest repetition, and failures from *any* repetition make
        the result red — a load test that sheds on one rep out of three
        is still shedding.
        """
        assert case.harness is not None
        started = time.perf_counter()
        best = None
        total_seconds = 0.0
        failures: list[str] = []
        for rep in range(self.repeat):
            run = case.harness(self.tier, self.workers)
            total_seconds += run.seconds
            failures.extend(
                f"rep {rep}: {failure}" if self.repeat > 1 else failure
                for failure in run.failures
            )
            if best is None or run.seconds < best.seconds:
                best = run
        assert best is not None  # repeat >= 1
        surplus = total_seconds - best.seconds
        wall = time.perf_counter() - started - surplus
        environment = dict(environment_fingerprint())
        environment["repeat"] = self.repeat
        return BenchResult(
            case=case.name,
            tier=self.tier,
            ok=not failures,
            wall_seconds=round(wall, 6),
            runs=best.runs,
            rounds=best.rounds,
            messages=best.messages,
            bytes=best.bytes,
            per_round_seconds=round(best.seconds / best.rounds, 9) if best.rounds else 0.0,
            per_run_seconds=round(best.seconds / best.runs, 9) if best.runs else 0.0,
            phases=(("harness", round(best.seconds, 6)),),
            failures=tuple(failures),
            metrics={str(k): float(v) for k, v in best.metrics.items()},
            cache=dict(best.cache),
            environment=environment,
        )

    def run_many(
        self, cases: Iterable[BenchCase | str] | None = None
    ) -> tuple[BenchResult, ...]:
        """Run several cases (default: the whole registry), in order."""
        from repro.bench.registry import all_cases

        selected: Sequence[BenchCase | str] = (
            tuple(cases) if cases is not None else all_cases()
        )
        return tuple(self.run(case) for case in selected)
