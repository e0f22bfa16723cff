"""The bench subsystem: registry, runner, results, baselines, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchCase,
    BenchResult,
    BenchRunner,
    baseline_from_results,
    bench_case,
    bench_names,
    compare_results,
)
from repro.bench.registry import suite_tier
from repro.errors import BenchError
from repro.experiment import Session, Sweep
from repro.io import dump_baseline, dump_bench, load_baseline, load_bench

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"

#: One session across the whole module, like real bench invocations.
_RUNNER = BenchRunner(tier="quick", session=Session())


def make_result(case="some_case", wall=1.0, tier="quick", ok=True) -> BenchResult:
    return BenchResult(
        case=case,
        tier=tier,
        ok=ok,
        wall_seconds=wall,
        runs=3,
        rounds=10,
        messages=100,
        bytes=1000,
        per_round_seconds=0.1,
        per_run_seconds=0.33,
        phases=(("build", 0.01), ("sweep[serial]", 0.99)),
        metrics={"speedup": 2.0},
        cache={"signatures": {"hits": 5, "misses": 2}},
        environment={"python": "3.11", "cpu_count": 2, "git_sha": "abc123"},
    )


class TestBenchResult:
    def test_json_round_trip(self):
        result = make_result()
        clone = BenchResult.from_json(result.to_json())
        assert clone == result
        assert clone.schema == BENCH_SCHEMA_VERSION
        assert clone.phases == (("build", 0.01), ("sweep[serial]", 0.99))
        assert clone.environment["git_sha"] == "abc123"

    def test_round_trip_with_baseline_context(self):
        result = make_result().with_baseline(
            {"source": "base.json", "wall_seconds": 2.0, "ratio": 0.5, "status": "faster"}
        )
        clone = BenchResult.from_json(result.to_json())
        assert clone.baseline["ratio"] == 0.5

    def test_unsupported_schema_rejected(self):
        data = make_result().to_dict()
        data["schema"] = BENCH_SCHEMA_VERSION + 1
        with pytest.raises(BenchError, match="schema"):
            BenchResult.from_dict(data)

    def test_missing_schema_rejected(self):
        data = make_result().to_dict()
        del data["schema"]
        with pytest.raises(BenchError, match="schema"):
            BenchResult.from_dict(data)

    def test_garbage_json_rejected(self):
        with pytest.raises(BenchError, match="JSON"):
            BenchResult.from_json("{not json")

    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "BENCH_some_case.json"
        dump_bench(make_result(), path)
        assert load_bench(path) == make_result()
        # Stable output: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["case"] == "some_case"


class TestCompare:
    def baseline(self, *results: BenchResult) -> dict:
        return baseline_from_results(results)

    def test_pass_when_within_envelope(self):
        baseline = self.baseline(make_result(wall=1.0))
        comparison = compare_results([make_result(wall=1.2)], baseline, max_regress=1.5)
        assert comparison.ok
        (row,) = comparison.rows
        assert row.status == "ok"
        assert row.ratio == pytest.approx(1.2)

    def test_injected_2x_regression_fails(self):
        baseline = self.baseline(make_result(wall=1.0))
        comparison = compare_results([make_result(wall=2.0)], baseline, max_regress=1.5)
        assert not comparison.ok
        (row,) = comparison.rows
        assert row.status == "regression"
        assert "FAIL" in comparison.render()

    def test_missing_case_fails(self):
        baseline = self.baseline(make_result(case="gone"), make_result(case="kept"))
        comparison = compare_results([make_result(case="kept")], baseline)
        assert not comparison.ok
        statuses = {row.case: row.status for row in comparison.rows}
        assert statuses == {"gone": "missing", "kept": "ok"}

    def test_new_case_passes(self):
        baseline = self.baseline(make_result(case="old"))
        comparison = compare_results(
            [make_result(case="old"), make_result(case="brand_new")], baseline
        )
        assert comparison.ok
        statuses = {row.case: row.status for row in comparison.rows}
        assert statuses["brand_new"] == "new"

    def test_tier_mismatch_fails(self):
        baseline = self.baseline(make_result(tier="quick"))
        comparison = compare_results([make_result(tier="full")], baseline)
        assert not comparison.ok
        assert comparison.rows[0].status == "tier_mismatch"

    def test_much_faster_flagged_but_passes(self):
        baseline = self.baseline(make_result(wall=10.0))
        comparison = compare_results([make_result(wall=1.0)], baseline)
        assert comparison.ok
        assert comparison.rows[0].status == "faster"

    def test_baseline_file_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        dump_baseline(self.baseline(make_result()), path)
        loaded = load_baseline(path)
        assert loaded["cases"]["some_case"]["wall_seconds"] == 1.0

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "cases": {}}')  # no kind marker
        with pytest.raises(BenchError, match="bench-baseline"):
            load_baseline(path)

    def test_nonpositive_max_regress_rejected(self):
        with pytest.raises(BenchError, match="positive"):
            compare_results([], self.baseline(), max_regress=0.0)

    def test_cpu_count_mismatch_warns_without_failing(self):
        baseline = self.baseline(make_result(wall=1.0))
        baseline["environment"]["cpu_count"] = 64
        comparison = compare_results([make_result(wall=1.0)], baseline)
        assert comparison.ok  # warnings never fail the gate
        assert any("cpu_count" in warning for warning in comparison.warnings)
        assert "warning: environment" in comparison.render()

    def test_matching_environment_emits_no_warning(self):
        result = make_result(wall=1.0)
        baseline = self.baseline(result)
        baseline["environment"]["cpu_count"] = result.environment["cpu_count"]
        comparison = compare_results([result], baseline)
        assert comparison.warnings == ()

    def test_executor_workers_mismatch_warns_per_case(self):
        from dataclasses import replace

        measured = replace(
            make_result(wall=1.0),
            environment={
                **make_result().environment,
                "executor_workers": {"parallel": 8},
            },
        )
        baseline = self.baseline(measured)
        assert baseline["cases"]["some_case"]["executor_workers"] == {"parallel": 8}
        baseline["environment"]["cpu_count"] = measured.environment["cpu_count"]
        current = replace(
            make_result(wall=1.0),
            environment={
                **make_result().environment,
                "executor_workers": {"parallel": 1},
            },
        )
        comparison = compare_results([current], baseline)
        assert comparison.ok
        assert any(
            "some_case" in warning and "workers" in warning
            for warning in comparison.warnings
        )


class TestRegistry:
    def test_all_legacy_scripts_are_registered(self):
        # Registry-native cases (e.g. conform_throughput) carry no
        # legacy script; every legacy shim must still map to a case.
        legacy = {
            case.name: bench_case(case.name).legacy_script for case in map(bench_case, bench_names())
        }
        scripts = {path.name for path in BENCH_DIR.glob("bench_*.py")} - {"bench_common.py"}
        assert set(legacy.values()) - {""} == scripts

    def test_unknown_case_rejected(self):
        with pytest.raises(BenchError, match="unknown bench case"):
            bench_case("nope")

    def test_unknown_tier_rejected(self):
        with pytest.raises(BenchError, match="tier"):
            bench_case("table1_solvability").sweep("huge")

    def test_suite_tiers(self):
        assert suite_tier("smoke") == "quick"
        with pytest.raises(BenchError, match="suite"):
            suite_tier("nightly")

    def test_case_validation(self):
        with pytest.raises(BenchError, match="executor"):
            BenchCase(name="x", title="x", workload=lambda tier: Sweep.of(), executors=("warp",))

    def test_workloads_build_at_every_tier(self):
        # Building a sweep is cheap even at scale tier — only running is not.
        for name in bench_names():
            case = bench_case(name)
            if case.harness is not None:
                continue  # harness cases own their workload; no sweep to build
            for tier in ("quick", "full", "scale"):
                assert len(case.sweep(tier)) >= 1

    def test_harness_cases_reject_sweep_and_hooks(self):
        from repro.bench.registry import HarnessRun

        case = bench_case("serve_load")
        assert case.harness is not None
        with pytest.raises(BenchError, match="harness-driven"):
            case.sweep("quick")
        with pytest.raises(BenchError, match="exactly one"):
            BenchCase(name="x", title="x")
        with pytest.raises(BenchError, match="exactly one"):
            BenchCase(
                name="x",
                title="x",
                workload=lambda tier: Sweep.of(),
                harness=lambda tier, workers: HarnessRun(seconds=0.1),
            )
        with pytest.raises(BenchError, match="HarnessRun"):
            BenchCase(
                name="x",
                title="x",
                harness=lambda tier, workers: HarnessRun(seconds=0.1),
                check=lambda records, tier: (),
            )


class TestRunnerSmoke:
    """Every registered case runs green at --quick (the CI suite)."""

    @pytest.mark.parametrize("name", bench_names())
    def test_case_runs_green_at_quick(self, name):
        result = _RUNNER.run(name)
        assert result.ok, result.failures
        assert result.tier == "quick"
        assert result.runs >= 1
        assert result.wall_seconds > 0
        assert dict(result.phases)  # build + at least one sweep phase
        assert result.environment["python"]
        # Every result must survive the JSON round trip.
        assert BenchResult.from_json(result.to_json()) == result

    def test_table1_reports_cache_stats_and_speedup(self):
        result = _RUNNER.run("table1_solvability")
        assert "speedup_batch_vs_serial" in result.metrics
        assert result.cache["signatures"]["hits"] > 0
        assert 0.0 <= result.cache["verifications"]["hit_rate"] <= 1.0

    def test_workload_errors_become_red_results(self):
        from repro.bench.registry import BenchCase

        def boom(tier):
            from repro.errors import SolvabilityError

            raise SolvabilityError("intentional")

        case = BenchCase(name="broken", title="broken", workload=boom)
        result = _RUNNER.run(case)
        assert not result.ok
        assert "intentional" in result.failures[0]

    def test_harness_case_repeat_keeps_min_and_collects_failures(self):
        from repro.bench.registry import BenchCase, HarnessRun

        walls = iter((0.5, 0.2, 0.9))

        def harness(tier, workers):
            wall = next(walls)
            return HarnessRun(
                seconds=wall,
                runs=10,
                metrics={"wall": wall},
                failures=("shed",) if wall > 0.8 else (),
            )

        case = BenchCase(name="fake_harness", title="fake", harness=harness)
        result = BenchRunner(tier="quick", repeat=3).run(case)
        # min-of-N wall and its metrics; failures from any rep make it red.
        assert dict(result.phases) == {"harness": 0.2}
        assert result.metrics["wall"] == 0.2
        assert not result.ok
        assert result.failures == ("rep 2: shed",)
        assert result.runs == 10

    def test_serve_load_reports_throughput_metrics(self):
        result = _RUNNER.run("serve_load")
        assert result.ok, result.failures
        assert result.metrics["requests_per_second"] > 0
        assert result.metrics["latency_p50_ms"] > 0
        assert result.metrics["latency_p99_ms"] >= result.metrics["latency_p50_ms"]
        assert result.metrics["errors"] == 0
        assert result.metrics["shed"] == 0
        # The service's merged cache stats ride along like sweep cases'.
        assert "signatures" in result.cache


class TestBatchCacheStats:
    def test_batch_sweep_carries_cache_stats(self):
        records = Session().sweep("smoke", executor="batch")
        stats = records.cache_stats
        assert stats, "batch executor should surface ExecutionCache stats"
        assert {"signatures", "verifications", "memo", "encode"} <= set(stats)
        assert stats["signatures"]["hits"] + stats["signatures"]["misses"] > 0

    def test_serial_sweep_has_no_cache_stats(self):
        records = Session().sweep("smoke")
        assert records.cache_stats == {}


class TestLegacyShims:
    def test_shims_never_import_pytest(self):
        # The registry port must run with no pytest installed (CI installs
        # only the package for the bench job).
        for path in BENCH_DIR.glob("bench_*.py"):
            assert "import pytest" not in path.read_text(), path.name

    def test_shim_runs_standalone(self, capsys):
        from repro.bench.cli import legacy_main

        code = legacy_main("fig3_bipartite_attack", ["--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig3_bipartite_attack [quick]: ok" in out


class TestBenchCLI:
    def run_cli(self, *argv: str) -> int:
        from repro.cli import main

        return main(["bench", *argv])

    def test_list(self, capsys):
        assert self.run_cli("--list") == 0
        out = capsys.readouterr().out
        for name in bench_names():
            assert name in out

    def test_run_case_emits_schema_versioned_json(self, capsys, tmp_path):
        code = self.run_cli("fig3_bipartite_attack", "--out", str(tmp_path))
        assert code == 0
        result = load_bench(tmp_path / "BENCH_fig3_bipartite_attack.json")
        assert result.schema == BENCH_SCHEMA_VERSION
        assert result.ok

    def test_compare_gate_trips_on_regression(self, capsys, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        # An absurdly fast baseline: any real run is a >2x "regression".
        dump_baseline(
            baseline_from_results(
                [make_result(case="fig3_bipartite_attack", wall=0.000001)]
            ),
            baseline_path,
        )
        code = self.run_cli(
            "fig3_bipartite_attack", "--no-json", "--compare", str(baseline_path)
        )
        assert code == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_gate_passes_against_generous_baseline(self, capsys, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        dump_baseline(
            baseline_from_results(
                [make_result(case="fig3_bipartite_attack", wall=1000.0)]
            ),
            baseline_path,
        )
        code = self.run_cli(
            "fig3_bipartite_attack", "--no-json", "--compare", str(baseline_path)
        )
        assert code == 0

    def test_write_baseline(self, capsys, tmp_path):
        path = tmp_path / "new-baseline.json"
        code = self.run_cli(
            "fig3_bipartite_attack", "--no-json", "--write-baseline", str(path)
        )
        assert code == 0
        assert "fig3_bipartite_attack" in load_baseline(path)["cases"]

    def test_unknown_case_is_usage_error(self, capsys):
        assert self.run_cli("not_a_case", "--no-json") == 2

    def test_no_selection_is_usage_error(self, capsys):
        assert self.run_cli() == 2

    def test_cases_plus_suite_is_usage_error(self, capsys):
        assert self.run_cli("fig3_bipartite_attack", "--suite", "smoke") == 2

    def test_missing_baseline_file_is_usage_error(self, capsys, tmp_path):
        code = self.run_cli(
            "fig3_bipartite_attack", "--no-json", "--compare", str(tmp_path / "nope.json")
        )
        assert code == 2

    def test_nonpositive_max_regress_is_usage_error(self, capsys, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        dump_baseline(baseline_from_results([make_result()]), baseline_path)
        code = self.run_cli(
            "fig3_bipartite_attack",
            "--no-json",
            "--compare", str(baseline_path),
            "--max-regress", "0",
        )
        assert code == 2
        assert "positive" in capsys.readouterr().err


class TestCommittedArtifacts:
    def test_ci_baseline_is_loadable_and_covers_the_smoke_suite(self):
        baseline = load_baseline(BENCH_DIR / "baselines" / "ci-baseline.json")
        assert set(baseline["cases"]) == set(bench_names())
        for entry in baseline["cases"].values():
            assert entry["tier"] == "quick"
            assert entry["wall_seconds"] > 0

    def test_committed_trajectory_point_is_loadable(self):
        result = load_bench(Path(__file__).parent.parent / "BENCH_table1_solvability.json")
        assert result.case == "table1_solvability"
        assert result.ok
        # The PR's hot-path win: before/after recorded in one file.
        assert result.baseline is not None
        assert result.baseline["wall_seconds"] > result.wall_seconds

    def test_committed_parallel_trajectory_point(self):
        result = load_bench(Path(__file__).parent.parent / "BENCH_sweep_parallel.json")
        assert result.case == "sweep_parallel"
        assert result.ok
        # The parallel-plane claim: with one worker per core of the
        # recording host, parallel beats the better of serial/batch.
        phases = dict(result.phases)
        assert phases["sweep[parallel]"] <= min(
            phases["sweep[serial]"], phases["sweep[batch]"]
        )
        assert result.metrics["workers_parallel"] == result.environment["cpu_count"]
        # Before/after vs the pre-change plane at the same worker count,
        # per the trajectory convention, and the merged per-worker stats.
        assert result.baseline is not None
        assert result.baseline["source"].endswith("pre-chunked-sweep-parallel-full.json")
        assert result.baseline["wall_seconds"] > result.wall_seconds
        assert result.cache["workers"]
