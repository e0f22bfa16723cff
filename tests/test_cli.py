"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSolve:
    def test_solvable(self, capsys):
        code = main(
            ["solve", "--topology", "fully_connected", "--auth", "--k", "3", "--tl", "3", "--tr", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "solvable: True" in out
        assert "Theorem 5" in out

    def test_unsolvable(self, capsys):
        code = main(
            ["solve", "--topology", "one_sided", "--auth", "--k", "3", "--tl", "1", "--tr", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "solvable: False" in out
        assert "Lemma 13" in out


class TestRun:
    def test_fault_free_run(self, capsys):
        code = main(
            ["run", "--topology", "fully_connected", "--auth", "--k", "2", "--tl", "0", "--tr", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "term=ok" in out
        assert "L0 ->" in out

    def test_run_with_adversary(self, capsys):
        code = main(
            [
                "run",
                "--topology", "bipartite",
                "--auth",
                "--k", "4",
                "--tl", "1",
                "--tr", "4",
                "--adversary", "silent",
                "--corrupt", "R0", "R1", "R2", "R3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pi_bsm" in out
        assert "nobody" in out

    def test_adversary_without_corrupt_errors(self, capsys):
        code = main(
            [
                "run",
                "--topology", "fully_connected",
                "--auth",
                "--k", "2",
                "--tl", "1",
                "--tr", "0",
                "--adversary", "silent",
            ]
        )
        assert code == 2

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--topology", "ring", "--k", "2", "--tl", "0", "--tr", "0"])

    def test_run_with_composed_mutator(self, capsys):
        """'+'-composed mutator names (the conform search/shrink output
        format) are accepted, so found strategies reproduce by hand."""
        code = main(
            [
                "run",
                "--topology", "fully_connected",
                "--auth",
                "--k", "3",
                "--tl", "1",
                "--tr", "1",
                "--adversary", "equivocate",
                "--corrupt", "R0",
                "--mutator", "swap_adjacent+drop_odd",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "term=ok sym=ok stab=ok nc=ok" in out

    def test_run_with_unknown_mutator_errors(self, capsys):
        code = main(
            [
                "run",
                "--topology", "fully_connected",
                "--auth",
                "--k", "2",
                "--tl", "1",
                "--tr", "0",
                "--adversary", "equivocate",
                "--corrupt", "L0",
                "--mutator", "bogus+drop_odd",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown mutator" in err

    def test_run_with_equivocate_adversary(self, capsys):
        code = main(
            [
                "run",
                "--topology", "fully_connected",
                "--auth",
                "--k", "3",
                "--tl", "1",
                "--tr", "1",
                "--adversary", "equivocate",
                "--corrupt", "R0",
                "--mutator", "reverse_even",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "term=ok sym=ok stab=ok nc=ok" in out


class TestSweep:
    def test_sweep_list(self, capsys):
        code = main(["sweep", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "table1" in out and "smoke" in out

    def test_sweep_smoke_serial(self, capsys):
        code = main(["sweep", "--preset", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep smoke:" in out
        assert "0 unexpected failures" in out
        assert "aggregates" in out

    def test_sweep_with_workers_and_exports(self, capsys, tmp_path):
        json_path = tmp_path / "records.json"
        csv_path = tmp_path / "records.csv"
        code = main(
            [
                "sweep",
                "--preset", "smoke",
                "--workers", "2",
                "--json", str(json_path),
                "--csv", str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(parallel)" in out
        from repro.io import load_records

        records = load_records(json_path)
        assert len(records) >= 6
        assert csv_path.read_text().startswith("scenario,")

    def test_sweep_without_preset_errors(self, capsys):
        code = main(["sweep"])
        assert code == 2

    def test_sweep_from_invalid_spec_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"specs": [{"family": "bogus"}]}')
        code = main(["sweep", "--spec-json", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot load sweep" in err

    def test_sweep_from_spec_json(self, capsys, tmp_path):
        from repro.experiment import ScenarioSpec, Sweep

        path = tmp_path / "sweep.json"
        path.write_text(Sweep.of(ScenarioSpec(k=2, name="tiny")).to_json())
        code = main(["sweep", "--spec-json", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 runs" in out


class TestTraceCommand:
    RUN_ARGS = ["--topology", "fully_connected", "--auth", "--k", "2", "--tl", "0", "--tr", "0"]

    def test_trace_to_stdout(self, capsys):
        code = main(["trace", *self.RUN_ARGS])
        out = capsys.readouterr().out
        assert code == 0
        import json

        events = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert events
        assert {event["kind"] for event in events} >= {"send", "output", "halt"}

    def test_trace_to_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(["trace", *self.RUN_ARGS, "--out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace events written" in out
        from repro.io import load_trace

        assert load_trace(path)

    def test_trace_honors_runtime_knob(self, capsys, tmp_path):
        code = main(["trace", *self.RUN_ARGS, "--runtime", "event", "--out", str(tmp_path / "t.jsonl")])
        assert code == 0


class TestSweepRuntimeOptions:
    def test_batch_executor_matches_serial(self, capsys, tmp_path):
        serial_path = tmp_path / "serial.json"
        batch_path = tmp_path / "batch.json"
        assert main(["sweep", "--preset", "smoke", "--json", str(serial_path)]) == 0
        assert (
            main(["sweep", "--preset", "smoke", "--executor", "batch", "--json", str(batch_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "(batch)" in out
        assert serial_path.read_text() == batch_path.read_text()

    def test_sweep_trace_out(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(
            ["sweep", "--preset", "smoke", "--executor", "batch", "--trace-out", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace events written" in out
        assert path.read_text().strip()

    def test_trace_out_rejected_on_process_pool(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--preset", "smoke",
                "--workers", "2",
                "--trace-out", str(tmp_path / "t.jsonl"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "in-process" in err


class TestAttack:
    @pytest.mark.parametrize("lemma", ["lemma5", "lemma7", "lemma13"])
    def test_attacks_report_violation(self, capsys, lemma):
        code = main(["attack", lemma])
        out = capsys.readouterr().out
        assert code == 0  # 0 = violation demonstrated (the expected outcome)
        assert "property violated somewhere: True" in out


class TestTable:
    def test_table_renders(self, capsys):
        code = main(["table", "--k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fully_connected / auth" in out
        assert "#" in out and "." in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
