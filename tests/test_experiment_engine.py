"""The batch engine: determinism across executors, caches, records."""

import json

import pytest

from repro.core.problem import Setting
from repro.errors import SolvabilityError
from repro.experiment import (
    AdversarySpec,
    Engine,
    ProfileSpec,
    RunRecordSet,
    ScenarioSpec,
    Session,
    Sweep,
    execute_spec,
)
from repro.experiment.engine import cached_keyring, cached_verdict

SMALL_SWEEP = Sweep.of(
    ScenarioSpec(k=2, name="a"),
    ScenarioSpec(
        k=2, tL=1, tR=0, adversary=AdversarySpec(kind="silent"), name="b"
    ),
    ScenarioSpec(
        topology="bipartite",
        authenticated=True,
        k=3,
        tL=1,
        tR=1,
        adversary=AdversarySpec(kind="equivocate", corrupt=("R0",)),
        name="c",
    ),
    ScenarioSpec(
        topology="one_sided",
        authenticated=False,
        k=3,
        tL=0,
        tR=1,
        adversary=AdversarySpec(kind="noise"),
        name="d",
    ),
    ScenarioSpec(family="attack", attack="lemma7", name="e"),
    ScenarioSpec(
        family="roommates",
        n=4,
        t=1,
        authenticated=True,
        adversary=AdversarySpec(kind="silent"),
        name="f",
    ),
    ScenarioSpec(family="offline", algorithm="gale_shapley", k=6, name="g"),
    ScenarioSpec(
        family="offline",
        algorithm="incomplete",
        k=6,
        profile=ProfileSpec(kind="incomplete_random", acceptance=0.5),
        name="h",
    ),
)


class TestExecuteSpec:
    def test_bsm_record_fields(self):
        (record,) = execute_spec(SMALL_SWEEP.specs[1])
        assert record.family == "bsm"
        assert record.ok and record.solvable
        assert record.adversary == "silent" and record.corrupted == 1
        assert record.rounds > 0 and record.messages > 0
        assert record.recipe == "bb_direct"

    def test_attack_produces_one_record_per_scenario(self):
        records = execute_spec(ScenarioSpec(family="attack", attack="lemma7"))
        assert len(records) == 3
        assert {r.scenario.rsplit("/", 1)[1] for r in records} == {
            "honest_copy1",
            "honest_copy2",
            "attack",
        }
        # The theorem: somewhere a property breaks.
        assert any(not r.ok for r in records)

    def test_offline_records_have_no_network_cost(self):
        (record,) = execute_spec(SMALL_SWEEP.specs[6])
        assert record.rounds == 0 and record.messages == 0
        assert record.proposals > 0 and record.matched == 6

    def test_determinism(self):
        spec = SMALL_SWEEP.specs[3]
        assert execute_spec(spec) == execute_spec(spec)

    def test_unsolvable_point_yields_not_run_record(self):
        spec = ScenarioSpec(topology="bipartite", authenticated=False, k=3, tL=2, tR=2)
        (record,) = execute_spec(spec)
        assert record.solvable is False and not record.ok
        assert record.violations[0].startswith("not run:")
        assert record.rounds == 0 and record.messages == 0

    def test_budgets_all_sweep_completes_without_aborting(self):
        sweep = Sweep.grid(
            topologies=("bipartite",), auths=(False,), ks=(2,), budgets="all"
        )
        records = Session().sweep(sweep)
        assert len(records) == 9
        # Unsolvable points are characterized, not counted as failures.
        assert len(records.failures) == 0
        assert any(r.solvable is False for r in records)
        assert any(r.solvable is True and r.ok for r in records)


class TestExecutors:
    def test_serial_and_parallel_are_byte_identical(self):
        session = Session()
        serial = session.sweep(SMALL_SWEEP)
        pooled = session.sweep(SMALL_SWEEP, executor="parallel", workers=2)
        assert serial.records == pooled.records
        assert serial.to_json() == pooled.to_json()
        assert serial.aggregate_json() == pooled.aggregate_json()
        assert serial.executor == "serial" and pooled.executor == "parallel"

    def test_records_in_spec_order(self):
        records = Session().sweep(SMALL_SWEEP)
        bsm_names = [r.scenario for r in records if r.family == "bsm"]
        assert bsm_names == ["a", "b", "c", "d"]

    def test_unknown_executor_rejected(self):
        with pytest.raises(SolvabilityError):
            Engine(executor="quantum")

    def test_sweep_accepts_preset_names(self):
        records = Session().sweep("smoke")
        assert len(records) >= 6

    def test_workers_alone_implies_parallel_pool(self):
        assert Session(workers=2).engine.executor == "parallel"
        records = Session().sweep(Sweep.of(*SMALL_SWEEP.specs[:2]), workers=2)
        assert records.executor == "parallel"
        # An explicit executor always wins.
        assert Session(executor="serial", workers=2).engine.executor == "serial"


class TestCaches:
    def test_keyring_memoized(self):
        assert cached_keyring(3) is cached_keyring(3)
        assert cached_keyring(3) is not cached_keyring(4)

    def test_verdict_memoized(self):
        setting = Setting("bipartite", True, 3, 1, 1)
        assert cached_verdict(setting) is cached_verdict(setting)

    def test_memoized_run_equals_fresh_run(self):
        """The cached keyring/verdict must not change behavior."""
        from repro.core.problem import BSMInstance
        from repro.core.runner import run_bsm
        from repro.matching.generators import random_profile

        spec = SMALL_SWEEP.specs[2]
        instance = BSMInstance(spec.setting(), random_profile(spec.k, 0))
        fresh = run_bsm(instance)
        cached = Session().execute(instance)
        assert fresh.result.outputs == cached.result.outputs
        assert fresh.result.rounds == cached.result.rounds


class TestRecordSet:
    def test_columns_and_aggregate(self):
        records = Session().sweep(SMALL_SWEEP)
        columns = records.columns()
        assert len(columns["scenario"]) == len(records)
        agg = records.aggregate(by=("family",))
        assert {row["family"] for row in agg} == {"bsm", "attack", "roommates", "offline"}
        for row in agg:
            assert row["runs"] >= 1 and "mean_rounds" in row

    def test_json_round_trip(self):
        records = Session().sweep(SMALL_SWEEP)
        again = RunRecordSet.from_json(records.to_json())
        assert again == records

    def test_csv_has_header_and_rows(self):
        records = Session().sweep(SMALL_SWEEP)
        lines = records.to_csv().splitlines()
        assert lines[0].startswith("scenario,family,")
        assert len(lines) == len(records) + 1

    def test_io_helpers(self, tmp_path):
        from repro.io import dump_records, load_records, records_to_csv

        records = Session().sweep(SMALL_SWEEP)
        json_path = tmp_path / "records.json"
        csv_path = tmp_path / "records.csv"
        dump_records(records, json_path)
        records_to_csv(records, csv_path)
        assert load_records(json_path) == records
        assert json.loads(json_path.read_text())["records"]
        assert csv_path.read_text().startswith("scenario,")

    def test_where_and_failures(self):
        records = Session().sweep(SMALL_SWEEP)
        attacks = records.where(lambda r: r.family == "attack")
        assert len(attacks) == 3
        # No solvable bsm run should have failed.
        assert len(records.failures) == 0


class TestRoommatesFamily:
    def test_session_roommates_matches_sweep_path(self):
        spec = SMALL_SWEEP.specs[5]
        report = Session().roommates(spec)
        (record,) = execute_spec(spec)
        assert report.ok == record.ok
        assert report.result.rounds == record.rounds

    def test_non_silent_adversary_rejected_on_both_paths(self):
        spec = ScenarioSpec(
            family="roommates",
            n=4,
            t=1,
            authenticated=True,
            adversary=AdversarySpec(kind="noise"),
        )
        with pytest.raises(SolvabilityError, match="silent"):
            execute_spec(spec)
        with pytest.raises(SolvabilityError, match="silent"):
            Session().roommates(spec)


class TestAdaptive:
    def test_adaptive_runs_until_refine_is_empty(self):
        engine = Engine()
        seen_batches = []

        def refine(records):
            seen_batches.append(len(records))
            if len(records) >= 3:
                return ()
            return (ScenarioSpec(k=2, name=f"extra{len(records)}"),)

        records = engine.run_adaptive(
            (ScenarioSpec(k=2, name="seed0"),), refine, max_batches=5
        )
        assert len(records) == 3
        assert [r.scenario for r in records] == ["seed0", "extra1", "extra2"]
