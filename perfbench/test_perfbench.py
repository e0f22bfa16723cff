"""Tests for the benchmark's own helpers (run with ``python3 -m pytest perfbench``)."""

from __future__ import annotations

import inspect
import json
import re
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import catalog, common, ensemble, grid, layers  # noqa: E402
from perfbench.spans import _MISSING, Tracer  # noqa: E402


# -- the percentile rule -------------------------------------------------------


def test_tail_is_p99_once_ten_samples_lie_beyond_it():
    assert common.tail_rank(1000) == 99.0
    assert common.tail_rank(5000) == 99.0
    assert common.tail_rank(999) == 98.0
    assert common.tail_rank(160) == 93.0
    assert common.tail_rank(10) == 0.0


def test_tail_value_has_ten_samples_beyond_it():
    for count in (11, 57, 160, 999, 1000, 1098):
        samples = [float(index) for index in range(count)]
        pct, value = common.tail(list(reversed(samples)))
        assert sum(1 for sample in samples if sample > value) >= 10
        # ...and the next whole percentile up would not have them.
        if pct < 99:
            higher = common.percentile(samples, pct + 1)
            assert sum(1 for sample in samples if sample > higher) < 10


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(samples, 50) == 3.0
    assert common.percentile(samples, 100) == 5.0
    assert common.percentile(samples, 1) == 1.0


# -- wrapper install and restore -----------------------------------------------


class _Base:
    def inherited(self):
        return "inherited"


class _Target(_Base):
    def method(self, x):
        return x + 1

    @classmethod
    def klass(cls, x):
        return (cls, x)

    @staticmethod
    def static(x):
        return x * 2


def _snapshot(owner, names):
    return {name: (name in vars(owner), inspect.getattr_static(owner, name)) for name in names}


def test_patch_and_restore_by_identity():
    module = types.ModuleType("fake")
    module.function = lambda x: -x
    names = ("method", "klass", "static", "inherited")
    before = _snapshot(_Target, names)
    module_before = module.function
    tracer = Tracer()
    for name in names:
        tracer.patch(_Target, name, f"layer.{name}")
    tracer.patch(module, "function", "layer.function")
    target = _Target()
    assert target.method(1) == 2
    assert _Target.klass(3) == (_Target, 3)
    assert target.static(4) == 8
    assert target.inherited() == "inherited"
    assert module.function(5) == -5
    calls = tracer.calls()
    assert all(calls[f"layer.{name}"] == 1 for name in names + ("function",))
    tracer.restore()
    assert _snapshot(_Target, names) == before
    assert module.function is module_before
    assert not tracer._patches


def test_library_layers_restore_by_identity():
    from repro.experiment import engine
    from repro.runtime.cache import ExecutionCache

    tracer = Tracer()
    layers.install(tracer, service=True)
    patched = list(tracer._patches)
    assert len(patched) > 20
    originals = {(id(owner), name): raw for owner, name, raw in patched}
    assert engine.prepare_bsm is not originals[(id(engine), "prepare_bsm")]
    tracer.restore()
    for owner, name, raw in patched:
        if raw is _MISSING:
            assert name not in vars(owner)
        else:
            assert vars(owner)[name] is raw
    assert "payload_size" in vars(ExecutionCache)


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    with tracer.span("root"):
        outer()
    selves = tracer.self_seconds()
    spans = tracer.span_seconds()
    assert abs(sum(selves.values()) - spans["root"]) < 1e-6
    assert tracer.calls()["inner"] == 3


def test_outermost_spans_count_once():
    tracer = Tracer()

    def recurse(depth):
        return 0 if depth == 0 else recurse_wrapped(depth - 1)

    recurse_wrapped = tracer.wrap(recurse, "protocol", outermost=True)
    recurse_wrapped(4)
    assert tracer.calls()["protocol"] == 1


# -- digests and streaming order -------------------------------------------------


def _small_grid():
    from repro import AdversarySpec, Sweep

    return list(Sweep.grid(ks=(2,), seeds=(3,), adversary=AdversarySpec(kind="equivocate")))[:6]


def test_digest_is_stable_across_identical_runs_and_executors():
    from repro import Session

    specs = _small_grid()
    first = common.records_digest(Session(executor="batch").sweep(specs))
    second = common.records_digest(Session(executor="batch").sweep(specs))
    serial = common.records_digest(Session(executor="serial").sweep(specs))
    assert first == second == serial


def test_grid_first_record_not_after_sweep_end():
    from repro import Session

    wall, log, records = grid._pass(Session(executor="batch"), _small_grid())
    assert len(records) == 6
    assert 0 < log.first <= log.last <= wall


def test_ensemble_first_record_not_after_sweep_end_and_archive_stable():
    from repro import ProfileSpec, ScenarioSpec, Session

    specs = [
        ScenarioSpec(family="offline", k=k, profile=ProfileSpec(kind="random", seed=seed))
        for k in (20, 40) for seed in range(6)
    ]
    outcomes = [ensemble._pass(Session(executor="batch"), specs, 1) for _ in range(2)]
    for outcome in outcomes:
        assert outcome["count"] == len(specs)
        assert not outcome["checkpoint_left"]
        assert 0 < outcome["log"].first <= outcome["wall"]
    assert outcomes[0]["digest"] == outcomes[1]["digest"]


def test_environment_mismatch_is_refused():
    env = {"cores": 2, "native_lane": True, "python": "3.11", "git_sha": "a"}
    assert common.comparable(env, dict(env, git_sha="b")) == []
    assert len(common.comparable(env, dict(env, native_lane=False, cores=4))) == 2


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_mirrors_the_catalog():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == catalog.benchmark_json(document["run_seconds"])
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = document["end_to_end"] + document["per_layer"]
    names = [metric["name"] for metric in metrics + document["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(metric["unit"]) for metric in metrics)
    assert all(0 < metric["bound"] <= 0.25 for metric in document["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_every_layer_names_what_it_should_move():
    end_to_end = set(catalog.END_TO_END_NAMES)
    for metric in catalog.PER_LAYER:
        for target, workload in metric["moves"]:
            assert target in end_to_end
            assert workload in catalog.WORKLOADS or workload in catalog.EXTRA_WORKLOADS
