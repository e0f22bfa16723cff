"""Cross-runtime equivalence: the contract of the runtime layer.

Every executor — the sequential lockstep reference, the asyncio event
runtime, and the shared-cache batched runtime — must turn the same
:class:`~repro.experiment.ScenarioSpec` into a byte-identical
:class:`~repro.experiment.RunRecord`.  This is what makes the runtime a
*knob* rather than a semantic choice, and what licenses the batch
executor's caches: any divergence here is a bug in amortization, not a
matter of taste.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.solvability import is_solvable
from repro.experiment import (
    AdversarySpec,
    LinkSpec,
    ProfileSpec,
    ScenarioSpec,
    Session,
    Sweep,
)
from repro.net.topology import TOPOLOGY_NAMES

SESSION = Session()


def records_under(spec: ScenarioSpec, runtime: str, executor: str = "serial"):
    """The record set for one spec pinned to a runtime, via an executor."""
    return SESSION.sweep(Sweep.of(replace(spec, runtime=runtime)), executor=executor)


def assert_all_runtimes_agree(spec: ScenarioSpec) -> None:
    reference = records_under(spec, "lockstep")
    event = records_under(spec, "event")
    batched_knob = records_under(spec, "batch")
    batched_executor = records_under(spec, "batch", executor="batch")
    assert event.to_json() == reference.to_json()
    assert batched_knob.to_json() == reference.to_json()
    assert batched_executor.to_json() == reference.to_json()


CASES = [
    ScenarioSpec(k=2),
    ScenarioSpec(
        topology="fully_connected",
        authenticated=True,
        k=3,
        tL=1,
        tR=1,
        adversary=AdversarySpec(kind="silent"),
    ),
    ScenarioSpec(
        topology="bipartite",
        authenticated=True,
        k=3,
        tL=1,
        tR=1,
        adversary=AdversarySpec(kind="equivocate", corrupt=("R0",)),
    ),
    ScenarioSpec(
        topology="one_sided",
        authenticated=False,
        k=4,
        tL=1,
        tR=1,
        adversary=AdversarySpec(kind="noise", seed=5),
        profile=ProfileSpec(kind="correlated", similarity=0.8, seed=2),
    ),
    ScenarioSpec(
        topology="fully_connected",
        authenticated=False,
        k=3,
        tL=0,
        tR=1,
        adversary=AdversarySpec(kind="crash", crash_round=3),
    ),
    # Link faults must drop identically in every runtime.
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
]


@pytest.mark.parametrize("spec", CASES, ids=lambda s: s.label())
def test_runtimes_byte_identical(spec):
    assert_all_runtimes_agree(spec)


def test_batch_executor_matches_serial_on_mixed_sweep():
    """The batch executor handles every family, in spec order."""
    sweep = SESSION.preset("smoke") + SESSION.preset("lossy")
    serial = SESSION.sweep(sweep)
    batched = SESSION.sweep(sweep, executor="batch")
    assert batched.to_json() == serial.to_json()
    assert batched.aggregate_json() == serial.aggregate_json()


def test_batch_executor_matches_parallel_pool():
    sweep = Sweep.grid(
        topologies=("fully_connected",),
        auths=(True,),
        ks=(2, 3),
        budgets="solvable",
        adversary=AdversarySpec(kind="silent"),
    )
    pooled = SESSION.sweep(sweep, executor="parallel", workers=2)
    batched = SESSION.sweep(sweep, executor="batch")
    assert batched.to_json() == pooled.to_json()


@settings(
    max_examples=25,
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
    seed=st.integers(min_value=0, max_value=4),
)
def test_runtimes_agree_property(topology, auth, k, tL, tR, kind, seed):
    """Property form: any runnable grid point agrees across runtimes."""
    tL, tR = min(tL, k), min(tR, k)
    from repro.core.problem import Setting

    if not is_solvable(Setting(topology, auth, k, tL, tR)).solvable:
        return
    spec = ScenarioSpec(
        topology=topology,
        authenticated=auth,
        k=k,
        tL=tL,
        tR=tR,
        profile=ProfileSpec(seed=seed),
        adversary=AdversarySpec(kind=kind, seed=seed) if (tL or tR) else None,
    )
    assert_all_runtimes_agree(spec)
