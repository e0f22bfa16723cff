"""Declarative conformance oracles: what must hold, checked per scenario.

An :class:`Oracle` is a named invariant over one scenario's execution:
``applies(spec)`` scopes it (a success oracle has nothing to say about
a link-faulted run), ``check(spec, ctx)`` evaluates it and returns
structured :class:`Violation` reports.  The :class:`OracleContext`
memoizes executions per ``(spec, runtime)``, so several oracles probing
the same scenario pay for one run, and the differential oracle pays for
one run *per runtime*, not per comparison.

Built-ins (the registry :data:`ORACLES`, extensible via
:func:`register_oracle`):

* ``solvable_ok`` — on a solvable, fault-free-channel setting, every
  record must pass all four bSM properties (the paper's Theorems as a
  falsifiable claim);
* ``agreement`` — honest parties' outputs must stay symmetric and the
  run must terminate (bsm and roommates), channels permitting;
* ``lattice_membership`` — honest outputs must form a *single element*
  of the effective instance's stable-matching lattice, enumerated via
  the rotation poset (:mod:`repro.rotations`) — stability, agreement,
  and completeness in one combinatorial check;
* ``verdict_consistency`` — the ``solvable``/``theorem`` columns on
  records must agree with :func:`~repro.core.solvability.cached_is_solvable`
  (records cannot drift from the oracle that scheduled them);
* ``runtime_differential`` — the same spec executed by Lockstep, Event,
  and Batch runtimes must produce byte-identical records (the
  semantics-preservation contract, enforced on *generated* scenarios,
  not just the hand-picked equivalence suite);
* ``executor_differential`` — the same contract one layer up: the
  engine's serial, batch, and parallel execution planes must produce
  byte-identical records for the spec (the parallel plane's sharding,
  per-worker caches, and record round-trip through the pool are all on
  trial here).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.core.solvability import cached_is_solvable
from repro.errors import ConformError
from repro.experiment.engine import Session
from repro.experiment.lattice_tags import effective_profile
from repro.experiment.records import RunRecordSet
from repro.experiment.spec import ExecutorSpec, ScenarioSpec, Sweep
from repro.rotations import cached_poset, consistent_position, outputs_to_partners
from repro.runtime.api import RUNTIME_NAMES

__all__ = [
    "Violation",
    "Oracle",
    "OracleContext",
    "ORACLES",
    "register_oracle",
    "unregister_oracle",
    "resolve_oracles",
    "default_oracle_names",
    "differential_sweep",
    "localhost_executor",
    "DIFFERENTIAL_EXECUTORS",
]

#: The execution planes the executor-differential oracle compares;
#: ``parallel`` is the plane with moving parts (chunking, per-worker
#: caches, warm starts).  The
#: ``hosts`` executor is opt-in (pass ``executors=(..., "hosts")``): it
#: spawns localhost worker subprocesses (see :func:`localhost_executor`),
#: which is the right cost for a dedicated suite or a CI smoke job but
#: not for every fuzzing run.
DIFFERENTIAL_EXECUTORS = ("serial", "batch", "parallel")


def localhost_executor(executor: str) -> "str | ExecutorSpec":
    """An engine-ready executor argument for a differential leg.

    The ``hosts`` executor needs endpoints; differential checks always
    mean "this machine, two workers" — a two-endpoint localhost plane
    exercises chunking, work stealing, and reassembly without network.
    Every other executor name passes through unchanged.
    """
    if executor == "hosts":
        return ExecutorSpec(name="hosts", hosts=("local", "local"))
    return executor


@dataclass(frozen=True)
class Violation:
    """One oracle failure, structured for reports and repro files."""

    oracle: str
    scenario: str
    message: str
    details: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "details", tuple((str(k), str(v)) for k, v in self.details)
        )

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "scenario": self.scenario,
            "message": self.message,
            "details": [list(pair) for pair in self.details],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Violation":
        return cls(
            oracle=data["oracle"],
            scenario=data["scenario"],
            message=data["message"],
            details=tuple(tuple(pair) for pair in data.get("details", ())),
        )


class OracleContext:
    """Memoized scenario execution, shared by every oracle of a run.

    Keyed by ``(spec canonical JSON, runtime override)`` so re-checking
    a spec (during shrinking, or by several oracles) never re-executes
    it.  ``records(spec)`` is the canonical execution (the spec's own
    runtime); ``records_for_runtime`` pins the runtime axis.
    """

    def __init__(self, session: Session | None = None) -> None:
        self.session = session if session is not None else Session()
        self._memo: dict[tuple[str, str], RunRecordSet] = {}
        self.executions = 0

    def records(self, spec: ScenarioSpec) -> RunRecordSet:
        return self.records_for_runtime(spec, spec.runtime)

    def records_for_runtime(self, spec: ScenarioSpec, runtime: str) -> RunRecordSet:
        pinned = spec if spec.family != "bsm" or spec.runtime == runtime else replace(
            spec, runtime=runtime
        )
        key = (spec.to_json(), runtime if spec.family == "bsm" else "")
        cached = self._memo.get(key)
        if cached is None:
            self.executions += 1
            cached = self.session.run(pinned)
            self._memo[key] = cached
        return cached

    def records_for_executor(self, spec: ScenarioSpec, executor: str) -> RunRecordSet:
        """The spec executed through one engine executor (memoized).

        ``serial`` delegates to the canonical :meth:`records` memo — the
        session's single-run path is the serial plane.  The pool-backed
        executors stay cheap per spec: a one-spec sweep is a single
        shard, which the parallel plane runs in-process.
        """
        if executor == "serial":
            return self.records(spec)
        key = (spec.to_json(), f"executor:{executor}")
        cached = self._memo.get(key)
        if cached is None:
            self.executions += 1
            cached = self.session.sweep(
                Sweep.of(spec), executor=localhost_executor(executor)
            )
            self._memo[key] = cached
        return cached


@dataclass(frozen=True)
class Oracle:
    """One named invariant (see the module docstring for the built-ins).

    Subclasses override :meth:`applies` / :meth:`check`; the base class
    applies to nothing, so a misregistered bare Oracle is inert rather
    than wrong.
    """

    name: str = ""

    def applies(self, spec: ScenarioSpec) -> bool:
        return False

    def check(self, spec: ScenarioSpec, ctx: OracleContext) -> tuple[Violation, ...]:
        return ()

    # -- helpers for subclasses ----------------------------------------------

    def _violation(
        self, spec: ScenarioSpec, message: str, **details: object
    ) -> Violation:
        return Violation(
            oracle=self.name,
            scenario=spec.label(),
            message=message,
            details=tuple(sorted((k, str(v)) for k, v in details.items())),
        )


def _lossless(spec: ScenarioSpec) -> bool:
    return spec.adversary is None or spec.adversary.link is None


class SolvableMustSucceed(Oracle):
    """Solvable settings with budget-respecting adversaries must succeed."""

    def __init__(self) -> None:
        super().__init__(name="solvable_ok")

    def applies(self, spec: ScenarioSpec) -> bool:
        return (
            spec.family == "bsm"
            and spec.recipe is None
            and _lossless(spec)
            and cached_is_solvable(spec.setting()).solvable
        )

    def check(self, spec: ScenarioSpec, ctx: OracleContext) -> tuple[Violation, ...]:
        return tuple(
            self._violation(
                spec,
                "solvable setting failed simulation",
                violations="; ".join(record.violations),
                adversary=record.adversary,
                rounds=record.rounds,
            )
            for record in ctx.records(spec)
            if not record.ok
        )


class HonestAgreement(Oracle):
    """Honest parties terminate and output symmetrically (lossless channels)."""

    def __init__(self) -> None:
        super().__init__(name="agreement")

    def applies(self, spec: ScenarioSpec) -> bool:
        if spec.family == "bsm":
            return (
                spec.recipe is None
                and _lossless(spec)
                and cached_is_solvable(spec.setting()).solvable
            )
        return spec.family == "roommates"

    def check(self, spec: ScenarioSpec, ctx: OracleContext) -> tuple[Violation, ...]:
        failures = []
        for record in ctx.records(spec):
            if not record.termination:
                failures.append(
                    self._violation(spec, "honest parties did not all terminate")
                )
            if not record.symmetry:
                failures.append(
                    self._violation(
                        spec,
                        "honest outputs are not symmetric",
                        outputs=record.outputs,
                    )
                )
        return tuple(failures)


class LatticeMembership(Oracle):
    """Honest outputs must form one element of the enumerated lattice.

    The deterministic protocols promise more than stability: every
    honest party must land on the *same* stable matching of the
    effective instance.  This oracle enumerates that instance's lattice
    via the rotation poset (:mod:`repro.rotations`) and demands a single
    lattice element consistent with every honest party's declared
    output — which simultaneously checks stability (the element is a
    stable matching), agreement (one element fits everyone), and
    completeness (a ``None`` output matches no lattice element).

    Scope: solvable, lossless bsm points whose effective instance is
    knowable — no adversary, an honest-behaving one, or a silent one
    (Lemma 1's default-list substitution pins the instance).  Noise,
    crash, and equivocation adversaries can change which instance the
    honest parties effectively solve, so those runs are out of scope
    here (the service plane tags them ``unscored`` instead).
    """

    def __init__(self) -> None:
        super().__init__(name="lattice_membership")

    def applies(self, spec: ScenarioSpec) -> bool:
        return (
            spec.family == "bsm"
            and spec.recipe is None
            and _lossless(spec)
            and cached_is_solvable(spec.setting()).solvable
            and effective_profile(spec) is not None
        )

    def check(self, spec: ScenarioSpec, ctx: OracleContext) -> tuple[Violation, ...]:
        profile = effective_profile(spec)
        assert profile is not None  # applies() gates on this
        poset = cached_poset(profile)
        failures = []
        for record in ctx.records(spec):
            if not record.outputs:
                continue  # every party corrupted: nothing honest to check
            outputs = outputs_to_partners(record.outputs)
            if consistent_position(poset, outputs) is None:
                failures.append(
                    self._violation(
                        spec,
                        "honest outputs match no element of the stable-matching lattice",
                        outputs=record.outputs,
                        rotations=len(poset),
                        lattice_size=poset.count_stable_matchings(limit=10_000),
                    )
                )
        return tuple(failures)


class VerdictConsistency(Oracle):
    """Record columns must agree with the (memoized) solvability oracle."""

    def __init__(self) -> None:
        super().__init__(name="verdict_consistency")

    def applies(self, spec: ScenarioSpec) -> bool:
        return spec.family == "bsm"

    def check(self, spec: ScenarioSpec, ctx: OracleContext) -> tuple[Violation, ...]:
        verdict = cached_is_solvable(spec.setting())
        failures = []
        for record in ctx.records(spec):
            if record.solvable is not verdict.solvable:
                failures.append(
                    self._violation(
                        spec,
                        "record solvable column disagrees with cached_is_solvable",
                        record=record.solvable,
                        oracle_verdict=verdict.solvable,
                    )
                )
            if record.theorem != verdict.theorem:
                failures.append(
                    self._violation(
                        spec,
                        "record theorem column disagrees with cached_is_solvable",
                        record=record.theorem,
                        oracle_verdict=verdict.theorem,
                    )
                )
        return tuple(failures)


class RuntimeDifferential(Oracle):
    """Lockstep/Event/Batch must produce byte-identical records."""

    runtimes: tuple[str, ...] = RUNTIME_NAMES

    def __init__(self, runtimes: Sequence[str] = RUNTIME_NAMES) -> None:
        super().__init__(name="runtime_differential")
        object.__setattr__(self, "runtimes", tuple(runtimes))

    def applies(self, spec: ScenarioSpec) -> bool:
        # Unsolvable recipe-less points never execute, so there is
        # nothing to differentiate; run everything else.
        return spec.family == "bsm" and (
            spec.recipe is not None or cached_is_solvable(spec.setting()).recipe is not None
        )

    def check(self, spec: ScenarioSpec, ctx: OracleContext) -> tuple[Violation, ...]:
        reference_runtime = self.runtimes[0]
        reference = ctx.records_for_runtime(spec, reference_runtime).to_json()
        failures = []
        for runtime in self.runtimes[1:]:
            candidate = ctx.records_for_runtime(spec, runtime).to_json()
            if candidate != reference:
                failures.append(
                    self._violation(
                        spec,
                        f"{runtime} runtime records diverge from {reference_runtime}",
                        runtime=runtime,
                        reference=reference_runtime,
                    )
                )
        return tuple(failures)


class ExecutorDifferential(Oracle):
    """Serial/Batch/Parallel engine executors must agree byte-for-byte.

    :class:`RuntimeDifferential` one layer up the stack: instead of
    pinning the kernel scheduling axis, this pins the *engine* executor
    axis.  Per spec, the batch leg puts the shared-cache plane on trial
    and the parallel leg its single-shard plumbing (chunk bounds, stats
    merge, the in-process short-circuit) — a one-spec sweep is one
    shard, so the *pool* round-trip and multi-shard reassembly are
    deliberately not re-executed here per scenario; they are covered at
    ensemble granularity by :func:`differential_sweep` with
    ``executors=`` and by the engine's own differential suite.  Passing
    ``executors=(..., "hosts")`` adds the cross-host plane on a
    two-worker localhost deployment (see :func:`localhost_executor`).
    """

    executors: tuple[str, ...] = DIFFERENTIAL_EXECUTORS

    def __init__(self, executors: Sequence[str] = DIFFERENTIAL_EXECUTORS) -> None:
        super().__init__(name="executor_differential")
        object.__setattr__(self, "executors", tuple(executors))

    def applies(self, spec: ScenarioSpec) -> bool:
        # Same scope as the runtime differential: bsm points that
        # actually execute.  (Other families take the same code path
        # under every executor, so there is nothing to differentiate.)
        return spec.family == "bsm" and (
            spec.recipe is not None or cached_is_solvable(spec.setting()).recipe is not None
        )

    def check(self, spec: ScenarioSpec, ctx: OracleContext) -> tuple[Violation, ...]:
        reference_executor = self.executors[0]
        reference = ctx.records_for_executor(spec, reference_executor).to_json()
        failures = []
        for executor in self.executors[1:]:
            candidate = ctx.records_for_executor(spec, executor).to_json()
            if candidate != reference:
                failures.append(
                    self._violation(
                        spec,
                        f"{executor} executor records diverge from {reference_executor}",
                        executor=executor,
                        reference=reference_executor,
                    )
                )
        return tuple(failures)


class TheoryStatistics(Oracle):
    """Large offline runs must match the Mertens/mean-field asymptotics.

    Applies to offline Gale–Shapley runs on uniform random complete
    profiles at ``k >= 32`` (below that, single-instance variance
    drowns the signal): the run's mean proposer partner rank
    (``proposals / k``) and mean receiver partner rank
    (``receiver_rank / k``) must land inside the generous per-instance
    tolerance bands of :mod:`repro.ensembles.theory`, and the matching
    must be perfect.  The tight ensemble-level gate lives in
    :func:`repro.ensembles.check_rank_statistics`; this per-spec oracle
    catches gross engine breakage (skewed sampling, wrong proposal
    order, early termination) from any single large instance the
    fuzzer or an ensemble draws.
    """

    MIN_K = 32

    def __init__(self) -> None:
        super().__init__(name="theory_stats")

    def applies(self, spec: ScenarioSpec) -> bool:
        return (
            spec.family == "offline"
            and spec.algorithm == "gale_shapley"
            and spec.profile is not None
            and spec.profile.kind == "random"
            and spec.k >= self.MIN_K
        )

    def check(self, spec: ScenarioSpec, ctx: OracleContext) -> tuple[Violation, ...]:
        from repro.ensembles.theory import proposer_rank_band, receiver_rank_band

        failures = []
        for record in ctx.records(spec):
            if record.matched != spec.k:
                failures.append(
                    self._violation(
                        spec,
                        "complete uniform preferences must produce a perfect matching",
                        matched=record.matched,
                        k=spec.k,
                    )
                )
                continue
            checks = (
                ("proposer", record.proposals / spec.k,
                 proposer_rank_band(spec.k, scope="instance")),
                ("receiver", record.receiver_rank / spec.k,
                 receiver_rank_band(spec.k, scope="instance")),
            )
            for side, measured, band in checks:
                if not band.contains(measured):
                    failures.append(
                        self._violation(
                            spec,
                            f"mean {side} rank outside the per-instance theory band",
                            measured=round(measured, 6),
                            band=band.describe(),
                        )
                    )
        return tuple(failures)


#: The oracle registry.  Tests may :func:`register_oracle` extra (even
#: deliberately broken) oracles; the CLI resolves names against this.
ORACLES: dict[str, Oracle] = {}


def register_oracle(oracle: Oracle) -> Oracle:
    """Add an oracle to the registry (replacing any same-named one)."""
    if not oracle.name:
        raise ConformError("oracles must carry a non-empty name")
    ORACLES[oracle.name] = oracle
    return oracle


def unregister_oracle(name: str) -> None:
    """Remove an oracle (tests clean up their injected ones)."""
    ORACLES.pop(name, None)


for _oracle in (
    SolvableMustSucceed(),
    HonestAgreement(),
    LatticeMembership(),
    VerdictConsistency(),
    RuntimeDifferential(),
    ExecutorDifferential(),
    TheoryStatistics(),
):
    register_oracle(_oracle)

#: Names of the built-in oracles, in evaluation order.
_DEFAULT_NAMES = (
    "solvable_ok",
    "agreement",
    "lattice_membership",
    "verdict_consistency",
    "runtime_differential",
    "executor_differential",
    "theory_stats",
)


def default_oracle_names() -> tuple[str, ...]:
    """The built-in oracle names, in evaluation order."""
    return _DEFAULT_NAMES


def resolve_oracles(names: Sequence[str] | None = None) -> tuple[Oracle, ...]:
    """Oracles for ``names`` (default: the built-ins, in order)."""
    selected = tuple(names) if names is not None else _DEFAULT_NAMES
    missing = [name for name in selected if name not in ORACLES]
    if missing:
        raise ConformError(
            f"unknown oracle(s) {missing}; registered: {sorted(ORACLES)}"
        )
    return tuple(ORACLES[name] for name in selected)


def differential_sweep(
    specs: Sequence[ScenarioSpec],
    session: Session | None = None,
    runtimes: Sequence[str] = RUNTIME_NAMES,
    executors: Sequence[str] = (),
) -> tuple[Violation, ...]:
    """The differential oracles, vectorized over a whole ensemble.

    Executes all ``specs`` once per runtime through the batch executor
    (the sweep fast path) and compares the record *sets* — byte-for-byte
    the same invariant as per-spec checking, at sweep throughput.
    Only bsm specs participate; others pass through untouched (they have
    no runtime axis) and always compare equal.

    ``executors`` optionally extends the comparison along the engine's
    executor axis (e.g. :data:`DIFFERENTIAL_EXECUTORS`): the whole
    ensemble is re-executed once per named executor — one pool spin-up
    per executor, not per spec — and each result stream is compared
    against the reference.  The executor that produced the reference
    (the session's own) is skipped: re-running it could only compare
    the plane against itself.
    """
    session = session if session is not None else Session(executor="batch")
    reference_runtime = runtimes[0]
    # Session stand-ins in tests may not expose an engine; an unknown
    # reference executor then skips nothing.
    reference_executor = getattr(getattr(session, "engine", None), "executor", "")

    def pinned(runtime: str) -> list[ScenarioSpec]:
        return [
            replace(spec, runtime=runtime) if spec.family == "bsm" else spec
            for spec in specs
        ]

    def compare(
        candidate: RunRecordSet, axis: str, value: str, reference_label: str
    ) -> list[Violation]:
        if len(candidate) != len(reference):
            return [
                Violation(
                    oracle=f"{axis}_differential",
                    scenario=f"<ensemble of {len(specs)} specs>",
                    message=(
                        f"{value} {axis} emitted {len(candidate)} records "
                        f"vs {len(reference)} from {reference_label}"
                    ),
                    details=(("reference", reference_label), (axis, value)),
                )
            ]
        # Both sweeps flatten the same specs in order, so the record
        # streams are index-aligned even when a spec emits several rows.
        return [
            Violation(
                oracle=f"{axis}_differential",
                scenario=ref_record.scenario,
                message=f"{value} {axis} records diverge from {reference_label}",
                details=(("reference", reference_label), (axis, value)),
            )
            for ref_record, cand_record in zip(reference, candidate)
            if ref_record.to_dict() != cand_record.to_dict()
        ]

    reference = session.sweep(pinned(reference_runtime))
    failures: list[Violation] = []
    # A missing/extra record is itself the divergence — compare() reports
    # the length mismatch rather than letting a truncating zip hide the
    # tail.
    for runtime in runtimes[1:]:
        failures.extend(
            compare(session.sweep(pinned(runtime)), "runtime", runtime, reference_runtime)
        )
    for executor in executors:
        if executor == reference_executor:
            continue  # the reference already ran on this plane
        failures.extend(
            compare(
                session.sweep(
                    pinned(reference_runtime), executor=localhost_executor(executor)
                ),
                "executor",
                executor,
                f"the {reference_executor} executor",
            )
        )
    return tuple(failures)
