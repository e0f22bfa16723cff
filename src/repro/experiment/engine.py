"""The batch engine: execute one spec, or thousands, on any executor.

Layering:

* :func:`execute_spec` — the pure function from a
  :class:`~repro.experiment.spec.ScenarioSpec` to its
  :class:`~repro.experiment.records.RunRecord` rows.  Deterministic:
  every source of randomness is seeded by the spec, and process-level
  caches only memoize pure values (solvability verdicts, keyrings);
* the execution core — one pipeline behind every executor: specs are
  cut into contiguous chunks (:func:`_spec_chunks`); a *backend*
  yields each chunk's records in spec order — ``inline`` (``"serial"``
  one spec at a time, the reference path, or batched through
  :class:`~repro.runtime.BatchRuntime` round loops over one persistent
  :class:`~repro.runtime.ExecutionCache`), ``pool`` (``"parallel"`` on
  more than one effective worker) or ``hosts``
  (:mod:`repro.runtime.remote`); and a *consumer* collects a
  :class:`~repro.experiment.records.RunRecordSet`, writes a sink with a
  checkpoint update per chunk (:func:`sweep_into`), or yields the
  chunks (:func:`stream_sweep`, which can also run them on a pool its
  caller owns — the service's).  Out-of-process workers run chunks
  through one worker-side function (:func:`_run_chunk`), so output is
  byte-identical whichever backend ran it;
* :class:`Engine` — batch execution plus adaptive sweeps (run, refine,
  repeat);
* :class:`Session` — the user-facing façade: presets, single runs with
  full reports, sweeps, structured traces, and the memoized oracle.
  Every CLI command, benchmark, and example routes through a session.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import functools
import itertools
import os
import time
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.problem import BSMInstance, Setting
from repro.core.runner import (
    BSMReport,
    finish_bsm,
    make_adversary,
    prepare_bsm,
    run_bsm,
)
from repro.core.solvability import SolvabilityVerdict, cached_is_solvable
from repro.crypto.signatures import KeyRing
from repro.errors import SolvabilityError
from repro.experiment.records import RunRecord, RunRecordSet
from repro.experiment.spec import EXECUTOR_NAMES, ExecutorSpec, ScenarioSpec, Sweep
from repro.ids import all_parties
from repro.runtime import (
    NO_CACHE,
    BatchRuntime,
    ExecutionCache,
    TraceRecorder,
    merge_cache_stats,
    runtime_for,
)

__all__ = [
    "EXECUTORS",
    "POOLED_EXECUTORS",
    "OUT_OF_PROCESS_EXECUTORS",
    "execute_spec",
    "stream_sweep",
    "effective_workers",
    "cached_verdict",
    "cached_keyring",
    "Engine",
    "Session",
]

#: The executor axis (re-exported from the spec layer, where the
#: declarative :class:`~repro.experiment.spec.ExecutorSpec` lives).
EXECUTORS = EXECUTOR_NAMES

#: Executors that fan work over a process pool: they honor ``workers``
#: and cannot stream structured trace events back to the parent.  The
#: CLI and the bench runner key their pool-specific handling off this
#: tuple, so a future pool-backed executor changes it in one place.
POOLED_EXECUTORS = ("parallel",)

#: Executors whose runs leave this process entirely (the pool plus the
#: cross-host plane) — none of them can stream trace events back.
OUT_OF_PROCESS_EXECUTORS = POOLED_EXECUTORS + ("hosts",)


# -- memoized pure values (per process; workers build their own) ---------------


#: The solvability oracle, memoized across runs — one shared memo with
#: sweep-grid expansion and the frontier preset (see
#: :data:`repro.core.solvability.cached_is_solvable`).
cached_verdict = cached_is_solvable


@functools.lru_cache(maxsize=64)
def cached_keyring(k: int) -> KeyRing:
    """One PKI per side size, shared by every authenticated run.

    A :class:`KeyRing` is immutable after construction, so reusing it
    across runs is safe and skips ``2k`` key derivations per run.
    """
    return KeyRing(all_parties(k))


# -- spec execution ------------------------------------------------------------


def _cached_profile(spec: ScenarioSpec, cache) -> object:
    """The spec's materialized profile, memoized through ``cache``.

    Generated profiles are pure functions of ``(kind, knobs, seed, k)``
    and immutable once built, so a batch can share one object across
    every budget point that reuses a seed.  Explicit-list profiles skip
    the cache (their spec is unhashable and they are built trivially).
    """
    profile_spec = spec.profile
    if profile_spec.lists is not None:
        return profile_spec.build(spec.k)
    key = (
        "profile",
        profile_spec.kind,
        profile_spec.seed,
        profile_spec.similarity,
        profile_spec.acceptance,
        spec.k,
    )
    return cache.memo(key, lambda: profile_spec.build(spec.k))


def _build_bsm_run(spec: ScenarioSpec, cache=NO_CACHE):
    """Materialize one bsm spec: ``(setting, verdict, instance, adversary,
    adversary_kind, corrupted, drop_rule)`` — shared by the record and
    report paths."""
    setting = spec.setting()
    verdict = cached_verdict(setting)
    instance = BSMInstance(setting, _cached_profile(spec, cache))
    adversary = None
    adversary_kind = "none"
    corrupted: tuple = ()
    drop_rule = None
    if spec.adversary is not None:
        if spec.adversary.link is not None:
            drop_rule = spec.adversary.link.drop_rule(setting)
        corrupted = spec.adversary.corrupted_parties(setting)
        if corrupted:
            adversary_kind = spec.adversary.kind
            adversary = make_adversary(
                instance,
                corrupted,
                kind=spec.adversary.kind,
                # Resolve the recipe here so make_adversary does not hit
                # the uncached oracle once per run.
                recipe=spec.recipe or verdict.recipe or "bb_direct",
                seed=spec.adversary.seed,
                crash_round=spec.adversary.crash_round,
                mutator=spec.adversary.mutator,
            )
    return setting, verdict, instance, adversary, adversary_kind, corrupted, drop_rule


def _bsm_not_run_record(spec: ScenarioSpec, verdict: SolvabilityVerdict) -> RunRecord:
    """The record for an unsolvable, recipe-less grid point.

    Emitted instead of aborting the whole sweep, so grid sweeps over
    ``budgets="all"`` characterize rather than crash.
    """
    return RunRecord(
        scenario=spec.label(),
        family="bsm",
        topology=spec.topology,
        authenticated=spec.authenticated,
        k=spec.k,
        tL=spec.tL,
        tR=spec.tR,
        seed=spec.profile.seed,
        solvable=False,
        theorem=verdict.theorem,
        adversary=spec.adversary.kind if spec.adversary else "none",
        link=(
            spec.adversary.link.describe()
            if spec.adversary and spec.adversary.link
            else ""
        ),
        violations=(f"not run: {verdict.reason}",),
        tags=spec.tags,
    )


def _bsm_record(
    spec: ScenarioSpec,
    verdict: SolvabilityVerdict,
    adversary_kind: str,
    corrupted: tuple,
    report: BSMReport,
) -> RunRecord:
    """Flatten one executed bsm run into its record row."""
    outputs = tuple(
        (str(party), str(report.result.outputs.get(party)))
        for party in sorted(report.honest)
    )
    matched = sum(1 for _, partner in outputs if partner != "None")
    return RunRecord(
        scenario=spec.label(),
        family="bsm",
        topology=spec.topology,
        authenticated=spec.authenticated,
        k=spec.k,
        tL=spec.tL,
        tR=spec.tR,
        seed=spec.profile.seed,
        recipe=spec.recipe or (verdict.recipe or ""),
        solvable=verdict.solvable,
        theorem=verdict.theorem,
        adversary=adversary_kind,
        link=(
            spec.adversary.link.describe()
            if spec.adversary and spec.adversary.link
            else ""
        ),
        corrupted=len(corrupted),
        ok=report.ok,
        termination=report.report.termination,
        symmetry=report.report.symmetry,
        stability=report.report.stability,
        non_competition=report.report.non_competition,
        violations=tuple(report.report.violations),
        rounds=report.result.rounds,
        messages=report.result.message_count,
        bytes=report.result.byte_count,
        dropped=report.result.dropped,
        matched=matched,
        outputs=outputs,
        tags=spec.tags,
    )


def _compile_bsm(spec: ScenarioSpec, cache=NO_CACHE, trace=None):
    """Compile one bsm spec: ``(records, compiled)``.

    Exactly one of the two is set: ``records`` for points that produce
    rows without running (unsolvable, recipe-less), ``compiled`` as
    ``(prepared, adversary_kind, corrupted)`` ready for any runtime.
    Both the serial and batched executors assemble through here, so
    they cannot drift apart.
    """
    verdict = cached_verdict(spec.setting())
    if spec.recipe is None and verdict.recipe is None:
        return (_bsm_not_run_record(spec, verdict),), None
    setting, verdict, instance, adversary, adversary_kind, corrupted, drop_rule = (
        _build_bsm_run(spec, cache)
    )
    prepared = prepare_bsm(
        instance,
        adversary,
        recipe=spec.recipe,
        max_rounds=spec.max_rounds,
        record_trace=spec.record_trace,
        keyring=cached_keyring(spec.k) if setting.authenticated else None,
        verdict=verdict,
        drop_rule=drop_rule,
        trace=trace,
        label=spec.label(),
    )
    return None, (prepared, adversary_kind, corrupted)


def _bsm_records(spec: ScenarioSpec, cache=NO_CACHE, trace=None) -> tuple[RunRecord, ...]:
    records, compiled = _compile_bsm(spec, cache, trace)
    if records is not None:
        return records
    prepared, adversary_kind, corrupted = compiled
    report = finish_bsm(prepared, runtime_for(spec.runtime).run(prepared.plan))
    return (_bsm_record(spec, prepared.verdict, adversary_kind, corrupted, report),)


def _attack_records(spec: ScenarioSpec) -> tuple[RunRecord, ...]:
    from repro.adversary.attacks import run_attack

    twisted = attack_spec(spec.attack)
    report = run_attack(twisted)
    setting = twisted.setting
    verdict = cached_verdict(setting)
    records = []
    for scenario_name, outcome in report.outcomes.items():
        outputs = tuple(
            (str(party), str(value)) for party, value in sorted(outcome.outputs.items())
        )
        records.append(
            RunRecord(
                scenario=f"{spec.label()}/{scenario_name}",
                family="attack",
                topology=setting.topology_name,
                authenticated=setting.authenticated,
                k=setting.k,
                tL=setting.tL,
                tR=setting.tR,
                recipe=twisted.recipe,
                solvable=verdict.solvable,
                theorem=verdict.theorem,
                adversary="twisted",
                corrupted=len(outcome.corrupted),
                ok=outcome.report.all_ok,
                termination=outcome.report.termination,
                symmetry=outcome.report.symmetry,
                stability=outcome.report.stability,
                non_competition=outcome.report.non_competition,
                violations=tuple(outcome.report.violations),
                rounds=outcome.result.rounds,
                messages=outcome.result.message_count,
                bytes=outcome.result.byte_count,
                matched=sum(1 for _, v in outputs if v != "None"),
                outputs=outputs,
                tags=spec.tags,
            )
        )
    return tuple(records)


def _run_roommates_spec(spec: ScenarioSpec):
    """Execute one roommates spec; returns ``(report, adversary_kind, corrupted)``."""
    from repro.adversary.adversary import BehaviorAdversary, SilentBehavior
    from repro.core.roommates_bsm import RoommatesInstance, RoommatesSetting, run_roommates

    setting = RoommatesSetting(n=spec.n, t=spec.t, authenticated=spec.authenticated)
    parties = setting.parties()
    instance = RoommatesInstance(setting, spec.profile.build_roommates(parties))
    adversary = None
    corrupted: tuple = ()
    adversary_kind = "none"
    if spec.adversary is not None and spec.t > 0:
        if spec.adversary.kind != "silent":
            raise SolvabilityError(
                "roommates specs currently support only the silent adversary"
            )
        adversary_kind = spec.adversary.kind
        if spec.adversary.corrupt == "budget":
            corrupted = tuple(parties[-spec.t:])
        else:
            corrupted = spec.adversary.corrupted_parties(
                Setting("fully_connected", spec.authenticated, setting.k, 0, 0)
            )
        adversary = BehaviorAdversary({p: SilentBehavior() for p in corrupted})
    report = run_roommates(
        instance,
        adversary,
        max_rounds=spec.max_rounds or 400,
        reference_solvable=False if adversary is not None else None,
    )
    return report, adversary_kind, corrupted


def _roommates_records(spec: ScenarioSpec) -> tuple[RunRecord, ...]:
    report, adversary_kind, corrupted = _run_roommates_spec(spec)
    setting = report.setting
    outputs = tuple(
        (str(party), str(report.result.outputs.get(party)))
        for party in sorted(report.honest)
    )
    return (
        RunRecord(
            scenario=spec.label(),
            family="roommates",
            topology="fully_connected",
            authenticated=spec.authenticated,
            k=setting.k,
            tL=spec.t,
            tR=0,
            seed=spec.profile.seed,
            recipe="roommates_bb",
            adversary=adversary_kind,
            corrupted=len(corrupted),
            ok=report.ok,
            termination=report.verdict.termination,
            symmetry=report.verdict.symmetry,
            stability=report.verdict.conditional_stability,
            non_competition=report.verdict.non_competition,
            violations=tuple(report.verdict.violations),
            rounds=report.result.rounds,
            messages=report.result.message_count,
            bytes=report.result.byte_count,
            matched=sum(1 for _, v in outputs if v != "None"),
            outputs=outputs,
            tags=spec.tags,
        ),
    )


def _offline_records(spec: ScenarioSpec, cache=NO_CACHE) -> tuple[RunRecord, ...]:
    from repro.ids import left_side, right_side
    from repro.matching.gale_shapley import gale_shapley
    from repro.matching.incomplete import IncompleteProfile, gale_shapley_incomplete
    from repro.matching.kernel import random_instance_stats

    if spec.algorithm == "gale_shapley" and spec.profile.kind == "random":
        # Kernel fast path for the random-ensemble workload: the record
        # carries only (matched, proposals, receiver_rank), all of which
        # the kernel computes PartyId-free from the same seed stream —
        # byte-identical to building the profile (tests/test_kernel.py).
        # A batch cache lends the instance's matrices (NO_CACHE: fresh).
        proposals, receiver_rank = random_instance_stats(
            spec.k, spec.profile.seed, cache.instance_buffers
        )
        return (
            RunRecord(
                scenario=spec.label(),
                family="offline",
                k=spec.k,
                seed=spec.profile.seed,
                recipe=spec.algorithm,
                ok=True,
                termination=True,
                symmetry=True,
                stability=True,
                non_competition=True,
                matched=spec.k,
                proposals=proposals,
                receiver_rank=receiver_rank,
                tags=spec.tags,
            ),
        )

    profile = spec.profile.build(spec.k)
    receiver_rank = 0
    if spec.algorithm == "incomplete":
        if not isinstance(profile, IncompleteProfile):
            # A complete profile is the everyone-acceptable special case
            # (conformance ensembles mix profile kinds freely).
            profile = IncompleteProfile(k=profile.k, lists=profile.lists)
        matching = gale_shapley_incomplete(profile)
        proposals = 0
    else:
        result = gale_shapley(profile)
        matching = result.matching
        proposals = result.proposals
        # 1-indexed partner ranks on the receiving side; the proposer
        # analogue is `proposals` itself (each proposal walks one rank).
        for party in right_side(spec.k):
            partner = matching.partner(party)
            if partner is not None:
                receiver_rank += profile.rank(party, partner) + 1
    matched = sum(
        1 for party in left_side(spec.k) if matching.partner(party) is not None
    )
    return (
        RunRecord(
            scenario=spec.label(),
            family="offline",
            k=spec.k,
            seed=spec.profile.seed,
            recipe=spec.algorithm,
            ok=True,
            termination=True,
            symmetry=True,
            stability=True,
            non_competition=True,
            matched=matched,
            proposals=proposals,
            receiver_rank=receiver_rank,
            tags=spec.tags,
        ),
    )


def attack_spec(lemma: str):
    """The twisted-system construction for a lemma name."""
    from repro.adversary.attacks import lemma5_spec, lemma7_spec, lemma13_spec

    constructors = {
        "lemma5": lemma5_spec,
        "lemma7": lemma7_spec,
        "lemma13": lemma13_spec,
    }
    try:
        return constructors[lemma]()
    except KeyError as exc:
        raise SolvabilityError(
            f"unknown attack {lemma!r}; known: {sorted(constructors)}"
        ) from exc


_FAMILY_RUNNERS: dict[str, Callable[[ScenarioSpec], tuple[RunRecord, ...]]] = {
    "bsm": _bsm_records,
    "attack": _attack_records,
    "roommates": _roommates_records,
    "offline": _offline_records,
}


def execute_spec(spec: ScenarioSpec, *, cache=NO_CACHE, trace=None) -> tuple[RunRecord, ...]:
    """Run one scenario and return its record rows (pure, deterministic).

    ``cache`` (an :class:`~repro.runtime.ExecutionCache`) applies to
    network-backed families and lends the offline kernel its instance
    buffers; ``trace`` (a structured sink) only applies to network-backed
    families.  Both are semantically transparent.
    """
    if spec.family == "bsm":
        return _bsm_records(spec, cache, trace)
    if spec.family == "offline":
        return _offline_records(spec, cache)
    return _FAMILY_RUNNERS[spec.family](spec)


def _execute_batched(
    specs: Sequence[ScenarioSpec], trace=None, cache: ExecutionCache | None = None
) -> tuple[tuple[RunRecord, ...], ExecutionCache]:
    """One shared-cache batched round loop over ``specs`` (one chunk).

    Every runnable bsm spec is compiled to a plan and scheduled through
    one :class:`~repro.runtime.BatchRuntime`; other families (and specs
    pinned to the event runtime) execute in place.  Records come back
    in spec order and are byte-identical to the serial executor's; the
    :class:`~repro.runtime.ExecutionCache` is returned alongside so
    callers can read its hit statistics.  ``cache`` lets a caller keep
    one (possibly warm-started) cache across chunks.
    """
    cache = cache if cache is not None else ExecutionCache()
    runtime = BatchRuntime(cache)
    rows: list[tuple[RunRecord, ...] | None] = [None] * len(specs)
    batched: list[tuple[int, ScenarioSpec, object, str, tuple]] = []
    for i, spec in enumerate(specs):
        if spec.family != "bsm" or spec.runtime == "event":
            rows[i] = execute_spec(spec, cache=cache, trace=trace)
            continue
        records, compiled = _compile_bsm(spec, cache, trace)
        if records is not None:
            rows[i] = records
            continue
        prepared, adversary_kind, corrupted = compiled
        batched.append((i, spec, prepared, adversary_kind, corrupted))
    results = runtime.run_many([prepared.plan for (_, _, prepared, _, _) in batched])
    for (i, spec, prepared, adversary_kind, corrupted), result in zip(batched, results):
        report = finish_bsm(prepared, result)
        rows[i] = (
            _bsm_record(spec, prepared.verdict, adversary_kind, corrupted, report),
        )
    return tuple(record for row in rows for record in row), cache


# -- the execution core: the chunk rule ---------------------------------------


#: Chunks per worker (pool process or host) on an out-of-process
#: backend: enough that heavy specs spread out and a fast worker takes
#: more of them, few enough that per-chunk IPC stays negligible.
CHUNKS_PER_WORKER = 4

#: Specs per chunk in-process, and the cap on every chunk.
DEFAULT_BATCH_SIZE = 256

#: What a backend yields: ``(stop, records)`` per chunk, in spec order,
#: where ``stop`` is the index just past the chunk's last spec.
_Chunks = Iterator[tuple[int, tuple[RunRecord, ...]]]


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask (``taskset``,
    cgroup cpusets) where the platform has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def effective_workers(executor: str, workers: int | None, sweep_size: int) -> int:
    """The worker count ``executor`` actually uses for a sweep.

    One source of truth for the pool sizing rule — the engine and the
    bench runner's recorded ``workers_<executor>`` metadata both resolve
    through here, so trajectory files can never drift from what ran.
    In-process executors report 1; the pool defaults to the usable cores
    and never exceeds the sweep.
    """
    if executor not in POOLED_EXECUTORS:
        return 1
    return max(1, min(workers or _usable_cores(), sweep_size))


def _spec_chunks(count: int, batch_size: int, workers: int = 1) -> list[tuple[int, int]]:
    """The chunk rule: contiguous ``[start, stop)`` slices of a sweep, in order.

    ``batch_size`` specs in-process; ``ceil(count / (CHUNKS_PER_WORKER *
    workers))`` spread over pool processes or hosts, capped at
    ``batch_size`` — so no backend hands a consumer more than
    ``batch_size`` specs' records at once, whatever the core count.
    """
    size = batch_size
    if workers > 1:
        size = min(batch_size, -(-count // (CHUNKS_PER_WORKER * workers)))
    size = max(1, size)
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def _warm_seed(specs: Sequence[ScenarioSpec]) -> tuple[object, ...]:
    """A pickled-shippable encode-memo seed for the sweep's workers.

    Materializes every generated bsm profile once in the parent and
    encodes its preference rankings — the heaviest payload substructures
    every protocol run re-sends — through a scratch cache, then
    snapshots the leaf/struct tables.  Workers restore the snapshot into
    their cache before their first chunk, so cross-chunk-identical
    structures encode once in the parent instead of once per worker.
    Purely an amortization: restored entries re-encode through the
    normal path, so records are unchanged.
    """
    scratch = ExecutionCache()
    for spec in specs:
        if spec.family != "bsm":
            continue
        profile = _cached_profile(spec, scratch)
        lists = getattr(profile, "lists", None)
        if not lists:
            continue
        for ranking in lists.values():
            scratch.encode(tuple(ranking))
    return scratch.encode_memo().snapshot()


def _sweep_rings(specs: Sequence[ScenarioSpec]) -> dict[int, KeyRing]:
    """The key rings (labeled by ``k``) a sweep's authenticated runs use.

    Ring key material is a deterministic function of ``k``, so the label
    is stable across processes and hosts — which is what lets signature
    memo entries persist (see :mod:`repro.runtime.diskcache`).
    """
    ks = sorted(
        {
            spec.k
            for spec in specs
            if spec.family == "bsm" and spec.setting().authenticated
        }
    )
    return {k: cached_keyring(k) for k in ks}


def _disk_warm_start(cache: ExecutionCache, specs: Sequence[ScenarioSpec]):
    """Prime ``cache`` for ``specs`` from the disk layer's warm state.

    Returns the call that publishes the cache's state after the sweep —
    a no-op on a hit (identical bytes would be rewritten for nothing) or
    with the layer disabled.
    """
    from repro.runtime.diskcache import DiskCache, capture_warm_state, restore_warm_state, sweep_key

    disk = DiskCache()
    if not disk.enabled:
        return lambda: None
    rings, key = _sweep_rings(specs), sweep_key(specs)
    state = disk.get_object("warm-state", key)
    if isinstance(state, dict):
        restore_warm_state(cache, rings, state)
        return lambda: None
    return lambda: disk.put_object("warm-state", key, capture_warm_state(cache, rings))


def _worker_warm_state(specs: Sequence[ScenarioSpec]) -> dict:
    """What out-of-process workers are primed with under ``warm_cache``:
    the parent's solvability verdicts plus the sweep's encode seed, which
    with ``REPRO_CACHE_DIR`` set is computed once per workload and re-read
    from the disk layer (content-addressed, fingerprint-versioned)."""
    from repro.runtime.diskcache import DiskCache, sweep_key

    disk, key = DiskCache(), sweep_key(specs)
    seed = disk.get_object("warm-seed", key)  # None when the layer is off
    if not isinstance(seed, tuple):
        seed = _warm_seed(specs)
        if disk.enabled:
            disk.put_object("warm-seed", key, seed)
    return {"encode": seed, "solvability": cached_verdict.export_entries()}


# -- the worker side: pool processes and ``repro worker`` ----------------------


def _prime_worker(cache: ExecutionCache, state: Mapping) -> None:
    """Install a warm state (see :func:`_worker_warm_state`) into a
    worker's cache; signature entries re-key onto this process's rings."""
    from repro.runtime.diskcache import restore_warm_state

    rings = {
        label: cached_keyring(label)
        for label in state.get("signatures", {})
        if isinstance(label, int)
    }
    restore_warm_state(cache, rings, state)


def _run_chunk(cache: ExecutionCache, spec_dicts: Sequence[dict]) -> dict:
    """Execute one chunk worker-side: spec dicts in, a JSON-ready reply out.

    Pool workers and ``repro worker`` both run every chunk through here,
    over one cache that persists across the worker's chunks — so
    ``cache_stats`` is the worker's running total.
    """
    specs = [ScenarioSpec.from_dict(data) for data in spec_dicts]
    records, _ = _execute_batched(specs, cache=cache)
    return {
        "records": [record.to_dict() for record in records],
        "cache_stats": cache.stats(),
    }


#: A pool worker's one cache, built (and primed) by :func:`_pool_init`,
#: and the numbering of the chunks it runs.
_POOL_CACHE: ExecutionCache | None = None
_POOL_SEQ = itertools.count(1)


def _pool_init(state: dict | None) -> None:
    """Pool initializer: this worker's cache, primed once."""
    global _POOL_CACHE
    _POOL_CACHE = ExecutionCache()
    if state is not None:
        _prime_worker(_POOL_CACHE, state)


def _pool_chunk(spec_dicts: list[dict]) -> dict:
    """Pool task: one chunk over this worker's cache, tagged with the
    worker and the chunk's place in that worker's run order."""
    assert _POOL_CACHE is not None  # every pool worker runs _pool_init first
    return dict(_run_chunk(_POOL_CACHE, spec_dicts), worker=os.getpid(), seq=next(_POOL_SEQ))


def _fresh_chunk(spec_dicts: list[dict], state: dict | None) -> dict:
    """Task on a caller's long-lived pool: one chunk over a cache of its
    own (primed with ``state``), so worker memory does not grow with the
    pool's uptime.  Each chunk's cache is its own ``worker``, so
    :func:`_drain` sums every chunk's statistics."""
    cache = ExecutionCache()
    if state is not None:
        _prime_worker(cache, state)
    seq = next(_POOL_SEQ)
    return dict(_run_chunk(cache, spec_dicts), worker=(os.getpid(), seq), seq=seq)


# -- backends: each yields ``(stop, records)`` per chunk, in spec order --------


def _inline_chunks(specs, bounds, batched: bool, warm_cache: bool, trace, stats) -> _Chunks:
    """The inline backend: this process, one chunk at a time.

    ``batched`` runs every chunk through the batched round loop over one
    persistent cache (warm-started from the disk layer under
    ``warm_cache``) and reports its stats; otherwise specs run one at a
    time over no shared cache — the ``serial`` reference path.
    """
    if not batched:
        for start, stop in bounds:
            rows = [execute_spec(spec, trace=trace) for spec in specs[start:stop]]
            yield stop, tuple(record for row in rows for record in row)
        return
    cache = ExecutionCache()
    publish = _disk_warm_start(cache, specs) if warm_cache else None
    for start, stop in bounds:
        records, _ = _execute_batched(specs[start:stop], trace=trace, cache=cache)
        yield stop, records
    if publish is not None:
        publish()
    stats.update(merge_cache_stats([cache.stats()]))


def _drain(specs, bounds, submit: Callable, workers: int, stats: dict) -> _Chunks:
    """The in-order drain every out-of-process backend shares.

    ``submit(start, spec_dicts)`` hands one chunk to one of ``workers``
    workers and returns a future of its :func:`_run_chunk` reply, tagged
    with the ``worker`` whose cache ran it and ``seq``, the chunk's place
    in that cache's run order.  Chunks are yielded strictly in spec
    order, with at most ``2 * workers`` submitted but undrained.  Each
    reply carries its cache's running totals; the newest per worker
    (highest ``seq`` — a stolen chunk runs after later ones) is merged
    into ``stats``.
    """
    per_worker: dict = {}  # worker -> (seq, running totals)
    queued: collections.deque = collections.deque()
    upcoming = iter(bounds)

    def top_up() -> None:
        for start, stop in itertools.islice(upcoming, 2 * workers - len(queued)):
            payload = [spec.to_dict() for spec in specs[start:stop]]
            queued.append((stop, submit(start, payload)))

    top_up()
    while queued:
        stop, future = queued.popleft()
        reply = future.result()
        top_up()
        totals, worker = reply["cache_stats"], reply["worker"]
        if totals and reply["seq"] > per_worker.get(worker, (0,))[0]:
            per_worker[worker] = (reply["seq"], totals)
        yield stop, tuple(RunRecord.from_dict(data) for data in reply["records"])
    stats.update(merge_cache_stats([newest for _, newest in per_worker.values()]))


def _pool_chunks(specs, bounds, workers: int, warm_cache: bool, stats, pool=None) -> _Chunks:
    """The pool backend: a ``workers``-sized process pool feeding
    :func:`_drain`, each worker primed once with the warm state — or a
    caller's long-lived ``pool``, where every chunk runs over a fresh
    cache primed with it (:func:`_fresh_chunk`)."""
    state = _worker_warm_state(specs) if warm_cache else None
    if pool is not None:
        submit = lambda start, payload: pool.submit(_fresh_chunk, payload, state)
        yield from _drain(specs, bounds, submit, workers, stats)
        return
    own = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_init, initargs=(state,)
    )
    submit = lambda start, payload: own.submit(_pool_chunk, payload)
    try:
        yield from _drain(specs, bounds, submit, workers, stats)
    finally:
        own.shutdown(cancel_futures=True)


def _hosts_chunks(specs, bounds, hosts, warm_cache: bool, stats) -> _Chunks:
    """The hosts backend: one pump thread per endpoint
    (:class:`~repro.runtime.remote.HostPumps`) feeding :func:`_drain`,
    each worker primed once with the warm state."""
    from repro.runtime.remote import HostPumps

    if not bounds:
        return  # nothing to run: spawn no workers
    pumps = HostPumps(hosts, _worker_warm_state(specs) if warm_cache else None)
    try:
        yield from _drain(specs, bounds, pumps.submit, len(hosts), stats)
    finally:
        pumps.close()


# -- consumers -----------------------------------------------------------------


def stream_sweep(
    specs: Sequence[ScenarioSpec] | Sweep,
    *,
    workers: int | None = None,
    warm_cache: bool = False,
    stats: dict | None = None,
    sink=None,
    pool=None,
) -> Iterable[tuple[RunRecord, ...]]:
    """Execute a sweep on the parallel plane and *yield* record chunks
    in spec order, each as soon as it and every chunk before it are done,
    so memory stays flat in the sweep size.  ``workers`` sizes the pool
    (default: the usable cores; one runs in-process).  ``stats``
    (optional dict) receives the merged cache statistics after the last
    chunk, since a generator cannot return them.  ``sink`` (an optional
    :class:`~repro.experiment.sinks.RecordSink`) receives each chunk via
    ``write_many`` before it is yielded, so a caller that only wants the
    sink's view can just drain the generator (the service plane does);
    the sink is not closed here.  ``pool`` (anything with a
    ``concurrent.futures``-style ``submit``, such as the service's
    worker pool) runs every chunk, each over a fresh cache, instead of a
    pool of this call's own; ``workers`` still sets the chunk rule and
    the in-flight window, and one means ``DEFAULT_BATCH_SIZE`` chunks.
    """
    engine = Engine("parallel", workers=workers, warm_cache=warm_cache)
    with contextlib.closing(engine._chunks(tuple(specs), stats=stats, pool=pool)) as chunks:
        for _, records in chunks:
            if sink is not None:
                sink.write_many(records)
            yield records


def _acknowledge(sink, ckpt, completed: int) -> None:
    """Flush the sink (when it can), then checkpoint ``completed`` specs
    plus the archive byte offset (when the sink reports one) — progress
    must never outrun the archive."""
    flush, tell = getattr(sink, "flush", None), getattr(sink, "tell", None)
    if callable(flush):
        flush()
    ckpt.update(completed, archive_bytes=tell() if callable(tell) else None)


def _sink_rollback(sink, ckpt) -> None:
    """Align a resumable archive with what the checkpoint acknowledged.

    A kill can land between a flush and the checkpoint update; the
    archive then holds records the checkpoint never acknowledged, which
    a naive append would duplicate.  Truncating back to the recorded
    offset (0 when nothing was ever acknowledged) restores the exact
    acknowledged prefix — resumed archives stay byte-identical to an
    uninterrupted run.  Sinks without ``rollback`` (aggregates, tees)
    are left alone.
    """
    rollback = getattr(sink, "rollback", None)
    if not callable(rollback):
        return
    offset = ckpt.archive_bytes
    if ckpt.completed == 0 and offset is None:
        offset = 0
    if offset is not None:
        rollback(offset)


def sweep_into(
    specs: Sequence[ScenarioSpec] | Sweep,
    sink,
    *,
    workers: int | None = None,
    warm_cache: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
    stats: dict | None = None,
    checkpoint: str | None = None,
) -> int:
    """:meth:`Session.sweep_into` on the parallel plane: writes every
    record of the sweep into ``sink`` and returns the count.  ``workers``
    sizes the pool (default: the usable cores; one runs in-process).
    """
    session = Session(executor="parallel", workers=workers, warm_cache=warm_cache)
    return session.sweep_into(
        specs, sink, batch_size=batch_size, stats=stats, checkpoint=checkpoint
    )


# -- the engine ----------------------------------------------------------------


class Engine:
    """Executes sweeps on a pluggable executor with per-process memoization.

    ``executor`` is ``"serial"`` (default; one spec at a time — the
    reference path), ``"batch"`` (one shared-cache batched round loop),
    ``"parallel"`` (that loop in a pool of ``workers`` processes, one
    cache each), or ``"hosts"`` (that loop on worker endpoints via
    :mod:`repro.runtime.remote` — requires ``hosts``); ``workers``
    bounds the pool (default: the usable cores), ``warm_cache``
    pre-seeds worker caches from the parent (and, with
    ``REPRO_CACHE_DIR`` set, from the persistent disk layer).  An
    :class:`~repro.experiment.spec.ExecutorSpec` pins all four knobs
    declaratively.  Every executor is a backend of one chunked core
    (:meth:`_chunks`), so a new backend plugs in there, not into
    callers.
    """

    def __init__(
        self,
        executor: str | ExecutorSpec = "serial",
        workers: int | None = None,
        warm_cache: bool = False,
        hosts: Sequence[str] | None = None,
    ) -> None:
        if isinstance(executor, ExecutorSpec):
            workers = executor.workers if workers is None else workers
            warm_cache = executor.warm_cache or warm_cache
            hosts = executor.hosts if hosts is None else hosts
            executor = executor.name
        if executor not in EXECUTORS:
            raise SolvabilityError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if workers is not None and workers < 1:
            raise SolvabilityError(f"workers must be >= 1, got {workers}")
        if executor == "serial" and warm_cache:
            raise SolvabilityError(
                "warm_cache needs a shared cache, and the serial executor runs "
                "without one; use batch, parallel or hosts"
            )
        if executor == "hosts" and not hosts:
            raise SolvabilityError(
                "the hosts executor needs host endpoints "
                '(e.g. hosts=("local", "local"); see repro.runtime.remote)'
            )
        self.executor = executor
        self.workers = workers or _usable_cores()
        self.warm_cache = warm_cache
        self.hosts = tuple(hosts) if hosts else None

    def _chunks(
        self, specs, *, batch_size=DEFAULT_BATCH_SIZE, trace=None, stats=None, pool=None
    ) -> _Chunks:
        """The execution core: ``(stop, records)`` per chunk of ``specs``,
        in spec order, on the backend the executor picks (see the module
        docstring), or on a caller's long-lived ``pool`` (see
        :func:`stream_sweep`).  ``stats`` (optional dict) receives the
        merged cache statistics after the last chunk; ``serial`` shares no
        cache and leaves it untouched.
        """
        stats = {} if stats is None else stats
        hosts = self.hosts if self.executor == "hosts" and self.hosts else ()
        workers = len(hosts) or effective_workers(self.executor, self.workers, len(specs))
        bounds = _spec_chunks(len(specs), batch_size, workers)
        if hosts:
            return _hosts_chunks(specs, bounds, hosts, self.warm_cache, stats)
        if pool is not None or workers > 1:
            return _pool_chunks(specs, bounds, workers, self.warm_cache, stats, pool)
        batched = self.executor != "serial"
        return _inline_chunks(specs, bounds, batched, self.warm_cache, trace, stats)

    def run(self, spec: ScenarioSpec) -> RunRecordSet:
        """Execute one spec in-process."""
        started = time.perf_counter()
        records = execute_spec(spec)
        return RunRecordSet(
            records=records,
            elapsed_seconds=time.perf_counter() - started,
            executor="serial",
        )

    def run_sweep(
        self, sweep: Sweep | Iterable[ScenarioSpec], *, trace=None, sink=None
    ) -> RunRecordSet:
        """Execute a batch; records come back in spec order regardless
        of which executor (or worker) ran each spec.

        ``trace`` is an optional structured sink receiving every bsm
        run's kernel events (in-process executors only — pool workers
        cannot stream events back).  ``sink`` is an optional
        :class:`~repro.experiment.sinks.RecordSink` that receives the
        records as well (a tee — the set is still returned; for
        memory-bounded execution use :func:`sweep_into`).

        The collected set holds every record anyway, so ``batch_size``
        is the whole sweep: in-process that is one batched round loop,
        and out of process the chunk rule still spreads about four
        chunks per worker.
        """
        specs = tuple(sweep)
        started = time.perf_counter()
        if trace is not None and self.executor in OUT_OF_PROCESS_EXECUTORS:
            raise SolvabilityError(
                "structured tracing requires an in-process executor "
                f"('serial' or 'batch'), not the {self.executor!r} backend"
            )
        cache_stats: dict = {}
        chunks = self._chunks(
            specs, batch_size=max(1, len(specs)), trace=trace, stats=cache_stats
        )
        with contextlib.closing(chunks):
            records = tuple(record for _, chunk in chunks for record in chunk)
        if sink is not None:
            sink.write_many(records)
        return RunRecordSet(
            records=records,
            elapsed_seconds=time.perf_counter() - started,
            executor=self.executor,
            cache_stats=cache_stats,
        )

    def run_adaptive(
        self,
        initial: Sweep | Iterable[ScenarioSpec],
        refine: Callable[[RunRecordSet], Sequence[ScenarioSpec]],
        max_batches: int = 8,
    ) -> RunRecordSet:
        """Adaptive sweep: run a batch, let ``refine`` propose the next.

        ``refine`` sees everything gathered so far and returns the next
        batch of specs (empty to stop).  Useful for walking a frontier:
        run cheap points first, then spend runs only where the verdict
        flips.
        """
        gathered = self.run_sweep(initial)
        for _ in range(max_batches):
            next_specs = tuple(refine(gathered))
            if not next_specs:
                break
            gathered = gathered + self.run_sweep(next_specs)
        return gathered


# -- the façade ----------------------------------------------------------------


class Session:
    """One front door for every caller: CLI, benchmarks, examples, tests.

    A session wraps an :class:`Engine` plus the memoized oracle, and
    offers three granularities:

    * :meth:`solve` — a (memoized) solvability verdict;
    * :meth:`run` / :meth:`sweep` — records, through the configured
      executor;
    * :meth:`report` / :meth:`attack` / :meth:`execute` — full in-
      process report objects, for callers that need traces, outputs,
      or the attack scenarios' indistinguishability checks.
    """

    def __init__(
        self,
        executor: str | ExecutorSpec | None = None,
        workers: int | None = None,
        warm_cache: bool = False,
    ) -> None:
        if executor is None:  # workers alone imply the pool
            executor = "parallel" if workers is not None else "serial"
        self.engine = Engine(executor, workers=workers, warm_cache=warm_cache)

    # -- oracle ---------------------------------------------------------------

    def solve(self, setting: Setting) -> SolvabilityVerdict:
        """The paper's characterization for one setting (memoized)."""
        return cached_verdict(setting)

    # -- records --------------------------------------------------------------

    def run(self, spec: ScenarioSpec) -> RunRecordSet:
        """Execute one spec and return its records."""
        return self.engine.run(spec)

    def sweep(
        self,
        sweep: Sweep | Iterable[ScenarioSpec] | str,
        *,
        executor: str | ExecutorSpec | None = None,
        workers: int | None = None,
        warm_cache: bool | None = None,
        trace=None,
        sink=None,
    ) -> RunRecordSet:
        """Execute a sweep (or a preset, by name) and return all records.

        ``sink`` tees the records into a
        :class:`~repro.experiment.sinks.RecordSink` as well; for
        memory-bounded streaming without a returned set, use
        :meth:`sweep_into`.
        """
        if isinstance(sweep, str):
            sweep = self.preset(sweep)
        return self._engine(executor, workers, warm_cache).run_sweep(
            sweep, trace=trace, sink=sink
        )

    def sweep_into(
        self,
        sweep: Sweep | Iterable[ScenarioSpec] | str,
        sink,
        *,
        workers: int | None = None,
        warm_cache: bool | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        stats: dict | None = None,
        checkpoint: str | None = None,
    ) -> int:
        """Stream a sweep (or preset) into ``sink``; returns the record count.

        The memory-bounded consumer of the execution core: records are
        *never* gathered into a
        :class:`~repro.experiment.records.RunRecordSet` — each chunk goes
        to the sink with one ``write_many`` as soon as it and every chunk
        before it are done, on the session's executor (in-process for
        serial and batch, the pool for parallel, the endpoints for hosts;
        ``workers`` implies the pool, as in :meth:`sweep`).  No chunk
        exceeds ``batch_size`` specs on any backend (see
        :func:`_spec_chunks`), so resident records stay bounded by
        ``batch_size`` plus whatever the sink retains.  A serial session
        (the default) runs the reference path, one spec at a time with no
        shared cache, so ``stats`` stays empty; a batch session's chunks
        share one persistent cache.

        ``checkpoint`` names a :class:`~repro.experiment.checkpoint.
        SweepCheckpoint` file next to the sink's archive: completed-spec
        progress (plus the archive byte offset, when the sink reports
        one) is snapshotted after every flushed chunk, and a restart with
        the same workload skips the completed prefix.  Pair it with an
        append-mode NDJSON sink: the archive is first rolled back to the
        acknowledged offset, so the resumed archive is byte-identical to
        an uninterrupted run wherever the kill landed.  A checkpointed
        sweep *owns* its archive — with no acknowledged progress the
        archive restarts from byte 0.  The count returned is the records
        written by *this* call — a resumed run reports the remainder.

        The sink is left open — close it (or use ``with``) at the call
        site; spilling sinks only complete their on-disk archive on close.
        """
        if isinstance(sweep, str):
            sweep = self.preset(sweep)
        if batch_size < 1:
            raise SolvabilityError(f"batch_size must be >= 1, got {batch_size}")
        specs = tuple(sweep)
        ckpt = None
        done = 0
        if checkpoint is not None:
            from repro.experiment.checkpoint import SweepCheckpoint

            ckpt = SweepCheckpoint(checkpoint, specs)
            done = ckpt.completed
            # A checkpointed sweep owns its archive: drop anything past
            # the acknowledged offset (all of it when nothing was
            # acknowledged) so the resumed archive is byte-identical to an
            # uninterrupted run even when a kill landed between a flush
            # and the update.
            _sink_rollback(sink, ckpt)
        total = 0
        engine = self._engine(workers=workers, warm_cache=warm_cache)
        chunks = engine._chunks(specs[done:], batch_size=batch_size, stats=stats)
        with contextlib.closing(chunks):
            for stop, records in chunks:
                sink.write_many(records)
                total += len(records)
                if ckpt is not None:
                    _acknowledge(sink, ckpt, done + stop)
        if ckpt is not None:
            ckpt.complete()
        return total

    def _engine(
        self,
        executor: str | ExecutorSpec | None = None,
        workers: int | None = None,
        warm_cache: bool | None = None,
    ) -> Engine:
        """The session's engine, or a one-call variant for overrides.

        ``workers`` alone implies the pool; an explicit executor wins.
        """
        if executor is None and workers is None and warm_cache is None:
            return self.engine
        if isinstance(executor, ExecutorSpec):
            return Engine(executor, workers=workers, warm_cache=bool(warm_cache))
        base = self.engine
        if executor is None:
            executor = "parallel" if workers is not None else base.executor
        return Engine(
            executor=executor,
            workers=workers or base.workers,
            warm_cache=base.warm_cache if warm_cache is None else warm_cache,
            hosts=base.hosts if executor == "hosts" else None,
        )

    def adaptive(self, initial, refine, max_batches: int = 8) -> RunRecordSet:
        """Adaptive sweep — see :meth:`Engine.run_adaptive`."""
        return self.engine.run_adaptive(initial, refine, max_batches=max_batches)

    # -- full reports ---------------------------------------------------------

    def report(self, spec: ScenarioSpec, *, trace=None) -> BSMReport:
        """Run one bSM spec in-process and return the full report
        (result, trace when ``record_trace``, property breakdown)."""
        if spec.family != "bsm":
            raise SolvabilityError(
                f"report() is for the bsm family, got {spec.family!r}; "
                "use attack()/run() for other families"
            )
        _, _, instance, adversary, _, _, drop_rule = _build_bsm_run(spec)
        return self.execute(
            instance,
            adversary,
            recipe=spec.recipe,
            max_rounds=spec.max_rounds,
            record_trace=spec.record_trace,
            runtime=spec.runtime,
            drop_rule=drop_rule,
            trace=trace,
            label=spec.label(),
        )

    def trace(self, spec: ScenarioSpec) -> tuple[BSMReport, TraceRecorder]:
        """Replay one bSM spec with kernel tracing attached.

        Returns the full report plus the recorded structured events —
        export them with :func:`repro.io.dump` (``kernel-trace`` format).
        """
        recorder = TraceRecorder()
        report = self.report(spec, trace=recorder)
        return report, recorder

    def execute(
        self,
        instance: BSMInstance,
        adversary=None,
        *,
        recipe: str | None = None,
        max_rounds: int | None = None,
        enforce_structure: bool = True,
        record_trace: bool = False,
        runtime: str = "lockstep",
        drop_rule=None,
        trace=None,
        label: str = "",
    ) -> BSMReport:
        """The imperative escape hatch: run a pre-built instance/adversary
        with the session's memoized keyring and verdict."""
        setting = instance.setting
        return run_bsm(
            instance,
            adversary,
            recipe=recipe,
            max_rounds=max_rounds,
            enforce_structure=enforce_structure,
            record_trace=record_trace,
            keyring=cached_keyring(setting.k) if setting.authenticated else None,
            verdict=cached_verdict(setting),
            runtime=runtime,
            drop_rule=drop_rule,
            trace=trace,
            label=label,
        )

    def attack(self, lemma: str):
        """Run a twisted-system construction; returns the full
        :class:`~repro.adversary.attacks.AttackReport`."""
        from repro.adversary.attacks import run_attack

        return run_attack(attack_spec(lemma))

    def roommates(self, spec: ScenarioSpec):
        """Run one roommates spec in-process and return the full report."""
        if spec.family != "roommates":
            raise SolvabilityError(f"roommates() needs a roommates spec, got {spec.family!r}")
        report, _, _ = _run_roommates_spec(spec)
        return report

    # -- presets --------------------------------------------------------------

    def preset(self, name: str) -> Sweep:
        """A named sweep from :mod:`repro.experiment.presets`."""
        from repro.experiment.presets import preset

        return preset(name)
