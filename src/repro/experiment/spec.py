"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, JSON-round-trippable description
of one experiment: which point of the paper's characterization grid to
run (topology, crypto, ``k``, budgets), where the honest inputs come
from (:class:`ProfileSpec`), who misbehaves and how
(:class:`AdversarySpec`), which protocol recipe to force, and the seed.
A :class:`Sweep` is an ordered collection of specs — built literally,
by seed replication, or by expanding the full characterization grid.

Specs carry *no* live objects: everything is strings, numbers, and
party names, so a spec can be archived next to its results, shipped to
a process-pool worker, or diffed across code versions.  The executable
side lives in :mod:`repro.experiment.engine`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.problem import Setting
from repro.core.solvability import RECIPES
from repro.errors import SolvabilityError
from repro.ids import PartyId, left_side, parse_party, right_side
from repro.matching.generators import (
    correlated_profile,
    master_list_profile,
    random_incomplete_profile,
    random_profile,
    random_roommates_preferences,
)
from repro.matching.kernel import solvable_pairs
from repro.matching.preferences import PreferenceProfile
from repro.net.faults import DropRule, after_round_drop, partition_drop, random_drop
from repro.net.topology import TOPOLOGY_NAMES
from repro.runtime.api import RUNTIME_NAMES

__all__ = [
    "ProfileSpec",
    "AdversarySpec",
    "LinkSpec",
    "ScenarioSpec",
    "ExecutorSpec",
    "Sweep",
    "FAMILIES",
    "ADVERSARY_KINDS",
    "LINK_KINDS",
    "PROFILE_KINDS",
    "EXECUTOR_NAMES",
    "worst_case_corruption",
]

FAMILIES = ("bsm", "attack", "roommates", "offline")
ADVERSARY_KINDS = ("silent", "noise", "crash", "honest", "equivocate")
LINK_KINDS = ("random", "partition", "after_round")
PROFILE_KINDS = ("random", "correlated", "master_list", "explicit", "incomplete_random")
#: The engine's executor axis (see :mod:`repro.experiment.engine`):
#: ``serial`` runs specs one at a time in-process, ``batch`` schedules a
#: sweep through one shared-cache round loop, ``parallel`` runs that
#: loop in a process pool over per-worker caches, and ``hosts`` on worker
#: *endpoints* (subprocess/SSH/HTTP; see :mod:`repro.runtime.remote`).
EXECUTOR_NAMES = ("serial", "batch", "parallel", "hosts")

#: Sentinel for "corrupt the full budget": the first ``tL`` left and
#: first ``tR`` right parties.
BUDGET = "budget"


def worst_case_corruption(setting: Setting) -> tuple[PartyId, ...]:
    """The canonical full-budget corruption set for a setting."""
    return tuple(left_side(setting.k)[: setting.tL]) + tuple(
        right_side(setting.k)[: setting.tR]
    )


def _lists_to_strings(lists: Mapping) -> dict[str, tuple[str, ...]]:
    return {
        str(party): tuple(str(c) for c in candidates)
        for party, candidates in sorted(lists.items(), key=lambda kv: str(kv[0]))
    }


def _lists_from_strings(lists: Mapping) -> dict[PartyId, tuple[PartyId, ...]]:
    return {
        parse_party(party): tuple(parse_party(c) for c in candidates)
        for party, candidates in lists.items()
    }


@dataclass(frozen=True)
class ProfileSpec:
    """Where a scenario's honest inputs come from.

    Kinds:

    * ``"random"`` — uniform profile from ``seed``;
    * ``"correlated"`` — per-side master lists perturbed by
      ``similarity`` (Khanchandani-Wattenhofer workload);
    * ``"master_list"`` — fully correlated (maximal contention);
    * ``"explicit"`` — the lists are spelled out (party names as
      strings, so the spec stays JSON-serializable);
    * ``"incomplete_random"`` — incomplete lists, each candidate kept
      with probability ``acceptance`` (offline family only).
    """

    kind: str = "random"
    seed: int = 0
    similarity: float = 0.5
    acceptance: float = 0.5
    lists: Mapping[str, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise SolvabilityError(
                f"unknown profile kind {self.kind!r}; expected one of {PROFILE_KINDS}"
            )
        if self.kind == "explicit" and not self.lists:
            raise SolvabilityError("explicit profiles need non-empty lists")
        # Canonicalize knobs other kinds ignore, so spec equality and the
        # JSON round-trip agree.
        if self.kind != "correlated":
            object.__setattr__(self, "similarity", 0.5)
        if self.kind != "incomplete_random":
            object.__setattr__(self, "acceptance", 0.5)
        if self.lists is not None:
            object.__setattr__(
                self,
                "lists",
                {p: tuple(c) for p, c in sorted(self.lists.items())},
            )

    @classmethod
    def explicit(cls, profile: PreferenceProfile | Mapping) -> "ProfileSpec":
        """Freeze a concrete profile (or PartyId mapping) into a spec."""
        lists = profile.lists if isinstance(profile, PreferenceProfile) else profile
        return cls(kind="explicit", lists=_lists_to_strings(lists))

    def build(self, k: int):
        """Materialize the profile for side size ``k``."""
        if self.kind == "random":
            return random_profile(k, self.seed)
        if self.kind == "correlated":
            return correlated_profile(k, self.similarity, self.seed)
        if self.kind == "master_list":
            return master_list_profile(k, self.seed)
        if self.kind == "incomplete_random":
            return random_incomplete_profile(k, self.acceptance, self.seed)
        return PreferenceProfile.from_dict(_lists_from_strings(self.lists))

    def build_roommates(self, parties: Sequence[PartyId]) -> dict[PartyId, tuple[PartyId, ...]]:
        """Materialize single-set rankings for the roommates family."""
        if self.kind == "explicit":
            return _lists_from_strings(self.lists)
        return random_roommates_preferences(parties, self.seed)

    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind, "seed": self.seed}
        if self.kind == "correlated":
            data["similarity"] = self.similarity
        if self.kind == "incomplete_random":
            data["acceptance"] = self.acceptance
        if self.lists is not None:
            data["lists"] = {p: list(c) for p, c in self.lists.items()}
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProfileSpec":
        return cls(
            kind=data.get("kind", "random"),
            seed=int(data.get("seed", 0)),
            similarity=float(data.get("similarity", 0.5)),
            acceptance=float(data.get("acceptance", 0.5)),
            lists={p: tuple(c) for p, c in data["lists"].items()}
            if data.get("lists") is not None
            else None,
        )


@dataclass(frozen=True)
class LinkSpec:
    """Declarative link faults: what the *channels* lose.

    Orthogonal to party corruption — a :class:`AdversarySpec` can
    combine behavior faults (who lies) with link faults (what the
    network eats).  Kinds, realized by :mod:`repro.net.faults` rules in
    the runtime kernel's delivery path:

    * ``"random"`` — each message dropped independently with
      ``probability`` (seeded, deterministic per ``(src, dst, round)``);
    * ``"partition"`` — every cross-side message dropped (the canonical
      L/R partition);
    * ``"after_round"`` — lossless until ``cutoff``, then total loss.
    """

    kind: str = "random"
    probability: float = 0.1
    seed: int = 0
    cutoff: int = 0

    def __post_init__(self) -> None:
        if self.kind not in LINK_KINDS:
            raise SolvabilityError(
                f"unknown link fault kind {self.kind!r}; expected one of {LINK_KINDS}"
            )
        if self.kind == "random" and not (0.0 <= self.probability <= 1.0):
            raise SolvabilityError(
                f"drop probability must lie in [0, 1], got {self.probability}"
            )
        if self.kind == "after_round" and self.cutoff < 0:
            raise SolvabilityError(f"cutoff must be >= 0, got {self.cutoff}")
        # Canonicalize the knobs other kinds ignore, so spec equality and
        # the JSON round-trip agree (mirrors ProfileSpec/AdversarySpec).
        if self.kind != "random":
            object.__setattr__(self, "probability", 0.1)
            object.__setattr__(self, "seed", 0)
        if self.kind != "after_round":
            object.__setattr__(self, "cutoff", 0)

    def describe(self) -> str:
        """A short, stable label (used in record columns)."""
        if self.kind == "random":
            return f"random(p={self.probability:g},seed={self.seed})"
        if self.kind == "after_round":
            return f"after_round({self.cutoff})"
        return "partition"

    def drop_rule(self, setting: Setting) -> DropRule:
        """The executable :mod:`repro.net.faults` rule for ``setting``."""
        if self.kind == "random":
            return random_drop(self.probability, seed=self.seed)
        if self.kind == "after_round":
            return after_round_drop(self.cutoff)
        return partition_drop(left_side(setting.k), right_side(setting.k))

    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.kind == "random":
            data["probability"] = self.probability
            data["seed"] = self.seed
        if self.kind == "after_round":
            data["cutoff"] = self.cutoff
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "LinkSpec":
        return cls(
            kind=data.get("kind", "random"),
            probability=float(data.get("probability", 0.1)),
            seed=int(data.get("seed", 0)),
            cutoff=int(data.get("cutoff", 0)),
        )


@dataclass(frozen=True)
class AdversarySpec:
    """Who misbehaves and how — fully declarative.

    ``corrupt`` is either the sentinel ``"budget"`` (the canonical
    worst-case set: first ``tL`` left + first ``tR`` right parties) or
    an explicit tuple of party names (``("L0", "R2")``) — possibly
    empty, for link-fault-only adversaries.  ``mutator`` names a canned
    mutator from :mod:`repro.adversary.mutators` and is only meaningful
    for ``kind="equivocate"``.  ``link`` adds channel-level faults
    (:class:`LinkSpec`) on top of — or instead of — party corruption.
    """

    kind: str = "silent"
    corrupt: str | tuple[str, ...] = BUDGET
    seed: int = 0
    crash_round: int = 2
    mutator: str | None = None
    link: LinkSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise SolvabilityError(
                f"unknown adversary kind {self.kind!r}; expected one of {ADVERSARY_KINDS}"
            )
        if self.corrupt != BUDGET:
            if isinstance(self.corrupt, str):
                raise SolvabilityError(
                    f"corrupt must be {BUDGET!r} or a tuple of party names, "
                    f"got the string {self.corrupt!r} (did you mean ({self.corrupt!r},)?)"
                )
            object.__setattr__(self, "corrupt", tuple(str(p) for p in self.corrupt))
        if self.mutator is not None and self.kind != "equivocate":
            raise SolvabilityError("mutator is only meaningful for kind='equivocate'")
        # Canonicalize the knob other kinds ignore, so spec equality and
        # the JSON round-trip agree (mirrors ProfileSpec).
        if self.kind != "crash":
            object.__setattr__(self, "crash_round", 2)

    def corrupted_parties(self, setting: Setting) -> tuple[PartyId, ...]:
        """The concrete corruption set under ``setting``."""
        if self.corrupt == BUDGET:
            return worst_case_corruption(setting)
        return tuple(parse_party(p) for p in self.corrupt)

    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind, "seed": self.seed}
        data["corrupt"] = (
            self.corrupt if self.corrupt == BUDGET else list(self.corrupt)
        )
        if self.kind == "crash":
            data["crash_round"] = self.crash_round
        if self.mutator is not None:
            data["mutator"] = self.mutator
        if self.link is not None:
            data["link"] = self.link.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "AdversarySpec":
        corrupt = data.get("corrupt", BUDGET)
        link = data.get("link")
        return cls(
            kind=data.get("kind", "silent"),
            corrupt=corrupt if corrupt == BUDGET else tuple(corrupt),
            seed=int(data.get("seed", 0)),
            crash_round=int(data.get("crash_round", 2)),
            mutator=data.get("mutator"),
            link=LinkSpec.from_dict(link) if link is not None else None,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment, across all workload families.

    Families:

    * ``"bsm"`` — one end-to-end byzantine-stable-matching run in a
      setting of the characterization grid (the default);
    * ``"attack"`` — one of the paper's twisted-system impossibility
      constructions (``attack`` names the lemma), producing one record
      per attack scenario;
    * ``"roommates"`` — the Section 6 single-set extension (``n``
      parties, ``t`` byzantine);
    * ``"offline"`` — no network at all: run the named offline
      ``algorithm`` (``gale_shapley`` or ``incomplete``) on a generated
      instance, for Mertens-style ensemble sweeps.

    ``runtime`` selects the :mod:`repro.runtime` executor for bsm runs
    (``"lockstep"`` — the sequential reference and default; ``"event"``
    — asyncio scheduling; ``"batch"`` — batched semantics, grouped into
    one shared-cache round loop by the engine's batch executor).  All
    three produce byte-identical records, so the knob never shapes the
    result — it is deliberately excluded from derived labels.
    """

    name: str = ""
    family: str = "bsm"
    topology: str = "fully_connected"
    authenticated: bool = True
    k: int = 3
    tL: int = 0
    tR: int = 0
    profile: ProfileSpec = field(default_factory=ProfileSpec)
    adversary: AdversarySpec | None = None
    recipe: str | None = None
    max_rounds: int | None = None
    record_trace: bool = False
    runtime: str = "lockstep"
    attack: str | None = None
    n: int = 0
    t: int = 0
    algorithm: str = "gale_shapley"
    #: Free-form provenance tags, stamped onto every record this spec
    #: produces (the conformance harness uses them to tie a record back
    #: to its generated ensemble: ``("conform", "seed0", "ix12")``).
    #: Never shape the run or the label.
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))
        if self.family not in FAMILIES:
            raise SolvabilityError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.runtime not in RUNTIME_NAMES:
            raise SolvabilityError(
                f"unknown runtime {self.runtime!r}; expected one of {RUNTIME_NAMES}"
            )
        if self.family == "attack":
            if self.attack not in ("lemma5", "lemma7", "lemma13"):
                raise SolvabilityError(
                    f"attack specs need attack in lemma5/lemma7/lemma13, got {self.attack!r}"
                )
        elif self.attack is not None:
            raise SolvabilityError("attack is only meaningful for family='attack'")
        if self.family == "roommates" and self.n <= 0:
            raise SolvabilityError("roommates specs need n > 0")
        if self.family == "offline" and self.algorithm not in ("gale_shapley", "incomplete"):
            raise SolvabilityError(
                f"offline algorithm must be gale_shapley or incomplete, got {self.algorithm!r}"
            )
        if self.profile.kind == "incomplete_random" and self.family != "offline":
            raise SolvabilityError(
                "incomplete_random profiles only run in the offline family "
                "(the protocol stack needs complete lists)"
            )
        if self.family == "roommates" and self.profile.kind not in ("random", "explicit"):
            raise SolvabilityError(
                f"roommates profiles must be random or explicit, got {self.profile.kind!r} "
                "(two-sided workload generators do not apply to single-set rankings)"
            )
        if self.family == "bsm":
            if self.topology not in TOPOLOGY_NAMES:
                raise SolvabilityError(
                    f"unknown topology {self.topology!r}; expected one of {TOPOLOGY_NAMES}"
                )
            if self.recipe is not None and self.recipe not in RECIPES:
                raise SolvabilityError(
                    f"unknown recipe {self.recipe!r}; expected one of {RECIPES}"
                )
            if not (0 <= self.tL <= self.k and 0 <= self.tR <= self.k):
                raise SolvabilityError(
                    f"corruption budgets must lie in [0, k={self.k}], "
                    f"got tL={self.tL}, tR={self.tR}"
                )
        # Canonicalize the fields each family ignores (mirrors ProfileSpec/
        # AdversarySpec), so spec equality and the JSON round-trip agree.
        ignored: dict[str, object] = {}
        if self.family == "attack":
            ignored = dict(
                topology="fully_connected", authenticated=True, k=3, tL=0, tR=0,
                recipe=None, max_rounds=None, record_trace=False,
                runtime="lockstep", n=0, t=0, algorithm="gale_shapley",
            )
        elif self.family == "roommates":
            ignored = dict(
                topology="fully_connected", k=3, tL=0, tR=0,
                recipe=None, record_trace=False, runtime="lockstep",
                algorithm="gale_shapley",
            )
        elif self.family == "offline":
            ignored = dict(
                topology="fully_connected", authenticated=True, tL=0, tR=0,
                recipe=None, max_rounds=None, record_trace=False,
                runtime="lockstep", n=0, t=0, adversary=None,
            )
        else:
            ignored = dict(n=0, t=0, algorithm="gale_shapley")
        for field_name, default in ignored.items():
            object.__setattr__(self, field_name, default)

    # -- derived views --------------------------------------------------------

    def setting(self) -> Setting:
        """The characterization-grid point this spec runs at (bsm family)."""
        return Setting(self.topology, self.authenticated, self.k, self.tL, self.tR)

    def label(self) -> str:
        """``name`` if given, else a stable derived label.

        Derived labels include every run-shaping field (adversary kind,
        forced recipe), so two distinct unnamed specs never collide.
        """
        if self.name:
            return self.name
        extra = ""
        if self.profile.kind == "correlated":
            extra += f"/correlated{self.profile.similarity:g}"
        elif self.profile.kind == "incomplete_random":
            extra += f"/accept{self.profile.acceptance:g}"
        elif self.profile.kind != "random":
            extra += f"/{self.profile.kind}"
        if self.adversary is not None:
            extra += f"/{self.adversary.kind}"
            if self.adversary.link is not None:
                extra += f"/lossy-{self.adversary.link.describe()}"
        if self.recipe is not None:
            extra += f"/{self.recipe}"
        if self.family == "attack":
            return f"attack/{self.attack}"
        if self.family == "roommates":
            crypto = "auth" if self.authenticated else "unauth"
            return f"roommates/{crypto}/n{self.n}/t{self.t}/s{self.profile.seed}{extra}"
        if self.family == "offline":
            return f"offline/{self.algorithm}/k{self.k}/s{self.profile.seed}{extra}"
        crypto = "auth" if self.authenticated else "unauth"
        return (
            f"{self.topology}/{crypto}/k{self.k}/t{self.tL},{self.tR}"
            f"/s{self.profile.seed}{extra}"
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy whose profile (and adversary, if any) use ``seed``."""
        adversary = (
            replace(self.adversary, seed=seed) if self.adversary is not None else None
        )
        return replace(
            self, profile=replace(self.profile, seed=seed), adversary=adversary
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        data: dict = {"family": self.family}
        if self.name:
            data["name"] = self.name
        if self.tags:
            data["tags"] = list(self.tags)
        if self.family == "attack":
            data["attack"] = self.attack
            # Attacks ignore profile/adversary, but serialize them anyway
            # so the round trip is exact for any constructible spec.
            data["profile"] = self.profile.to_dict()
            if self.adversary is not None:
                data["adversary"] = self.adversary.to_dict()
            return data
        data["profile"] = self.profile.to_dict()
        if self.adversary is not None:
            data["adversary"] = self.adversary.to_dict()
        if self.family == "roommates":
            data.update(n=self.n, t=self.t, authenticated=self.authenticated)
            if self.max_rounds is not None:
                data["max_rounds"] = self.max_rounds
            return data
        if self.family == "offline":
            data.update(algorithm=self.algorithm, k=self.k)
            return data
        data.update(
            topology=self.topology,
            authenticated=self.authenticated,
            k=self.k,
            tL=self.tL,
            tR=self.tR,
        )
        if self.recipe is not None:
            data["recipe"] = self.recipe
        if self.max_rounds is not None:
            data["max_rounds"] = self.max_rounds
        if self.record_trace:
            data["record_trace"] = True
        if self.runtime != "lockstep":
            data["runtime"] = self.runtime
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        adversary = data.get("adversary")
        profile = data.get("profile")
        return cls(
            name=data.get("name", ""),
            family=data.get("family", "bsm"),
            topology=data.get("topology", "fully_connected"),
            authenticated=bool(data.get("authenticated", True)),
            k=int(data.get("k", 3)),
            tL=int(data.get("tL", 0)),
            tR=int(data.get("tR", 0)),
            profile=ProfileSpec.from_dict(profile) if profile is not None else ProfileSpec(),
            adversary=AdversarySpec.from_dict(adversary) if adversary is not None else None,
            recipe=data.get("recipe"),
            max_rounds=data.get("max_rounds"),
            record_trace=bool(data.get("record_trace", False)),
            runtime=data.get("runtime", "lockstep"),
            attack=data.get("attack"),
            n=int(data.get("n", 0)),
            t=int(data.get("t", 0)),
            algorithm=data.get("algorithm", "gale_shapley"),
            tags=tuple(data.get("tags", ())),
        )

    def to_json(self) -> str:
        """A canonical JSON encoding (sorted keys, compact)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class ExecutorSpec:
    """Declarative execution plane: how a sweep should be driven.

    Where :class:`ScenarioSpec` describes *what* to run, an
    ``ExecutorSpec`` pins *how*: the executor axis (one of
    :data:`EXECUTOR_NAMES`), the worker count for the pool-backed
    executors, the worker endpoints for the ``hosts`` executor (each a
    :mod:`repro.runtime.remote` host string — ``"local"``,
    ``"ssh:user@box"``, or ``"http://host:port"``), and whether workers
    warm-start their per-worker :class:`~repro.runtime.ExecutionCache`
    from a seed of the parent's encode-memo tables.  Like every spec it
    is JSON-round-trippable, so a bench workload or an archived
    experiment can pin its execution plane next to its scenarios.  The
    executor never shapes results — records stay byte-identical across
    all four planes.
    """

    name: str = "serial"
    workers: int | None = None
    warm_cache: bool = False
    hosts: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.name not in EXECUTOR_NAMES:
            raise SolvabilityError(
                f"unknown executor {self.name!r}; expected one of {EXECUTOR_NAMES}"
            )
        if self.hosts is not None:
            object.__setattr__(self, "hosts", tuple(str(host) for host in self.hosts))
        if self.workers is not None and self.workers < 1:
            raise SolvabilityError(f"workers must be >= 1, got {self.workers}")
        if self.name != "parallel" and self.workers is not None:
            raise SolvabilityError(
                "workers only applies to the pool-backed executor "
                f"(parallel), not {self.name!r}"
            )
        if self.warm_cache and self.name not in ("parallel", "hosts"):
            raise SolvabilityError(
                "warm_cache is only meaningful for the parallel and hosts "
                "executors (the other planes share one in-process cache or none)"
            )
        if self.name == "hosts":
            if not self.hosts:
                raise SolvabilityError(
                    "the hosts executor needs at least one host endpoint "
                    '(e.g. hosts=("local", "local"))'
                )
            for host in self.hosts:
                if not host:
                    raise SolvabilityError("host endpoints must be non-empty strings")
        elif self.hosts is not None:
            raise SolvabilityError(
                f"hosts only applies to the hosts executor, not {self.name!r}"
            )

    def to_dict(self) -> dict:
        data: dict = {"name": self.name}
        if self.workers is not None:
            data["workers"] = self.workers
        if self.warm_cache:
            data["warm_cache"] = True
        if self.hosts is not None:
            data["hosts"] = list(self.hosts)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExecutorSpec":
        workers = data.get("workers")
        hosts = data.get("hosts")
        return cls(
            name=data.get("name", "serial"),
            workers=int(workers) if workers is not None else None,
            warm_cache=bool(data.get("warm_cache", False)),
            hosts=tuple(str(host) for host in hosts) if hosts is not None else None,
        )


@dataclass(frozen=True)
class Sweep:
    """An ordered batch of scenarios, ready for the engine.

    Construct literally (``Sweep.of(spec_a, spec_b)``), by seed
    replication (:meth:`seeds`), or by expanding the characterization
    grid (:meth:`grid`).  Sweeps concatenate with ``+`` and serialize
    like their specs.
    """

    specs: tuple[ScenarioSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def of(cls, *specs: ScenarioSpec) -> "Sweep":
        """A sweep of exactly these specs, in order."""
        return cls(specs=specs)

    @classmethod
    def seeds(cls, spec: ScenarioSpec, seeds: Iterable[int]) -> "Sweep":
        """Replicate one spec across profile/adversary seeds."""
        return cls(specs=tuple(spec.with_seed(seed) for seed in seeds))

    @classmethod
    def grid(
        cls,
        topologies: Sequence[str] = TOPOLOGY_NAMES,
        auths: Sequence[bool] = (False, True),
        ks: Sequence[int] = (3,),
        budgets: str | Sequence[tuple[int, int]] = "solvable",
        seeds: Sequence[int] = (7,),
        adversary: AdversarySpec | None = AdversarySpec(kind="silent"),
        profile_kind: str = "random",
        recipe: str | None = None,
    ) -> "Sweep":
        """Expand (topology, auth, k, tL, tR, seed) into scenario specs.

        ``budgets="solvable"`` keeps only grid points the oracle deems
        solvable (the Table 1 workload); ``"all"`` keeps every point
        (unsolvable points yield not-run records unless a recipe is
        forced); an explicit list pins the budget pairs — each pair is
        used at every ``k`` it fits (``tL, tR <= k``), and a pair no
        ``k`` can use is an error.
        """
        if not isinstance(budgets, str):
            budgets = [(int(tL), int(tR)) for tL, tR in budgets]
            max_k = max(ks, default=0)
            for tL, tR in budgets:
                if not (0 <= tL <= max_k and 0 <= tR <= max_k):
                    raise SolvabilityError(
                        f"budget pair (tL={tL}, tR={tR}) fits no k in {tuple(ks)}"
                    )
        specs: list[ScenarioSpec] = []
        for topology in topologies:
            for auth in auths:
                for k in ks:
                    if isinstance(budgets, str):
                        if budgets == "solvable":
                            # Batched closed-form evaluation of the whole
                            # (k+1)^2 grid in one pass; same lexicographic
                            # order and verdicts as filtering point by
                            # point through the oracle (pinned by
                            # tests/test_kernel.py).
                            pairs = list(solvable_pairs(topology, auth, k))
                        elif budgets == "all":
                            pairs = [
                                (tL, tR) for tL in range(k + 1) for tR in range(k + 1)
                            ]
                        else:
                            raise SolvabilityError(
                                f"budgets must be 'solvable', 'all', or pairs, got {budgets!r}"
                            )
                    else:
                        pairs = [(tL, tR) for tL, tR in budgets if tL <= k and tR <= k]
                    for tL, tR in pairs:
                        for seed in seeds:
                            if tL or tR:
                                point_adversary = adversary
                            elif adversary is not None and adversary.link is not None:
                                # Zero-budget point, but the adversary carries
                                # link faults: keep the channel faults, drop
                                # the (empty anyway) corruption set.
                                point_adversary = replace(adversary, corrupt=())
                            else:
                                point_adversary = None
                            specs.append(
                                ScenarioSpec(
                                    topology=topology,
                                    authenticated=auth,
                                    k=k,
                                    tL=tL,
                                    tR=tR,
                                    profile=ProfileSpec(kind=profile_kind, seed=seed),
                                    adversary=point_adversary,
                                    recipe=recipe,
                                )
                            )
        return cls(specs=tuple(specs))

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __add__(self, other: "Sweep") -> "Sweep":
        return Sweep(specs=self.specs + tuple(other))

    def to_dict(self) -> dict:
        return {"specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Sweep":
        return cls(specs=tuple(ScenarioSpec.from_dict(s) for s in data["specs"]))

    def to_json(self) -> str:
        """Canonical JSON for the whole batch."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Sweep":
        return cls.from_dict(json.loads(text))
