"""Differential tests: the rank-matrix kernel vs the legacy loops.

The kernel (``repro.matching.kernel``) replaced the ``PartyId``-keyed
dict/heap implementations behind ``gale_shapley``,
``gale_shapley_incomplete``, ``stable_roommates``, ``Sweep.grid``, and
the engine's offline record path.  These tests keep verbatim copies of
the *legacy* implementations and prove byte-identity on randomized and
hypothesis-generated instances: matching, ``proposals``,
``rejections``, both proposer sides, ``rotations_eliminated``, grid
order, and the offline record statistics.
"""

import heapq
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.problem import Setting
from repro.core.solvability import cached_is_solvable
from repro.crypto.encoding import pack_profile, pack_ranking, unpack_ranking
from repro.errors import ProtocolError
from repro.ids import LEFT, RIGHT, left_side, right_side
from repro.matching.gale_shapley import gale_shapley
from repro.matching.generators import (
    random_incomplete_profile,
    random_profile,
    random_roommates_preferences,
)
from repro.matching.incomplete import gale_shapley_incomplete
from repro.matching.kernel import (
    gs_rank_arrays,
    random_instance_stats,
    solvable_pairs,
)
from repro.matching.matching import Matching
from repro.matching.preferences import PreferenceProfile
from repro.matching.roommates import stable_roommates
from repro.net.topology import TOPOLOGY_NAMES

# -- verbatim legacy implementations (pre-kernel) ------------------------------


def legacy_gale_shapley(profile, proposer_side=LEFT):
    """The historical smallest-id-first heap loop, counters included."""
    k = profile.k
    proposers = left_side(k) if proposer_side == LEFT else right_side(k)
    next_choice = {p: 0 for p in proposers}
    engaged_to = {}
    free = list(proposers)
    heapq.heapify(free)
    proposals = 0
    rejections = 0
    while free:
        proposer = heapq.heappop(free)
        candidate = profile.list_of(proposer)[next_choice[proposer]]
        next_choice[proposer] += 1
        proposals += 1
        incumbent = engaged_to.get(candidate)
        if incumbent is None:
            engaged_to[candidate] = proposer
        elif profile.prefers(candidate, proposer, incumbent):
            engaged_to[candidate] = proposer
            rejections += 1
            heapq.heappush(free, incumbent)
        else:
            rejections += 1
            heapq.heappush(free, proposer)
    matching = Matching.from_pairs(
        (proposer, responder) if proposer.is_left() else (responder, proposer)
        for responder, proposer in engaged_to.items()
    )
    return matching, proposals, rejections


def legacy_gale_shapley_incomplete(profile, proposer_side=LEFT):
    """The historical incomplete-lists heap loop."""
    k = profile.k
    proposers = left_side(k) if proposer_side == LEFT else right_side(k)
    next_choice = {p: 0 for p in proposers}
    engaged_to = {}
    free = list(proposers)
    heapq.heapify(free)
    while free:
        proposer = heapq.heappop(free)
        ranking = profile.lists[proposer]
        while next_choice[proposer] < len(ranking):
            candidate = ranking[next_choice[proposer]]
            next_choice[proposer] += 1
            if not profile.accepts(candidate, proposer):
                continue
            incumbent = engaged_to.get(candidate)
            if incumbent is None:
                engaged_to[candidate] = proposer
                break
            if profile.prefers(candidate, proposer, incumbent):
                engaged_to[candidate] = proposer
                heapq.heappush(free, incumbent)
                break
    return Matching.from_pairs(
        (proposer, responder) if proposer.is_left() else (responder, proposer)
        for responder, proposer in engaged_to.items()
    )


class _LegacyTable:
    """Verbatim copy of the pre-kernel roommates reduction table."""

    def __init__(self, preferences):
        self.active = {agent: list(r) for agent, r in preferences.items()}
        self.rank = {
            agent: {other: pos for pos, other in enumerate(r)}
            for agent, r in preferences.items()
        }

    def remove_pair(self, a, b):
        if b in self.rank[a] and b in self.active[a]:
            self.active[a].remove(b)
        if a in self.rank[b] and a in self.active[b]:
            self.active[b].remove(a)

    def prefers(self, judge, a, b):
        return self.rank[judge][a] < self.rank[judge][b]

    def truncate_after(self, agent, keep):
        lst = self.active[agent]
        position = lst.index(keep)
        for worse in list(lst[position + 1 :]):
            self.remove_pair(agent, worse)


def legacy_stable_roommates(preferences):
    """The historical agent-keyed Irving implementation."""
    table = _LegacyTable(preferences)
    holds = {}
    free = sorted(table.active, reverse=True)
    while free:
        proposer = free.pop()
        while True:
            if not table.active[proposer]:
                return None, 0
            target = table.active[proposer][0]
            incumbent = holds.get(target)
            if incumbent is None:
                holds[target] = proposer
                break
            if table.prefers(target, proposer, incumbent):
                holds[target] = proposer
                table.remove_pair(target, incumbent)
                free.append(incumbent)
                break
            table.remove_pair(target, proposer)
    for recipient, proposer in sorted(holds.items()):
        table.truncate_after(recipient, proposer)

    eliminated = 0
    while True:
        lengths = {agent: len(lst) for agent, lst in table.active.items()}
        if any(length == 0 for length in lengths.values()):
            return None, 0
        oversized = sorted(a for a, length in lengths.items() if length > 1)
        if not oversized:
            break
        seq_a, seq_b, first_seen = [oversized[0]], [], {oversized[0]: 0}
        while True:
            second = table.active[seq_a[-1]][1]
            seq_b.append(second)
            successor = table.active[second][-1]
            if successor in first_seen:
                cycle_a = seq_a[first_seen[successor] :]
                cycle_b = seq_b[first_seen[successor] :]
                break
            first_seen[successor] = len(seq_a)
            seq_a.append(successor)
        for a, b in zip(cycle_a, cycle_b):
            if b not in table.active[a]:
                return None, 0
            table.truncate_after(b, a)
        eliminated += 1

    matching = {agent: lst[0] for agent, lst in table.active.items()}
    for agent, partner in matching.items():
        if matching.get(partner) != agent:
            return None, eliminated
    return matching, eliminated


# -- Gale-Shapley byte-identity ------------------------------------------------


class TestKernelGaleShapleyIdentity:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from([LEFT, RIGHT]),
    )
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_complete_profiles(self, k, seed, side):
        profile = random_profile(k, seed)
        result = gale_shapley(profile, side)
        matching, proposals, rejections = legacy_gale_shapley(profile, side)
        assert result.matching == matching
        assert result.proposals == proposals
        assert result.rejections == rejections
        assert result.proposer_side == side

    @given(
        st.integers(min_value=1, max_value=24),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([LEFT, RIGHT]),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_incomplete_profiles(self, k, acceptance, seed, side):
        profile = random_incomplete_profile(k, acceptance, seed)
        assert gale_shapley_incomplete(profile, side) == legacy_gale_shapley_incomplete(
            profile, side
        )

    def test_adversarial_handcrafted_profile(self):
        # Master-list contention: everyone fights over the same order.
        lists = {}
        k = 5
        for i in range(k):
            lists[left_side(k)[i]] = tuple(right_side(k))
            lists[right_side(k)[i]] = tuple(left_side(k))
        profile = PreferenceProfile(k=k, lists=lists)
        for side in (LEFT, RIGHT):
            result = gale_shapley(profile, side)
            matching, proposals, rejections = legacy_gale_shapley(profile, side)
            assert result.matching == matching
            assert (result.proposals, result.rejections) == (proposals, rejections)

    def test_exhaustion_raises(self):
        # A hand-built ragged pref row must fail loudly, like the legacy loop.
        from array import array

        from repro.errors import MatchingError

        pref = array("i", [0, 0, 0, 0])  # both proposers only ever propose to 0
        rank = array("i", [0, 1, 0, 1])
        with pytest.raises(MatchingError, match="exhausted"):
            gs_rank_arrays(2, pref, rank)


# -- roommates byte-identity ---------------------------------------------------


class TestKernelRoommatesIdentity:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_random_instances(self, half, seed):
        agents = [f"a{i:02d}" for i in range(2 * half)]
        preferences = random_roommates_preferences(agents, seed)
        result = stable_roommates(preferences)
        matching, eliminated = legacy_stable_roommates(preferences)
        assert result.matching == matching
        if matching is not None:
            assert result.rotations_eliminated == eliminated

    def test_unsolvable_instance(self):
        # Classic 4-agent no-solution instance.
        preferences = {
            "a": ("b", "c", "d"),
            "b": ("c", "a", "d"),
            "c": ("a", "b", "d"),
            "d": ("a", "b", "c"),
        }
        result = stable_roommates(preferences)
        matching, _ = legacy_stable_roommates(preferences)
        assert result.matching is None and matching is None


# -- batched solvability -------------------------------------------------------


class TestSolvablePairs:
    @pytest.mark.parametrize("topology", TOPOLOGY_NAMES)
    @pytest.mark.parametrize("authenticated", [False, True])
    def test_matches_oracle_on_both_paths(self, topology, authenticated):
        # k < 8 exercises the pure loop, k >= 8 the numpy mask (when
        # numpy is present); both must agree with the verdict oracle in
        # value AND order (lexicographic, as Sweep.grid's loops were).
        for k in (1, 2, 3, 5, 8, 13, 21):
            expected = tuple(
                (tL, tR)
                for tL in range(k + 1)
                for tR in range(k + 1)
                if cached_is_solvable(Setting(topology, authenticated, k, tL, tR)).solvable
            )
            assert solvable_pairs(topology, authenticated, k) == expected


# -- the offline record fast path ----------------------------------------------


class TestRandomInstanceStats:
    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_matches_full_record_path(self, k, seed):
        proposals, receiver_rank = random_instance_stats(k, seed)
        profile = random_profile(k, seed)
        result = gale_shapley(profile)
        expected_rank = sum(
            profile.rank(party, result.matching.partner(party)) + 1
            for party in right_side(k)
        )
        assert proposals == result.proposals
        assert receiver_rank == expected_rank

    def test_offline_engine_records_unchanged(self):
        # End to end: the engine's kernel fast path vs forcing the
        # profile-building path through an explicit profile spec.
        from repro.experiment.engine import execute_spec
        from repro.experiment.spec import ProfileSpec, ScenarioSpec

        k, seed = 6, 123
        fast = ScenarioSpec(
            family="offline", algorithm="gale_shapley", k=k,
            profile=ProfileSpec(kind="random", seed=seed),
        )
        explicit = ScenarioSpec(
            family="offline", algorithm="gale_shapley", k=k,
            profile=ProfileSpec.explicit(random_profile(k, seed)),
        )
        (fast_record,) = execute_spec(fast)
        (slow_record,) = execute_spec(explicit)
        for field in ("matched", "proposals", "receiver_rank", "ok"):
            assert getattr(fast_record, field) == getattr(slow_record, field)


# -- lowering and the trusted constructor --------------------------------------


class TestRankTables:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_agree_with_lists(self, k, seed):
        profile = random_profile(k, seed)
        tables = profile.tables
        for i, party in enumerate(left_side(k)):
            row = profile.lists[party]
            assert list(tables.pref_row(LEFT, i)) == [c.index for c in row]
            for position, candidate in enumerate(row):
                assert tables.rank_of(LEFT, i, candidate.index) == position
                assert profile.rank(party, candidate) == position
        for i, party in enumerate(right_side(k)):
            row = profile.lists[party]
            assert list(tables.pref_row(RIGHT, i)) == [c.index for c in row]

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_trusted_constructor_equals_validating(self, k, seed):
        rng = random.Random(seed)
        left_rows = [rng.sample(range(k), k) for _ in range(k)]
        right_rows = [rng.sample(range(k), k) for _ in range(k)]
        trusted = PreferenceProfile.from_trusted_index_rows(k, left_rows, right_rows)
        validated = PreferenceProfile.from_index_lists(left_rows, right_rows)
        assert trusted == validated
        assert bytes(trusted.tables.left_rank) == bytes(validated.tables.left_rank)
        assert bytes(trusted.tables.right_rank) == bytes(validated.tables.right_rank)


# -- compact fixed-width ranking codec -----------------------------------------


class TestPackedRankings:
    @given(
        st.sampled_from(["L", "R"]),
        st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=80),
    )
    @settings(max_examples=120)
    def test_round_trip(self, side, indexes):
        packed = pack_ranking(side, indexes)
        got_side, got_indexes = unpack_ranking(packed)
        assert got_side == side
        assert list(got_indexes) == indexes

    def test_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            pack_ranking("X", [0, 1])
        with pytest.raises(ProtocolError):
            unpack_ranking(b"nonsense")
        with pytest.raises(ProtocolError):
            unpack_ranking(pack_ranking("L", [1, 2, 3])[:-1])

    def test_pack_profile_injective_on_samples(self):
        blobs = {pack_profile(random_profile(4, seed).tables) for seed in range(40)}
        assert len(blobs) == 40
        # Distinct k never collides either (length-prefixed by k).
        assert pack_profile(random_profile(2, 0).tables) != pack_profile(
            random_profile(3, 0).tables
        )


# -- the solvability memo counters (satellite: unbounded + surfaced) -----------


class TestSolvabilityCacheStats:
    def test_unbounded_and_surfaced_through_cache_stats(self):
        from repro.core.solvability import solvability_cache_stats
        from repro.runtime.cache import ExecutionCache, merge_cache_stats

        assert cached_is_solvable.cache_info().maxsize is None
        before = solvability_cache_stats()
        cached_is_solvable(Setting("fully_connected", True, 3, 1, 1))
        after = solvability_cache_stats()
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
        assert set(after) == {"entries", "hits", "misses"}

        stats = ExecutionCache().stats()
        assert stats["solvability"]["entries"] == after["entries"]
        merged = merge_cache_stats([stats, stats])
        assert merged["solvability"]["entries"] == 2 * after["entries"]


# -- the optional C fast lane --------------------------------------------------


def _lane_or_skip():
    from repro.matching import _native

    native = _native.load()
    if native is None:
        pytest.skip("no C compiler in this environment")
    return native


def _count_lane_draws(monkeypatch, native):
    """Patch ``_native.load`` to return ``native`` and record every
    ``shuffled_rows`` (with its row counts) and ``draw_instance`` (with
    its ``k``) call made through it."""
    from repro.matching import _native

    calls = []

    class Spy:
        def shuffled_rows(self, rng, k, *counts):
            calls.append(("shuffled_rows", counts))
            return native.shuffled_rows(rng, k, *counts)

        def draw_instance(self, rng, k, pref, rank):
            calls.append(("draw_instance", k))
            return native.draw_instance(rng, k, pref, rank)

    spy = Spy()
    monkeypatch.setattr(_native, "load", lambda: spy)
    return calls


def _pure_python_stats(monkeypatch, k, seed):
    from repro.matching import _native

    with monkeypatch.context() as patch:
        patch.setattr(_native, "load", lambda: None)
        return random_instance_stats(k, seed)


class TestNativeLane:
    """The compiled Fisher-Yates lane is bit-identical to the python loop."""

    # 2..5 and 1023..1025 put bit-length edges (where the loop changes
    # its shift) at the first and last draws of a row.
    @pytest.mark.parametrize("k", (64, 65, 257, 8192, 2, 3, 4, 5, 1023, 1024, 1025))
    def test_rows_and_rng_state_match_pure_python(self, k):
        from repro.matching.kernel import _shuffled_row

        native = _lane_or_skip()
        counts = (1, 3, 8) if k > 1000 else (1, 2, 40, 2 * k)
        for fresh, count in itertools.product((True, False), counts):
            fast, slow = random.Random(k + count), random.Random(k + count)
            if not fresh:
                # Start mid-stream with a pending gauss value: the
                # hand-off must keep the read index and the rest of the
                # state intact.  A fresh generator's index is 624: its
                # first draw twists.
                fast.gauss(0.0, 1.0)
                slow.gauss(0.0, 1.0)
            (block,) = native.shuffled_rows(fast, k, count)
            getrandbits = slow.getrandbits
            rows = [_shuffled_row(k, getrandbits) for _ in range(count)]
            assert block.tolist() == [entry for row in rows for entry in row]
            # The shared generator must land on the same stream position:
            # a caller's next draw is unaffected by which lane ran.
            assert fast.getstate() == slow.getstate()
            assert fast.random() == slow.random()

    def test_blocks_continue_one_stream(self):
        native = _lane_or_skip()
        k = 97
        once, split = random.Random(3), random.Random(3)
        (whole,) = native.shuffled_rows(once, k, 64)
        first, second = native.shuffled_rows(split, k, 10, 30)
        (third,) = native.shuffled_rows(split, k, 24)
        assert first + second + third == whole
        assert split.getstate() == once.getstate()

    def test_small_instances_stay_on_the_python_path(self, monkeypatch):
        from repro.matching import _native
        from repro.matching.kernel import _NATIVE_MIN_CELLS, random_index_rows

        k = 8
        assert 2 * k * k < _NATIVE_MIN_CELLS
        loads = []
        monkeypatch.setattr(_native, "load", lambda: loads.append(k))
        random_instance_stats(k, 0)
        random_index_rows(k, random.Random(0))
        assert loads == []

    def test_native_invert_matches_python(self):
        """``draw_instance`` equals ``shuffled_rows`` of ``2k`` rows with
        the last ``k`` inverted in python, leaves the generator where
        those draws do, and writes no cell past ``k * k``."""
        from array import array

        from repro.matching.kernel import _invert_rows

        native = _lane_or_skip()
        for k in (1, 2, 5, 12, 64, 257):
            drawn, instance = random.Random(k), random.Random(k)
            drawn.random()
            instance.random()
            (rows,) = native.shuffled_rows(drawn, k, 2 * k)
            cells = k * k
            pref, rank = array("i", [-1]) * (cells + 3), array("i", [-1]) * (cells + 3)
            native.draw_instance(instance, k, pref, rank)
            assert pref[:cells] == rows[:cells]
            assert rank[:cells] == _invert_rows(k, rows[cells:])
            assert pref[cells:].tolist() == rank[cells:].tolist() == [-1, -1, -1]
            assert instance.getstate() == drawn.getstate()

    def test_draw_instance_refuses_short_buffers(self):
        from array import array

        native = _lane_or_skip()
        with pytest.raises(ValueError, match="at least 16 cells"):
            native.draw_instance(random.Random(0), 4, array("i", [0]) * 16, array("i", [0]) * 15)
        with pytest.raises(ValueError, match="array"):
            native.draw_instance(random.Random(0), 4, array("l", [0]) * 16, array("i", [0]) * 16)

    @pytest.mark.parametrize("lane", ("native", "python"))
    def test_reused_buffers_match_fresh_allocation(self, monkeypatch, lane):
        """One cache's buffers over descending, then ascending ``k``: every
        instance equals a freshly allocated one, so no stale cell from a
        larger earlier instance is ever read."""
        from repro.matching import _native
        from repro.runtime.cache import ExecutionCache

        if lane == "native":
            _lane_or_skip()
        else:
            monkeypatch.setattr(_native, "load", lambda: None)
        cache = ExecutionCache()
        for k in (300, 65, 12, 11, 5, 1, 2, 8, 13, 64, 301):
            seed = 7 * k
            assert random_instance_stats(k, seed, cache.instance_buffers) == (
                random_instance_stats(k, seed)
            )
        assert len(cache.instance_buffers.pref) == 301 * 301

    def test_threads_with_their_own_caches_draw_at_once(self):
        """The ctypes call releases the GIL: threads drawing at the same
        time, each into its own cache's buffers, all match the reference."""
        import sys
        import threading

        from repro.runtime.cache import ExecutionCache

        _lane_or_skip()
        jobs = [(k, seed) for seed in range(3) for k in (400, 64, 257, 12)]
        expected = [random_instance_stats(k, seed) for k, seed in jobs]
        start = threading.Barrier(4)
        results: dict[int, list] = {}

        def draw(slot):
            cache = ExecutionCache()
            start.wait(timeout=30)
            results[slot] = [
                random_instance_stats(k, seed, cache.instance_buffers) for k, seed in jobs
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=draw, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {slot: expected for slot in range(4)}

    def test_lane_runs_without_numpy(self, monkeypatch):
        from repro.matching import _native, kernel
        from repro.matching.kernel import random_index_rows

        native = _lane_or_skip()
        k, seed = 64, 5
        expected_stats = _pure_python_stats(monkeypatch, k, seed)
        with monkeypatch.context() as patch:
            patch.setattr(_native, "load", lambda: None)
            expected_rows = random_index_rows(k, random.Random(seed))
        monkeypatch.setattr(kernel, "_np", None)
        calls = _count_lane_draws(monkeypatch, native)
        assert random_instance_stats(k, seed) == expected_stats
        assert random_index_rows(k, random.Random(seed)) == expected_rows
        assert calls == [("draw_instance", k), ("shuffled_rows", (k, k))]

    @pytest.mark.parametrize("k", (45, 46, 64, 257, 1000, 8, 11, 12, 16))
    def test_stats_match_pure_python_across_the_threshold(self, monkeypatch, k):
        from repro.matching.kernel import _NATIVE_MIN_CELLS

        native = _lane_or_skip()
        seed = 1000 + k
        expected = _pure_python_stats(monkeypatch, k, seed)
        calls = _count_lane_draws(monkeypatch, native)
        assert random_instance_stats(k, seed) == expected
        assert bool(calls) == (2 * k * k >= _NATIVE_MIN_CELLS)

    def test_build_dir_defaults_to_the_checkout(self, monkeypatch):
        from pathlib import Path

        from repro.matching import _native

        monkeypatch.delenv("REPRO_NATIVE_DIR", raising=False)
        checkout = Path(__file__).resolve().parents[1]
        assert _native._build_dir() == checkout / "build" / "native"

    def test_concurrent_first_builds_all_get_the_lane(self, tmp_path):
        import os
        import subprocess
        import sys
        import time
        from pathlib import Path

        from repro.matching import _native

        _lane_or_skip()
        src = str(Path(_native.__file__).resolve().parents[2])
        env = dict(os.environ, REPRO_NATIVE_DIR=str(tmp_path))
        env.pop("REPRO_NATIVE", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        # Every child sleeps until the same instant, then builds.
        script = (
            "import sys, time\n"
            "from repro.matching import _native\n"
            "time.sleep(max(0.0, float(sys.argv[1]) - time.time()))\n"
            "sys.exit(0 if _native.load() is not None else 1)\n"
        )
        start = str(time.time() + 2.0)
        children = [
            subprocess.Popen([sys.executable, "-c", script, start], env=env)
            for _ in range(4)
        ]
        assert [child.wait(timeout=120) for child in children] == [0, 0, 0, 0]
        # One published object; no builder's private files are left.
        assert [path.suffix for path in tmp_path.iterdir()] == [".so"]


class TestChunkedNativeLane:
    """Rows drawn in blocks of at most ``budget`` words, across and within
    ``shuffled_rows`` calls, match the python loop row for row and leave
    the generator where it would."""

    @pytest.mark.parametrize("k,count,budget", ((64, 200, 4096), (257, 40, 8192)))
    def test_chunked_rows_and_rng_state_match_pure_python(self, k, count, budget):
        from repro.matching.kernel import _shuffled_row

        native = _lane_or_skip()
        per_block = max(1, budget // k)
        sizes = [min(per_block, count - start) for start in range(0, count, per_block)]
        assert len(sizes) > 1
        fast, slow = random.Random(23), random.Random(23)
        # The first block alone, the rest in one call: boundaries fall
        # both between calls and inside one.
        blocks = native.shuffled_rows(fast, k, sizes[0])
        blocks += native.shuffled_rows(fast, k, *sizes[1:])
        assert [len(block) for block in blocks] == [k * size for size in sizes]
        getrandbits = slow.getrandbits
        rows = [_shuffled_row(k, getrandbits) for _ in range(count)]
        assert [entry for block in blocks for entry in block] == [
            entry for row in rows for entry in row
        ]
        assert fast.getstate() == slow.getstate()
        assert fast.random() == slow.random()
