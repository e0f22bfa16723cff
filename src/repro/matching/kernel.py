"""The rank-matrix matching kernel: contiguous int arrays, tight loops.

ROADMAP item 2.  Every matching algorithm in this package used to walk
``PartyId``-keyed dicts and heaps; profiling showed the hot path of a
random-ensemble sweep was not Gale-Shapley itself but the *object
churn around it* — per-party permutation validation with sets, rank
tables as dict-of-dicts, and ``PartyId`` hashing on every comparison.
This module lowers a preference profile **once** into flat integer
arrays and runs branch-tight index loops over them:

* ``pref[p * k + j]`` — the index of ``p``'s ``j``-th choice on the
  opposite side (proposer-major "preference matrix");
* ``rank[r * k + p]`` — ``r``'s rank of opposite-side index ``p``
  (responder-major "rank matrix", the inverse permutation row by row).

:class:`RankTables` holds both matrices for both sides and is built
eagerly by :class:`~repro.matching.preferences.PreferenceProfile`
during validation (one pass: validate + lower).  The loops:

* :func:`gs_rank_arrays` — deferred acceptance over the matrices.  By
  McVitie-Wilson order-invariance the matching *and* the total number
  of proposals are independent of the order free proposers are
  processed in, so the heap of the legacy implementation is replaced
  by inline displacement-chasing with identical results (enforced by
  ``tests/test_kernel.py`` and the executor-differential suite);
* :func:`gs_incomplete_rank_arrays` — the incomplete-lists variant
  (proposers may exhaust their acceptable list and stay single);
* :func:`roommates_core` — Irving's phase 1 / phase 2 over int
  indexes, mirroring the legacy ``_Table`` execution order exactly so
  ``rotations_eliminated`` is preserved;
* :func:`solvable_pairs` — the paper's Theorems 2-7 evaluated as
  closed-form masks over a whole ``(tL, tR)`` budget grid in one pass
  (vectorized through numpy when it is available);
* :func:`random_index_rows` / :func:`random_instance_stats` — kernel-
  native uniform instance generation that consumes the *identical*
  Mersenne-Twister stream as ``random_profile`` (shuffling an int row
  swaps the same positions as shuffling a ``PartyId`` row), so the
  engine's offline fast path emits byte-identical records without ever
  materializing a ``PartyId``.

When a C compiler is present the generation path drops one level
further: a small compiled helper (:mod:`repro.matching._native`) carries
CPython's MT19937, starts from the generator's own state
(``Random.getstate()``), runs the Fisher-Yates rejection loop on exactly
the words ``Random.shuffle`` would draw, and hands the advanced state
back.  For :func:`random_instance_stats` it draws the whole instance in
one pass: the left rows land as the preference matrix and the right rows
only as their inverses, the rank matrix, both in :class:`InstanceBuffers`
that the engine's batch cache lends and reuses, so a sweep's instances
do not each allocate (and fault in) fresh matrices.  It is bit-identical
to the pure-python loop, needs no numpy, and degrades silently when
unavailable (``REPRO_NATIVE=0`` forces the fallback); instances under
``_NATIVE_MIN_CELLS`` cells (``k <= 11``) stay on the python loop, which
is faster there.
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING, Sequence

from repro.errors import MatchingError
from repro.matching import _native

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.matching.preferences import PreferenceProfile

# numpy is optional and not a declared dependency: every entry point but
# numpy_rank_sums has a pure-python path.
try:
    import numpy as _np
except ImportError:
    _np = None

__all__ = [
    "RankTables",
    "lower_index_rows",
    "gs_rank_arrays",
    "gs_incomplete_rank_arrays",
    "roommates_core",
    "solvable_pairs",
    "random_index_rows",
    "random_instance_stats",
    "InstanceBuffers",
    "numpy_rank_sums",
    "HAVE_NUMPY",
]

#: Whether the vectorized (numpy) paths are available in this process.
HAVE_NUMPY = _np is not None


class RankTables:
    """A profile lowered to four flat ``array('i')`` matrices.

    ``left_pref``/``right_pref`` are proposer-major preference matrices
    (``row p, column j`` = index of ``p``'s ``j``-th choice);
    ``left_rank``/``right_rank`` are the row-by-row inverse
    permutations (``row r, column p`` = ``r``'s rank of ``p``).  All
    four are length ``k * k`` and immutable by convention — the tables
    are shared by every query on the owning profile.
    """

    __slots__ = ("k", "left_pref", "right_pref", "left_rank", "right_rank")

    def __init__(
        self,
        k: int,
        left_pref: array,
        right_pref: array,
        left_rank: array,
        right_rank: array,
    ) -> None:
        self.k = k
        self.left_pref = left_pref
        self.right_pref = right_pref
        self.left_rank = left_rank
        self.right_rank = right_rank

    def pref_row(self, side: str, index: int) -> Sequence[int]:
        """One preference row (choice index -> opposite index)."""
        base = index * self.k
        matrix = self.left_pref if side == "L" else self.right_pref
        return matrix[base : base + self.k]

    def rank_of(self, side: str, index: int, candidate: int) -> int:
        """``side``/``index``'s rank of opposite-side ``candidate``."""
        matrix = self.left_rank if side == "L" else self.right_rank
        return matrix[index * self.k + candidate]


def lower_index_rows(
    k: int,
    left_rows: Sequence[Sequence[int]],
    right_rows: Sequence[Sequence[int]],
) -> RankTables:
    """Lower trusted index rows (each a permutation of ``range(k)``).

    No validation: callers own the permutation invariant (the
    validating path is ``PreferenceProfile.__post_init__``, which
    builds its tables inside the same pass that checks the lists).
    """
    left_pref = array("i", [entry for row in left_rows for entry in row])
    right_pref = array("i", [entry for row in right_rows for entry in row])
    return RankTables(
        k, left_pref, right_pref, _invert_rows(k, left_pref), _invert_rows(k, right_pref)
    )


def _invert_rows(k: int, pref: array) -> array:
    """Row-by-row inverse permutation: ``rank[base + pref[base + j]] = j``."""
    rank = array("i", pref)  # same length; every slot is overwritten
    for base in range(0, k * k, k):
        for position in range(k):
            rank[base + pref[base + position]] = position
    return rank


# -- deferred acceptance -------------------------------------------------------


def gs_rank_arrays(
    k: int, pref: array, responder_rank: array
) -> tuple[list[int], int]:
    """Deferred acceptance over rank matrices.

    ``pref`` is the proposing side's preference matrix and
    ``responder_rank`` the responding side's rank matrix.  Returns
    ``(engaged, proposals)`` where ``engaged[r]`` is the proposer index
    matched to responder ``r``.  Rejections are derivable: every
    proposal except the ``k`` final engagements is eventually rejected,
    so ``rejections == proposals - k``.

    Free proposers are handled by displacement-chasing (a displaced
    incumbent proposes next); McVitie-Wilson order-invariance makes the
    result — matching and proposal count — identical to the legacy
    smallest-id-first heap loop.
    """
    next_choice = [0] * k
    engaged = [-1] * k
    proposals = 0
    for starter in range(k):
        proposer = starter
        while proposer >= 0:
            choice = next_choice[proposer]
            if choice >= k:
                raise MatchingError(
                    f"proposer {proposer} exhausted its preference list; "
                    "profile is not a complete two-sided instance"
                )
            responder = pref[proposer * k + choice]
            next_choice[proposer] = choice + 1
            proposals += 1
            incumbent = engaged[responder]
            if incumbent < 0:
                engaged[responder] = proposer
                proposer = -1
            else:
                base = responder * k
                if responder_rank[base + proposer] < responder_rank[base + incumbent]:
                    engaged[responder] = proposer
                    proposer = incumbent
                # else: rejected outright; keep proposing as ``proposer``.
    return engaged, proposals


def gs_incomplete_rank_arrays(
    k: int,
    pref_rows: Sequence[Sequence[int]],
    responder_rank: array,
    unacceptable: int,
) -> list[int]:
    """Deferred acceptance over incomplete (ragged) preference rows.

    ``pref_rows[p]`` lists only ``p``'s acceptable responders;
    ``responder_rank`` uses ``unacceptable`` as the sentinel rank for
    proposers a responder does not list.  Returns ``engaged`` with
    ``-1`` for unmatched responders.  The proposer-optimal stable
    matching over incomplete lists is unique, so processing order
    cannot change the result.
    """
    next_choice = [0] * k
    engaged = [-1] * k
    for starter in range(k):
        proposer = starter
        while proposer >= 0:
            row = pref_rows[proposer]
            choice = next_choice[proposer]
            if choice >= len(row):
                break  # exhausted: stays single
            responder = row[choice]
            next_choice[proposer] = choice + 1
            base = responder * k
            if responder_rank[base + proposer] >= unacceptable:
                continue  # responder does not accept this proposer
            incumbent = engaged[responder]
            if incumbent < 0:
                engaged[responder] = proposer
                proposer = -1
            elif responder_rank[base + proposer] < responder_rank[base + incumbent]:
                engaged[responder] = proposer
                proposer = incumbent
    return engaged


# -- Irving's stable roommates over int indexes --------------------------------


def roommates_core(
    n: int, rows: Sequence[Sequence[int]]
) -> tuple[list[int] | None, int]:
    """Irving's algorithm over agents ``0..n-1``.

    ``rows[a]`` ranks every other agent (ints).  Returns
    ``(partner, rotations_eliminated)`` with ``partner[a]`` the stable
    partner of ``a``, or ``(None, eliminated)`` when no stable matching
    exists.  The execution order — phase-1 proposal stack, phase-2
    rotation exposure from the smallest oversized agent — mirrors the
    legacy agent-keyed implementation exactly, so derived observables
    (``rotations_eliminated`` in particular) are unchanged.
    """
    rank = array("i", bytes(4 * n * n))
    for agent, row in enumerate(rows):
        base = agent * n
        for position, other in enumerate(row):
            rank[base + other] = position
    active = [list(row) for row in rows]

    def remove_pair(a: int, b: int) -> None:
        lst = active[a]
        if b in lst:
            lst.remove(b)
        lst = active[b]
        if a in lst:
            lst.remove(a)

    def truncate_after(agent: int, keep: int) -> None:
        lst = active[agent]
        position = lst.index(keep)
        for worse in lst[position + 1 :]:
            remove_pair(agent, worse)

    # Phase 1: the proposal sequence (stack popping smallest id first).
    holds = [-1] * n
    free = list(range(n - 1, -1, -1))
    while free:
        proposer = free.pop()
        while True:
            lst = active[proposer]
            if not lst:
                return None, 0
            target = lst[0]
            incumbent = holds[target]
            if incumbent < 0:
                holds[target] = proposer
                break
            base = target * n
            if rank[base + proposer] < rank[base + incumbent]:
                holds[target] = proposer
                remove_pair(target, incumbent)
                free.append(incumbent)
                break
            remove_pair(target, proposer)
    for recipient in range(n):
        if holds[recipient] >= 0:
            truncate_after(recipient, holds[recipient])

    # Phase 2: expose and eliminate rotations from the smallest
    # oversized agent until all lists are singletons (or one empties).
    eliminated = 0
    while True:
        start = -1
        for agent in range(n):
            length = len(active[agent])
            if length == 0:
                return None, 0
            if length > 1 and start < 0:
                start = agent
        if start < 0:
            break
        seq_a = [start]
        seq_b: list[int] = []
        first_seen = {start: 0}
        while True:
            current = seq_a[-1]
            second = active[current][1]
            seq_b.append(second)
            successor = active[second][-1]
            if successor in first_seen:
                cycle_from = first_seen[successor]
                cycle_a, cycle_b = seq_a[cycle_from:], seq_b[cycle_from:]
                break
            first_seen[successor] = len(seq_a)
            seq_a.append(successor)
        for a, b in zip(cycle_a, cycle_b):
            if b not in active[a]:
                return None, 0
            truncate_after(b, a)
        eliminated += 1

    partner = [active[agent][0] for agent in range(n)]
    for agent, other in enumerate(partner):
        if partner[other] != agent:
            # Malformed input that slipped validation (legacy behavior).
            return None, eliminated
    return partner, eliminated


# -- batched solvability (Theorems 2-7 as grid masks) --------------------------


def solvable_pairs(topology: str, authenticated: bool, k: int) -> tuple[tuple[int, int], ...]:
    """Every solvable ``(tL, tR)`` budget pair of the ``(k+1)^2`` grid.

    One pass over the whole grid with the paper's closed-form
    conditions (strict fractions over integers, exactly as
    :func:`repro.core.solvability.is_solvable` branches), in
    lexicographic ``(tL, tR)`` order — the order ``Sweep.grid``'s
    nested loops produced point by point.  Equivalence with the
    verdict oracle is pinned by ``tests/test_kernel.py`` over every
    topology/auth/k combination.
    """
    if _np is not None and k >= 8:
        return _solvable_pairs_numpy(topology, authenticated, k)
    pairs: list[tuple[int, int]] = []
    for tL in range(k + 1):
        left_q3 = 3 * tL < k
        for tR in range(k + 1):
            if _solvable_point(topology, authenticated, k, tL, tR, left_q3):
                pairs.append((tL, tR))
    return tuple(pairs)


def _solvable_point(
    topology: str, authenticated: bool, k: int, tL: int, tR: int, left_q3: bool
) -> bool:
    q3 = left_q3 or 3 * tR < k
    if authenticated:
        if topology == "fully_connected":
            return True
        if topology == "one_sided":
            return tR < k or left_q3
        return (tL < k and tR < k) or q3  # bipartite
    if not q3:
        return False
    if topology == "fully_connected":
        return True
    if topology == "one_sided":
        return 2 * tR < k
    return 2 * tL < k and 2 * tR < k  # bipartite


def _solvable_pairs_numpy(
    topology: str, authenticated: bool, k: int
) -> tuple[tuple[int, int], ...]:
    budgets = _np.arange(k + 1)
    tL, tR = budgets[:, None], budgets[None, :]
    q3 = (3 * tL < k) | (3 * tR < k)
    if authenticated:
        if topology == "fully_connected":
            mask = _np.ones((k + 1, k + 1), dtype=bool)
        elif topology == "one_sided":
            mask = (tR < k) | (3 * tL < k)
        else:  # bipartite
            mask = ((tL < k) & (tR < k)) | q3
    elif topology == "fully_connected":
        mask = q3
    elif topology == "one_sided":
        mask = q3 & (2 * tR < k)
    else:  # bipartite
        mask = q3 & (2 * tL < k) & (2 * tR < k)
    # argwhere is row-major: lexicographic (tL, tR), same as the loops.
    return tuple((int(a), int(b)) for a, b in _np.argwhere(mask))


# -- kernel-native uniform instance generation ---------------------------------

#: Below this many cells (``rows * k``) the fixed cost of the native
#: path (the Mersenne state hand-off and the ctypes call) beats its win.
_NATIVE_MIN_CELLS = 256


def _native_lane(k: int) -> _native.NativeKernel | None:
    """The compiled kernel when a ``2k``-row instance is worth it."""
    if 2 * k * k < _NATIVE_MIN_CELLS:
        return None
    return _native.load()


class InstanceBuffers:
    """The two matrices :func:`random_instance_stats` draws an instance
    into (the proposers' preferences, the responders' ranks), kept for
    reuse from one instance to the next.

    Grown on demand and never shrunk: an instance overwrites every one of
    the first ``k * k`` cells of both and reads no other, so what a
    larger earlier instance left past them is never seen.  One owner at
    a time: an :class:`~repro.runtime.ExecutionCache` holds one set for
    its batch.
    """

    __slots__ = ("pref", "rank")

    def __init__(self) -> None:
        self.pref = array("i")
        self.rank = array("i")

    def reserve(self, cells: int) -> tuple[array, array]:
        """Both matrices, grown to at least ``cells`` cells."""
        if len(self.pref) < cells:
            self.pref = array("i", [0]) * cells
            self.rank = array("i", [0]) * cells
        return self.pref, self.rank


def _shuffled_row(k: int, getrandbits) -> list[int]:
    """A uniformly shuffled ``range(k)``, stream-identical to
    ``random.Random.shuffle``.

    Inlines CPython's Fisher-Yates + ``_randbelow_with_getrandbits``
    rejection loop, so it draws *exactly* the bits ``rng.shuffle(row)``
    would — the kernel path and the ``PartyId`` path see the same
    permutations from the same seed.
    """
    row = list(range(k))
    for i in range(k - 1, 0, -1):
        n = i + 1
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        row[i], row[j] = row[j], row[i]
    return row


def random_index_rows(
    k: int, rng: random.Random
) -> tuple[list[list[int]], list[list[int]]]:
    """Uniform random preference rows, as ints, left side first.

    Consumes ``rng``'s stream exactly like
    :func:`repro.matching.generators.random_profile` (which shuffles
    one opposite-side row per party, left parties first): shuffling
    ``[0..k-1]`` swaps the same positions as shuffling the
    ``PartyId`` row, so the permutations are identical.  The inlined
    shuffle is only safe for a plain ``random.Random``; subclasses
    (which may override ``shuffle``/``getrandbits``) fall back to the
    real method on an int row — still the same stream.
    """
    if type(rng) is random.Random:
        native = _native_lane(k)
        if native is not None:
            left, right = (
                [block[base : base + k].tolist() for base in range(0, k * k, k)]
                for block in native.shuffled_rows(rng, k, k, k)
            )
            return left, right
        getrandbits = rng.getrandbits
        left = [_shuffled_row(k, getrandbits) for _ in range(k)]
        right = [_shuffled_row(k, getrandbits) for _ in range(k)]
        return left, right

    def shuffled() -> list[int]:
        row = list(range(k))
        rng.shuffle(row)
        return row

    left = [shuffled() for _ in range(k)]
    right = [shuffled() for _ in range(k)]
    return left, right


def random_instance_stats(
    k: int, seed: int, buffers: InstanceBuffers | None = None
) -> tuple[int, int]:
    """``(proposals, receiver_rank_sum)`` of AG-S(L) on the seeded
    uniform instance — the offline record path, ``PartyId``-free.

    Byte-identical to building ``random_profile(k, seed)`` and running
    the full ``gale_shapley``: the rows come off the same stream, the
    loop is order-invariant, and ``receiver_rank`` sums the same
    1-indexed partner ranks.  Complete preferences always match
    everyone, so ``matched == k`` and ``rejections == proposals - k``.
    ``buffers`` lends the two matrices (the engine passes its batch
    cache's); without it the call allocates its own.
    """
    rng = random.Random(seed)
    if buffers is None:
        buffers = InstanceBuffers()
    pref, rank = buffers.reserve(k * k)
    native = _native_lane(k)
    if native is not None:
        # One pass: the left rows land as the proposers' preference
        # matrix, the right rows only as their inverses (the rank matrix).
        native.draw_instance(rng, k, pref, rank)
    else:
        getrandbits = rng.getrandbits
        for proposer in range(k):
            base = proposer * k
            pref[base : base + k] = array("i", _shuffled_row(k, getrandbits))
        for responder in range(k):
            base = responder * k
            for position, proposer in enumerate(_shuffled_row(k, getrandbits)):
                rank[base + proposer] = position
    engaged, proposals = gs_rank_arrays(k, pref, rank)
    receiver_rank = k  # the "+1" of every 1-indexed rank, hoisted
    for responder in range(k):
        receiver_rank += rank[responder * k + engaged[responder]]
    return proposals, receiver_rank


def numpy_rank_sums(n: int, seed: int) -> tuple[int, int]:
    """``(proposals, receiver_rank_sum)`` for one uniform instance at
    large ``n``, generated vectorized (numpy permutations).

    The measurement path behind ``docs/figures/ensemble_ranks.svg``:
    at ``n = 10^4`` a pure-python Fisher-Yates costs minutes, so the
    rows come from numpy's generator instead.  **Not** stream-identical
    to :func:`random_instance_stats` — this samples the same uniform
    ensemble, it does not reproduce per-seed records — which is why the
    record path never uses it.
    """
    if _np is None:
        raise MatchingError("numpy_rank_sums needs numpy")
    rng = _np.random.default_rng(seed)
    dtype = _np.int32 if n > 32000 else _np.int16
    identity = _np.arange(n, dtype=dtype)
    left_pref = _np.empty((n, n), dtype=dtype)
    for row in range(n):
        left_pref[row] = rng.permutation(n)
    right_rank = _np.empty((n, n), dtype=dtype)
    scratch = _np.empty(n, dtype=dtype)
    for row in range(n):
        scratch[...] = rng.permutation(n)
        right_rank[row, scratch] = identity
    next_choice = [0] * n
    engaged = [-1] * n
    proposals = 0
    for starter in range(n):
        proposer = starter
        while proposer >= 0:
            choice = next_choice[proposer]
            responder = int(left_pref[proposer, choice])
            next_choice[proposer] = choice + 1
            proposals += 1
            incumbent = engaged[responder]
            if incumbent < 0:
                engaged[responder] = proposer
                proposer = -1
            else:
                row_rank = right_rank[responder]
                if int(row_rank[proposer]) < int(row_rank[incumbent]):
                    engaged[responder] = proposer
                    proposer = incumbent
    receiver_rank = n + sum(
        int(right_rank[responder, engaged[responder]]) for responder in range(n)
    )
    return proposals, receiver_rank
