"""Execution caches: the batching runtime's amortization substrate.

Protocol runs spend most of their Python time on three pure
computations: canonically encoding payloads (byte accounting), HMAC
signing, and signature verification.  Within one run the same payload
is encoded once per recipient; across a batch of related runs (a grid
sweep reuses one preference seed per ``k``) the *same* payloads are
signed by the *same* keys thousands of times.  An
:class:`ExecutionCache` memoizes all three, keyed by payload value, so
a batch of runs shares the work.

Correctness: every cached function is a pure function of its key —
``encode`` is deterministic and injective, HMAC is deterministic, and
key rings are keyed by identity (two rings with equal parties but
different key material never share entries).  Unhashable payloads
(adversarial garbage containing sets/dicts of unhashables) fall through
to direct computation.  The :data:`NO_CACHE` null object keeps the
reference lockstep path allocation-free.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.crypto.encoding import EncodeMemo, SizeMemo, encode, encoded_size
from repro.crypto.signatures import KeyRing, Signature
from repro.errors import ProtocolError
from repro.ids import PartyId
from repro.matching.kernel import InstanceBuffers

__all__ = [
    "ExecutionCache",
    "NullExecutionCache",
    "NO_CACHE",
    "CachedSigner",
    "merge_cache_stats",
]


def _direct_payload_size(payload: object) -> int:
    """Uncached byte accounting (the kernel's historical fallback rule).

    ``encoded_size`` without a memo is the size-only walk: the exact
    length of the canonical encoding, computed without building it.
    """
    try:
        return encoded_size(payload)
    except ProtocolError:
        return len(repr(payload).encode("utf-8"))


class NullExecutionCache:
    """The no-op cache: every operation computes directly.

    This is what the reference :class:`~repro.runtime.LockstepRuntime`
    uses, keeping its per-run behavior identical to the historical
    ``SyncNetwork``.  The one amortization it does hand out is
    :meth:`sizer` — a *per-run* byte-accounting memo: broadcasts size
    the same payload object once per recipient per round, so even the
    uncached reference path deduplicates that pure computation (a
    measured ~15-20% of serial sweep wall-clock; see
    ``docs/benchmarks.md``).  Byte counts are unchanged — the memo is
    the same :class:`~repro.crypto.encoding.EncodeMemo` machinery the
    batched runtime already proves semantics-preserving.
    """

    def payload_size(self, payload: object) -> int:
        """Size in bytes of the canonical encoding (repr fallback)."""
        return _direct_payload_size(payload)

    def encode_memo(self):
        """The shared :class:`EncodeMemo`, if any (None = uncached)."""
        return None

    def sizer(self):
        """A byte-accounting function for ONE run (fresh memo each call).

        The memo pins the payloads it sizes for the run's lifetime (a
        :class:`SizeMemo` stores only provably immutable values, so
        entries can never go stale); scoping it to a single engine keeps
        memory bounded by one run's payload set.  Sizing never builds
        canonical bytes — it is the arithmetic size-only walk, memoized
        with the same structural canonicalization the encoder uses.
        """
        memo = SizeMemo()

        def payload_size(payload: object) -> int:
            try:
                return memo.size(payload)
            except ProtocolError:
                return len(repr(payload).encode("utf-8"))

        return payload_size

    def signer_for(self, keyring: KeyRing, party: PartyId):
        """The signing handle a party's context should carry."""
        return keyring.handle_for(party)

    def memo(self, key: object, build):
        """Memoized ``build()`` — the null cache always rebuilds."""
        return build()

    #: The matrices the offline kernel draws random instances into
    #: (:class:`~repro.matching.kernel.InstanceBuffers`); ``None`` makes
    #: every instance allocate its own.
    instance_buffers: InstanceBuffers | None = None


class ExecutionCache(NullExecutionCache):
    """Shared memoization for a batch of runs.

    One instance is scoped to one batch (the engine builds a fresh one
    per sweep), so cached values never leak across unrelated workloads
    and memory is reclaimed when the batch ends.  That includes the
    matrices the offline kernel draws its random instances into
    (:attr:`instance_buffers`): one set per batch, grown to its largest
    instance, so consecutive instances reuse warm pages.  Like the memos,
    a cache serves one thread at a time.

    The heart is one identity-keyed ``value -> canonical bytes`` memo
    (:class:`~repro.crypto.encoding.EncodeMemo`) threaded through
    :func:`repro.crypto.encoding.encode`'s recursion: byte accounting,
    signing, and verification all draw from it, so shared payload
    *substructures* (interned party ids, a signature embedded in a
    relay wrapper, a profile list inside an echo) encode once per batch
    even when the enclosing payloads differ.  Signatures and
    verification verdicts then key by the **canonical bytes** — bytes
    equality is exact (the encoding is injective), so cross-type value
    equality (``True == 1``) can never alias cache entries, and the
    memo-shared bytes objects make those lookups cheap (bytes cache
    their own hash).
    """

    def __init__(self) -> None:
        self._bytes = EncodeMemo()
        self._sizes = SizeMemo()
        self._signatures: dict[tuple, Signature] = {}
        self._verdicts: dict[tuple, bool] = {}
        self._memo: dict[object, object] = {}
        # Hit/miss counters per memo family — the bench subsystem reads
        # these through stats(); the increments are trivially cheap next
        # to the HMAC/encode work they stand in for.
        self._sign_hits = 0
        self._sign_misses = 0
        self._verify_hits = 0
        self._verify_misses = 0
        self._memo_hits = 0
        self._memo_misses = 0
        # Reused by every random instance of the batch, freed with it.
        self.instance_buffers = InstanceBuffers()

    # -- canonical bytes ---------------------------------------------------------

    def encode(self, payload: object) -> bytes:
        """Canonical encoding through the shared memo."""
        return encode(payload, self._bytes)

    def encode_memo(self) -> EncodeMemo:
        return self._bytes

    def payload_size(self, payload: object) -> int:
        """Byte accounting through the batch-shared size-only memo.

        Sizing no longer routes through the byte encoder: only payloads
        that are actually signed or verified build canonical bytes (in
        :meth:`sign`/:meth:`verify` through ``self._bytes``), so the
        accounting walk for never-signed traffic is pure arithmetic.
        """
        try:
            return self._sizes.size(payload)
        except ProtocolError:
            return len(repr(payload).encode("utf-8"))

    def sizer(self):
        """Byte accounting through the batch-shared memo (no per-run memo)."""
        return self.payload_size

    # -- signatures --------------------------------------------------------------

    def sign(self, keyring: KeyRing, signer: PartyId, payload: object) -> Signature:
        """``signer``'s signature over ``payload``, memoized per ring by
        the payload's canonical bytes.

        A fresh signature also pre-seeds the verification memo: HMAC is
        deterministic, so a signature this cache just produced verifies
        by construction — recipients reach the verdict through
        :meth:`verify` (via :class:`CachedSigner`) without ever paying
        the HMAC recomputation, not even once.
        """
        try:
            encoded = self.encode(payload)
        except ProtocolError:
            return keyring._sign_as(signer, payload)
        key = (id(keyring), signer, encoded)
        signature = self._signatures.get(key)
        if signature is None:
            self._sign_misses += 1
            signature = keyring._sign_as(signer, payload, encoded=encoded)
            self._signatures[key] = signature
            self._verdicts[(id(keyring), signer, encoded, signature.tag)] = True
        else:
            self._sign_hits += 1
        return signature

    def verify(
        self, keyring: KeyRing, signer: PartyId, payload: object, signature: object
    ) -> bool:
        """Public verification, memoized per ring by canonical bytes."""
        if not isinstance(signature, Signature) or signature.signer != signer:
            return False  # same cheap rejections the keyring applies
        try:
            encoded = self.encode(payload)
        except ProtocolError:
            return keyring.verify(signer, payload, signature)
        key = (id(keyring), signer, encoded, signature.tag)
        verdict = self._verdicts.get(key)
        if verdict is None:
            self._verify_misses += 1
            verdict = keyring.verify(signer, payload, signature, encoded=encoded)
            self._verdicts[key] = verdict
        else:
            self._verify_hits += 1
        return verdict

    def signer_for(self, keyring: KeyRing, party: PartyId) -> "CachedSigner":
        return CachedSigner(self, keyring, party)

    # -- warm state (persistent / cross-process seeding) ---------------------------

    def warm_values(self, values: Sequence[object]) -> None:
        """Pre-encode and pre-size a snapshot of canonical values.

        The values come from :meth:`EncodeMemo.snapshot` (possibly
        pickled across a process or host boundary); warming replays them
        through the normal encode and size walks, so it can only pre-pay
        work, never corrupt it.
        """
        bytes_memo = self._bytes
        size_memo = self._sizes
        for value in values:
            encode(value, bytes_memo)
            size_memo.size(value)

    def signature_snapshot(self, rings: Mapping[object, KeyRing]) -> dict:
        """Persistable signature entries, grouped by the callers' ring labels.

        ``rings`` maps a stable label (the engine uses ``k`` — key rings
        are deterministic per ``k``) to the ring object; entries for
        rings not in the mapping are skipped.  Each entry is
        ``(signer, canonical bytes, tag)`` — everything needed to
        re-key the memo in another process.
        """
        labels = {id(ring): label for label, ring in rings.items()}
        grouped: dict[object, list] = {}
        for (ring_id, signer, encoded), signature in self._signatures.items():
            label = labels.get(ring_id)
            if label is not None:
                grouped.setdefault(label, []).append((signer, encoded, signature.tag))
        return {label: tuple(entries) for label, entries in grouped.items()}

    def restore_signatures(self, rings: Mapping[object, KeyRing], snapshot: Mapping) -> None:
        """Warm the sign/verify memos from a :meth:`signature_snapshot`.

        Sound under the same determinism that makes the memos correct in
        the first place: ring key material is a pure function of the
        ring's seed and parties, and HMAC is deterministic, so a
        snapshotted tag is exactly what re-signing would produce.  The
        disk layer versions snapshots by a code fingerprint
        (:func:`repro.runtime.diskcache.cache_version`), so entries from
        a different encoding or signing scheme never reach here.
        """
        for label, entries in snapshot.items():
            ring = rings.get(label)
            if ring is None:
                continue
            ring_id = id(ring)
            signatures = self._signatures
            verdicts = self._verdicts
            for signer, encoded, tag in entries:
                signatures.setdefault((ring_id, signer, encoded), Signature(signer, tag))
                verdicts.setdefault((ring_id, signer, encoded, tag), True)

    # -- generic memoization ------------------------------------------------------

    def memo(self, key: object, build):
        """``build()`` memoized under ``key`` (for pure, immutable values)."""
        try:
            value = self._memo.get(key)
        except TypeError:
            return build()
        if value is None:
            self._memo_misses += 1
            value = build()
            self._memo[key] = value
        else:
            self._memo_hits += 1
        return value

    # -- introspection -------------------------------------------------------------

    @staticmethod
    def _family(hits: int, misses: int, entries: int) -> dict:
        total = hits + misses
        return {
            "entries": entries,
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }

    def stats(self) -> dict:
        """Hit/miss statistics per memo family (plain JSON-ready dict).

        ``encode`` reports entry counts only — the identity-map fast
        path is too hot to count on, and its sharing shows up in the
        signature/verification hit rates anyway.
        """
        return {
            "signatures": self._family(
                self._sign_hits, self._sign_misses, len(self._signatures)
            ),
            "verifications": self._family(
                self._verify_hits, self._verify_misses, len(self._verdicts)
            ),
            "memo": self._family(self._memo_hits, self._memo_misses, len(self._memo)),
            "solvability": self._solvability_family(),
            "encode": self._bytes.entry_counts(),
            "size": self._sizes.entry_counts(),
        }

    @staticmethod
    def _solvability_family() -> dict:
        """The verdict memo's counters, shaped like the other families.

        Unlike the batch-scoped families above this memo is
        *process-global* (an unbounded ``lru_cache`` on the pure
        oracle), so within one process every cache reports the same
        numbers; across parallel workers each process reports its own.
        """
        from repro.core.solvability import solvability_cache_stats

        counters = solvability_cache_stats()
        return ExecutionCache._family(
            counters["hits"], counters["misses"], counters["entries"]
        )


def merge_cache_stats(per_worker: Sequence[Mapping]) -> dict:
    """Aggregate several :meth:`ExecutionCache.stats` dicts into one.

    The parallel executor runs one cache per worker shard; callers see
    the sweep-level view: hits/misses/entries summed per memo family
    (hit rates recomputed over the sums), encode-memo entry counts
    summed, and the untouched per-worker dicts preserved under
    ``"workers"`` so shard-level behavior (a cold shard, a skewed
    chunking) stays diagnosable from the same JSON.
    """
    merged: dict = {
        family: {"entries": 0, "hits": 0, "misses": 0}
        for family in ("signatures", "verifications", "memo", "solvability")
    }
    encode_totals: dict[str, int] = {}
    size_totals: dict[str, int] = {}
    for stats in per_worker:
        for family, sums in merged.items():
            table = stats.get(family, {})
            for key in ("entries", "hits", "misses"):
                sums[key] += int(table.get(key, 0))
        for key, count in stats.get("encode", {}).items():
            encode_totals[key] = encode_totals.get(key, 0) + int(count)
        for key, count in stats.get("size", {}).items():
            size_totals[key] = size_totals.get(key, 0) + int(count)
    for sums in merged.values():
        total = sums["hits"] + sums["misses"]
        sums["hit_rate"] = round(sums["hits"] / total, 4) if total else 0.0
    merged["encode"] = encode_totals
    merged["size"] = size_totals
    merged["workers"] = [dict(stats) for stats in per_worker]
    return merged


#: The shared null cache (stateless, safe to reuse everywhere).
NO_CACHE = NullExecutionCache()


class CachedSigner:
    """A drop-in :class:`~repro.crypto.signatures.SigningHandle` that
    routes signing and verification through an :class:`ExecutionCache`.

    Like the real handle it is bound to one identity — the cache cannot
    be used to sign as anyone else, so the unforgeability argument of
    :mod:`repro.crypto.signatures` is unchanged.
    """

    def __init__(self, cache: ExecutionCache, ring: KeyRing, owner: PartyId) -> None:
        self._cache = cache
        self._ring = ring
        self.owner = owner

    def sign(self, payload: object) -> Signature:
        """Sign ``payload`` as the owning party."""
        return self._cache.sign(self._ring, self.owner, payload)

    def verify(self, signer: PartyId, payload: object, signature: object) -> bool:
        """Verify any party's signature (PKI lookup)."""
        return self._cache.verify(self._ring, signer, payload, signature)
