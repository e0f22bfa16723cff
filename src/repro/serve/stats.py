"""Service observability: per-endpoint latency histograms and counters.

``GET /statz`` is assembled from here: uptime, request/error/shed
counts per endpoint, latency percentiles, and the merged
:class:`~repro.runtime.ExecutionCache` statistics of every sweep the
service has executed.  Everything is a running total: histograms use
fixed exponential buckets (powers of two in milliseconds) so they cost
O(1) per observation and a few dozen integers per endpoint no matter
how long the service lives — percentiles are estimated from bucket
upper bounds, which is the standard trade for a long-running plane —
and cache statistics are folded into one merged view per execution.
"""

from __future__ import annotations

import time

from repro.runtime import merge_cache_stats

__all__ = ["LatencyHistogram", "EndpointStats", "ServiceStats"]

#: Bucket upper bounds in milliseconds: 1, 2, 4, ... 2^19 (~8.7 min),
#: plus a final overflow bucket.
_BUCKET_MS = tuple(float(1 << exp) for exp in range(20))


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimation."""

    def __init__(self) -> None:
        self.counts = [0] * (len(_BUCKET_MS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        self.count += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms
        for index, bound in enumerate(_BUCKET_MS):
            if ms <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def percentile(self, q: float) -> float:
        """The upper bound (ms) of the bucket holding the ``q``-quantile."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= target and bucket:
                return _BUCKET_MS[index] if index < len(_BUCKET_MS) else self.max_ms
        return self.max_ms

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": round(self.sum_ms / self.count, 3) if self.count else 0.0,
            "max_ms": round(self.max_ms, 3),
            "p50_ms": self.percentile(0.50),
            "p99_ms": self.percentile(0.99),
            # Sparse bucket view: only the occupied buckets, keyed by
            # their upper bound, so /statz stays small.
            "buckets_ms": {
                ("inf" if index >= len(_BUCKET_MS) else f"{_BUCKET_MS[index]:g}"): bucket
                for index, bucket in enumerate(self.counts)
                if bucket
            },
        }


class EndpointStats:
    """Counters plus a latency histogram for one endpoint."""

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.shed = 0
        self.latency = LatencyHistogram()

    def observe(self, status: int, seconds: float) -> None:
        self.requests += 1
        if status == 503:
            self.shed += 1
        elif status >= 400:
            self.errors += 1
        self.latency.observe(seconds)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "shed": self.shed,
            "latency": self.latency.to_dict(),
        }


def _fold(stats: list[dict]) -> dict:
    """Merged cache statistics without the per-worker breakdown, whose
    entries (whole merged views, for a fold) would nest without bound."""
    merged = merge_cache_stats(stats)
    del merged["workers"]
    return merged


class ServiceStats:
    """Everything ``/statz`` reports, accumulated across requests."""

    def __init__(self) -> None:
        self.started_at = time.monotonic()
        self.endpoints: dict[str, EndpointStats] = {}
        self.records_served = 0
        self.executions = 0
        self._cache = _fold([])

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        self.endpoints.setdefault(endpoint, EndpointStats()).observe(status, seconds)

    def observe_cache(self, stats: dict) -> None:
        """Fold one execution's cache statistics into the running totals
        (an empty dict — the serial plane shares no cache — counts no
        execution)."""
        if not stats:
            return
        self.executions += 1
        self._cache = _fold([self._cache, stats])

    def to_dict(self) -> dict:
        return {
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "records_served": self.records_served,
            "executions": self.executions,
            "cache": self._cache,
            "endpoints": {
                name: stats.to_dict() for name, stats in sorted(self.endpoints.items())
            },
        }
