"""Helpers shared by the workloads: statistics, environment, digests."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Scratch space for archives and checkpoints, inside the checkout.
SCRATCH = Path(".perfbench-tmp")


def cores() -> int:
    """Usable cores: the affinity mask, not the machine's CPU count."""
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` on the
    path and the persistent disk cache off (every run starts cold)."""
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_DIR", None)
    return env


def scratch_dir(prefix: str) -> str:
    """A fresh temporary directory under :data:`SCRATCH`."""
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()  # only when no other run is using it
    except OSError:
        pass


# -- statistics ----------------------------------------------------------------


def tail_rank(count: int, target: float = 99.0, beyond: int = 10) -> float:
    """The percentile to report as a tail: ``target`` when at least
    ``beyond`` samples lie past it, else the highest whole percentile
    that still has ``beyond`` samples past it (0 for tiny samples)."""
    if count <= beyond:
        return 0.0
    best = math.floor(100.0 * (count - beyond) / count)
    return float(min(target, best))


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: list[float], target: float = 99.0) -> tuple[float, float]:
    """``(percentile used, value)`` under the ten-samples-beyond rule."""
    pct = tail_rank(len(samples), target)
    return pct, percentile(samples, pct) if pct else max(samples)


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def collect_garbage() -> None:
    """Start a pass from a collected heap.

    Repeating passes in one process leaves the previous pass's cycles
    for the collector; where a full collection then lands inside the
    next pass varied its time by up to a second on the grid.  Collecting
    first makes every pass start from the same heap, as a fresh call
    would.
    """
    gc.collect()


# -- digests and process facts -------------------------------------------------


def records_digest(records) -> str:
    """SHA-256 over the records' canonical NDJSON lines."""
    from repro.io.ndjson import record_ndjson_line

    digest = hashlib.sha256()
    for record in records:
        digest.update(record_ndjson_line(record).encode("utf-8"))
    return digest.hexdigest()


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def self_peak_rss_mb() -> float:
    """This process's high-water RSS (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    """CPU time of every reaped child so far (user + system)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def proc_hwm_mb(pid: int) -> float:
    """Another process's ``VmHWM`` from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """Another process's user + system CPU time from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 (utime, stime) sit at 11 and 12 after the comm.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def environment() -> dict:
    """The facts two results must share before they can be compared."""
    from repro.matching import _native

    sha = "unknown"
    if Path(".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": cores(),
        "native_lane": _native.load() is not None,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons two environment blocks must not be compared (empty: fine).

    The pure-python lane is several times slower than the native one at
    n = 2000, and pool workloads scale with the core count, so numbers
    taken under different lane states or core counts are not comparable.
    """
    return [
        f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
        for key in ("native_lane", "cores")
        if a.get(key) != b.get(key)
    ]


def emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)


# -- set-up --------------------------------------------------------------------

#: Fresh set-ups per run; setup_s is their median.
SETUP_REPEATS = 5


def probe_setup(workload: str, seed: int) -> tuple[float, dict]:
    """Time :data:`SETUP_REPEATS` fresh set-ups of an in-process workload.

    Returns the median total and the components of the probe that
    produced it, so the components add up to the reported total.
    """
    probes = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.setup_probe", workload, str(seed)],
            env=child_env(), capture_output=True, text=True, timeout=150,
        )
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()[-800:]}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    probes.sort(key=lambda probe: sum(probe.values()))
    chosen = probes[len(probes) // 2]
    return sum(chosen.values()), chosen


def setup_layers(components: dict) -> dict:
    """Per-layer ``setup.*`` metrics from one set-up's components."""
    return {
        f"setup.{name}": float(components.get(name, 0.0))
        for name in ("import_s", "warm_s", "native_s", "pool_spawn_s", "server_boot_s")
    }


def record_latencies(logs: list["ArrivalLog"]) -> dict:
    """Run-latency metrics of an in-process workload's passes.

    Records arrive in chunks, so a pass's latency percentiles are its
    chunk arrival times; each percentile is taken per pass and the run
    reports its median over passes.  The tail percentile is p99 when the
    run pooled at least 1000 records, else the ten-beyond rule's pick.
    """
    count = sum(len(log.latencies()) for log in logs)
    pct = tail_rank(count)

    def per_pass(q: float) -> float:
        return median([percentile(log.latencies(), q) * 1000.0 for log in logs])

    return {"run_p50_ms": per_pass(50), "run_p99_ms": per_pass(pct),
            "run_samples": count, "run_tail_percentile": pct}


class ArrivalLog:
    """When records reached the caller, relative to a sweep's start."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.chunks: list[tuple[float, int]] = []

    def note(self, count: int) -> None:
        self.chunks.append((time.perf_counter() - self.start, count))

    @property
    def first(self) -> float:
        return self.chunks[0][0]

    @property
    def last(self) -> float:
        return self.chunks[-1][0]

    @property
    def max_gap(self) -> float:
        """Longest wait for a chunk, the first one included."""
        times = [0.0] + [at for at, _ in self.chunks]
        return max(b - a for a, b in zip(times, times[1:]))

    def latencies(self) -> list[float]:
        """One sample per record: its chunk's arrival time."""
        return [at for at, count in self.chunks for _ in range(count)]
