"""What the benchmark measures: workloads, seeds and metrics.

This module is the single source of truth for the benchmark's
vocabulary.  ``BENCHMARK.json`` at the repository root mirrors the
names, units, directions and bounds declared here (``test_perfbench``
checks that the two agree); the extra fields kept only here are the
seeds, the reason each workload exists, what each end-to-end metric
means on each workload, and which end-to-end metric each per-layer
metric is expected to move.
"""

from __future__ import annotations

#: The workload seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

#: A seed reserved for validating later performance claims: never use
#: it while developing a change, only to confirm the change afterwards.
HELDOUT_SEED = 9001

GRID = "bsm_byzantine_grid"
ENSEMBLE = "ensemble_stream"
SERVE = "serve_closed_loop"

#: The workloads BENCHMARK.json lists, with why each was chosen.
WORKLOADS: dict[str, str] = {
    ENSEMBLE: (
        "Offline Gale-Shapley on random instances, n in 250..2000, streamed "
        "into a spilling NDJSON sink by a process pool: matching kernel, "
        "sharding, IPC and sink writes."
    ),
    SERVE: (
        "repro serve under two closed-loop keep-alive clients running Table-1 "
        "cells with byzantine faults, 9 in 10 requests /v1/run, the rest 16-spec "
        "/v1/sweep streams: HTTP, protocol, crypto."
    ),
}

#: Workloads the driver runs but BENCHMARK.json does not gate on.
#:
#: bsm_byzantine_grid is the paper's Table 1 under byzantine faults in one
#: shared-cache batch: the workload whose traced run splits a sweep's
#: wall time across crypto, protocol, runtime and experiment layers.  Its
#: wall clock is too unsteady on a shared 2-vCPU host to gate on: over
#: ten seeds the interquartile spread of sweep_s reached 0.25 of the
#: median (passes of the same seed in one process ranged 6.3-9.1 s),
#: against 0.05 for the service.
EXTRA_WORKLOADS: dict[str, str] = {
    GRID: (
        "Every solvable Table-1 cell, k in 2..4, under silent and equivocate "
        "adversaries in one batch sweep: protocol rounds, kernel delivery, "
        "byte accounting and signatures."
    ),
}

# -- end-to-end metrics --------------------------------------------------------
#
# Every workload reports every end-to-end metric.  A "sweep call" is one
# Session call on the in-process workloads and one /v1/sweep request on
# the service; a "run" is one scenario's record reaching the caller.

END_TO_END: list[dict] = [
    {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
        "means": "median over five fresh set-ups of import, warm-up, native "
        "lane load, pool spawn and server boot (whichever the workload uses)",
    },
    {
        "name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.25,
        "means": "median wall time of one pass over the workload's fixed "
        "list of specs (grid, ensemble) or requests (service)",
    },
    {
        "name": "first_record_s", "unit": "s", "better": "lower", "bound": 0.25,
        "means": "median time from the start of a sweep call until its "
        "first record reaches the caller",
    },
    {
        "name": "peak_resident_records", "unit": "count", "better": "lower",
        "bound": 0.1,
        "means": "most records the calling process holds at once: the "
        "returned set (grid), the largest chunk plus SpillSink residency "
        "(ensemble), the largest response body (service)",
    },
    {
        "name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2,
        "means": "high-water RSS of the process doing the work (the "
        "server's VmHWM for the service)",
    },
    {
        "name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
        "means": "operations completed per measured second: scenario runs "
        "(grid, ensemble) or HTTP requests (service)",
    },
    {
        "name": "run_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
        "means": "median run latency: the /v1/run round trip on the "
        "service; elsewhere the time from a pass's start until a run's "
        "record arrives, as the median over passes of each pass's median",
    },
    {
        "name": "run_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25,
        "means": "99th percentile of the same samples (per pass, median over "
        "passes, in-process); below 1000 samples in the run, the highest "
        "percentile with ten samples beyond it (the detail line says which)",
    },
    {
        "name": "sweep_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
        "means": "median time from the start of a sweep call until its last "
        "record arrives",
    },
    {
        "name": "success_ratio", "unit": "ratio", "better": "higher",
        "bound": 0.01,
        "means": "1 - failed/attempted; failed counts every wrong record, "
        "digest mismatch and non-200 response (the issue's failed_ratio, "
        "flipped so that a clean run is not 0)",
    },
]

# -- per-layer metrics ---------------------------------------------------------
#
# Every ``*_s`` layer time below is SELF time (span minus nested child
# spans), so on each workload the layer times plus ``experiment.other_s``
# add up to ``trace.traced_wall_s``.  ``moves`` lists the (end-to-end
# metric, workload) pairs the layer is expected to move.

_G, _E, _S = GRID, ENSEMBLE, SERVE


def _layer(name: str, unit: str, better: str, moves: list[tuple[str, str]]) -> dict:
    return {"name": name, "unit": unit, "better": better, "moves": moves}


_SETUP = [("setup_s", _G), ("setup_s", _E), ("setup_s", _S)]
_CRYPTO = [("sweep_s", _G), ("run_p50_ms", _S), ("sweep_s", _S)]
_KERNEL = [("sweep_s", _G), ("sweep_s", _S)]
_MATCH = [("sweep_s", _E), ("first_record_s", _E)]
_STREAM = [("sweep_s", _E)]
_SINK = [("peak_resident_records", _E), ("peak_rss_mb", _E), ("sweep_s", _E)]
_SERVE = [("run_p50_ms", _S), ("sweep_p50_ms", _S), ("req_per_s", _S)]

PER_LAYER: list[dict] = [
    _layer("setup.import_s", "s", "lower", _SETUP),
    _layer("setup.warm_s", "s", "lower", _SETUP),
    _layer("setup.native_s", "s", "lower", _SETUP),
    _layer("setup.pool_spawn_s", "s", "lower", [("setup_s", _E)]),
    _layer("setup.server_boot_s", "s", "lower", [("setup_s", _S)]),
    _layer("crypto.size_s", "s", "lower", _CRYPTO),
    _layer("crypto.size_calls", "count", "lower", _CRYPTO),
    _layer("crypto.size_share", "ratio", "lower", _CRYPTO),
    _layer("crypto.encode_s", "s", "lower", _CRYPTO),
    _layer("crypto.encode_calls", "count", "lower", _CRYPTO),
    _layer("crypto.sign_s", "s", "lower", _CRYPTO),
    _layer("crypto.sign_calls", "count", "lower", _CRYPTO),
    _layer("crypto.verify_s", "s", "lower", _CRYPTO),
    _layer("crypto.verify_calls", "count", "lower", _CRYPTO),
    _layer("crypto.keyring_verify_s", "s", "lower", _CRYPTO),
    _layer("crypto.keyring_verify_calls", "count", "lower", _CRYPTO),
    _layer("cache.sign_hit_ratio", "ratio", "higher", _KERNEL),
    _layer("cache.sign_attempts", "count", "lower", _KERNEL),
    _layer("cache.verify_hit_ratio", "ratio", "higher", _KERNEL),
    _layer("cache.verify_attempts", "count", "lower", _KERNEL),
    _layer("cache.memo_hit_ratio", "ratio", "higher", _KERNEL),
    _layer("cache.memo_attempts", "count", "lower", _KERNEL),
    _layer("protocol.on_round_s", "s", "lower", _CRYPTO),
    _layer("protocol.on_round_calls", "count", "lower", _CRYPTO),
    _layer("adversary.step_s", "s", "lower", _CRYPTO),
    _layer("adversary.step_calls", "count", "lower", _CRYPTO),
    _layer("runtime.run_many_s", "s", "lower", _KERNEL),
    _layer("runtime.kernel_self_s", "s", "lower", _KERNEL),
    _layer("runtime.rounds", "count", "lower", _KERNEL),
    _layer("runtime.messages", "count", "lower", _KERNEL),
    _layer("runtime.bytes", "bytes", "lower", _KERNEL),
    _layer("matching.instance_s", "s", "lower", _MATCH),
    _layer("matching.instance_calls", "count", "lower", _MATCH),
    _layer("matching.proposals", "count", "lower", _MATCH),
    _layer("matching.profile_build_s", "s", "lower", _KERNEL),
    _layer("experiment.compile_s", "s", "lower", _KERNEL),
    _layer("experiment.finish_s", "s", "lower", _KERNEL),
    _layer("experiment.other_s", "s", "lower", _KERNEL),
    _layer("experiment.chunks", "count", "lower",
           [("first_record_s", _E), ("peak_resident_records", _E)]),
    _layer("experiment.max_chunk_gap_s", "s", "lower", _STREAM),
    _layer("experiment.worker_cpu_s", "s", "lower", _STREAM),
    _layer("experiment.worker_utilization", "ratio", "higher", _STREAM),
    _layer("experiment.decode_s", "s", "lower", _STREAM),
    _layer("experiment.decode_calls", "count", "lower", _STREAM),
    _layer("sink.write_s", "s", "lower", _SINK),
    _layer("sink.records", "count", "lower", _SINK),
    _layer("sink.archive_bytes", "bytes", "lower", _SINK),
    _layer("sink.peak_resident", "count", "lower", _SINK),
    _layer("checkpoint.update_s", "s", "lower", _SINK),
    _layer("checkpoint.updates", "count", "lower", _SINK),
    _layer("serve.run_server_mean_ms", "ms", "lower", _SERVE),
    _layer("serve.sweep_server_mean_ms", "ms", "lower", _SERVE),
    _layer("serve.transport_ms", "ms", "lower", _SERVE),
    _layer("serve.server_cpu_s", "s", "lower", _SERVE),
    _layer("serve.server_utilization", "ratio", "higher", _SERVE),
    _layer("serve.shed", "count", "lower", _SERVE + [("success_ratio", _S)]),
    _layer("serve.errors", "count", "lower", _SERVE + [("success_ratio", _S)]),
    _layer("trace.overhead_ratio", "ratio", "lower", []),
    _layer("trace.traced_wall_s", "s", "lower", []),
]

END_TO_END_NAMES = [metric["name"] for metric in END_TO_END]
PER_LAYER_NAMES = [metric["name"] for metric in PER_LAYER]
UNITS = {metric["name"]: metric["unit"] for metric in END_TO_END + PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document this catalog describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {key: metric[key] for key in ("name", "unit", "better", "bound")}
            for metric in END_TO_END
        ],
        "per_layer": [
            {key: metric[key] for key in ("name", "unit", "better")}
            for metric in PER_LAYER
        ],
    }
