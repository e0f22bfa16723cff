"""One fresh set-up of an in-process workload, timed by component.

Run as ``python3 -m perfbench.setup_probe <workload> <seed>`` from the
checkout root with its ``src`` on ``PYTHONPATH``; prints one JSON object of seconds
per component.  The interpreter's own start-up is not counted: the
clock starts before the first import of the library.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import concurrent.futures  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def warm(workload: str, seed: int) -> list:
    """Build the workload's specs and fill the process-level caches its
    passes rely on (solvability verdicts and key rings, or the kernel)."""
    from perfbench import specs

    if workload == "ensemble_stream":
        from repro.matching.kernel import random_instance_stats

        random_instance_stats(16, seed)
        return specs.ensemble_specs(seed)
    from repro.experiment.engine import cached_keyring, cached_verdict

    spec_list = specs.grid_specs(seed)
    for spec in spec_list:
        cached_verdict(spec.setting())
        if spec.authenticated:
            cached_keyring(spec.k)
    return spec_list


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    timings = {}
    import repro  # noqa: F401

    timings["import_s"] = time.perf_counter() - _START

    started = time.perf_counter()
    from repro.matching import _native

    _native.load()
    timings["native_s"] = time.perf_counter() - started

    started = time.perf_counter()
    warm(workload, seed)
    timings["warm_s"] = time.perf_counter() - started

    if workload == "ensemble_stream":
        started = time.perf_counter()
        workers = len(os.sched_getaffinity(0))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(abs, range(workers)))
        timings["pool_spawn_s"] = time.perf_counter() - started

    print(json.dumps(timings, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
