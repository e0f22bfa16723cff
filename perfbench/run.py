"""The repository benchmark: one workload per process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_closed_loop --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed; ``--trace 1`` runs the same workload with timing wrappers
around the library's layer seams and reports the per-layer split
instead.  The last line of standard output is the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

preceded by a line with the environment block and workload details.
``--out FILE`` also saves both as one JSON document, and
``--compare A B`` prints metric ratios between two saved results,
refusing results whose native-lane state or core count differ.  The
exit code is 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save the result document here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two saved result documents and exit")
    return parser.parse_args(argv)


def _compare(paths) -> int:
    from perfbench import common

    first, second = (json.loads(Path(path).read_text()) for path in paths)
    problems = common.comparable(first["environment"], second["environment"])
    if first["workload"] != second["workload"] or first["trace"] != second["trace"]:
        problems.append("different workloads or trace modes")
    if problems:
        common.fail("refusing to compare: " + "; ".join(problems), code=3)
    for name, entry in first["result"]["metrics"].items():
        other = second["result"]["metrics"][name]["value"]
        ratio = other / entry["value"] if entry["value"] else float("nan")
        print(f"{name:34s} {entry['value']:>14.6g} {other:>14.6g} {ratio:8.3f} {entry['unit']}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import catalog, common

    if args.compare:
        return _compare(args.compare)
    known = {**catalog.WORKLOADS, **catalog.EXTRA_WORKLOADS}
    if args.workload not in known:
        common.fail(f"--workload must be one of {sorted(known)}")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        common.fail("no src/repro here: run from the root of a repository checkout")
    os.environ.pop("REPRO_CACHE_DIR", None)  # every run starts cold
    # Build the optional native lane inside the checkout (ignored by git),
    # not in the system temp dir; child processes inherit the setting.
    os.environ["REPRO_NATIVE_DIR"] = str(root / "build" / "native")
    seed = catalog.DEFAULT_SEED if args.seed is None else args.seed

    from perfbench import ensemble, grid, serve

    runner = {catalog.GRID: grid.run, catalog.ENSEMBLE: ensemble.run, catalog.SERVE: serve.run}
    outcome = runner[args.workload](seed, args.seconds, bool(args.trace))

    # Per-layer metrics a workload never exercises read 0; every
    # end-to-end metric must have been measured.
    names = catalog.PER_LAYER_NAMES if args.trace else catalog.END_TO_END_NAMES
    missing = [name for name in names if name not in outcome["metrics"]]
    if missing and not args.trace:
        common.fail(f"workload did not measure {missing}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"].get(name, 0.0), "unit": catalog.UNITS[name]}
            for name in names
        },
    }
    document = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "environment": common.environment(),
        "detail": outcome["detail"],
    }
    common.emit(document)
    if args.out:
        Path(args.out).write_text(json.dumps(dict(document, result=result), indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
