"""The ``repro bench`` subcommand and the legacy-script entry point.

``repro bench`` is the whole perf surface behind one verb:

* ``repro bench --list`` — the catalog, with tiers and legacy names;
* ``repro bench --all | --suite smoke | CASE ...`` — run cases, print
  summaries, and emit one schema-versioned ``BENCH_<case>.json`` per
  case (``--out DIR``);
* ``--compare baseline.json --max-regress 1.5`` — gate the run against
  a recorded baseline and exit nonzero on regression or missing cases;
* ``--write-baseline PATH`` — distill the run into a new baseline.

Exit codes: 0 = everything green; 1 = a case check failed or the
baseline gate tripped; 2 = usage error.  ``legacy_main`` backs the thin
``benchmarks/bench_*.py`` shims (``--quick``/``--full``/``--scale``)
and needs nothing outside the standard library plus ``repro`` itself —
in particular, no pytest.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.bench.compare import (
    DEFAULT_MAX_REGRESS,
    baseline_from_results,
    compare_results,
)
from repro.bench.registry import SUITES, TIERS, all_cases, bench_case, suite_tier
from repro.bench.result import BenchResult
from repro.bench.runner import BenchRunner
from repro.errors import BenchError

__all__ = ["add_bench_arguments", "cmd_bench", "legacy_main"]


def add_bench_arguments(bench: argparse.ArgumentParser) -> None:
    """Attach the bench flags to an (already created) subparser."""
    bench.add_argument("cases", nargs="*", metavar="CASE", help="case names to run")
    bench.add_argument("--list", action="store_true", help="list the catalog and exit")
    bench.add_argument("--all", action="store_true", help="run every registered case")
    bench.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default=None,
        help="run every case at the suite's tier (smoke=quick)",
    )
    bench.add_argument(
        "--tier",
        choices=TIERS,
        default=None,
        help="workload size (default: quick, or the suite's tier)",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the pool-backed executor axis "
        "(parallel; default: the usable cores)",
    )
    bench.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="time each executor phase N times round-robin and keep the "
        "minimum (drift/position-bias control for committed numbers)",
    )
    bench.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="directory for BENCH_<case>.json files (default: .)",
    )
    bench.add_argument(
        "--no-json", action="store_true", help="skip writing BENCH_<case>.json files"
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="gate the run against a baseline JSON (exit 1 on regression)",
    )
    bench.add_argument(
        "--max-regress",
        type=float,
        default=DEFAULT_MAX_REGRESS,
        metavar="FACTOR",
        help=f"allowed wall-clock ratio vs baseline (default {DEFAULT_MAX_REGRESS})",
    )
    bench.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="distill this run into a new baseline JSON",
    )


def _print_catalog() -> None:
    print("registered bench cases (tiers: quick | full | scale):")
    for case in all_cases():
        executors = "harness-driven" if case.harness else ",".join(case.executors)
        legacy = f"  [was {case.legacy_script}]" if case.legacy_script else ""
        print(f"  {case.name:28s} {case.title}{legacy}")
        print(f"  {'':28s}   executors: {executors}")
    suites = ", ".join(f"{name} (tier {tier})" for name, tier in sorted(SUITES.items()))
    print(f"\nsuites: {suites}")


def _selected_cases(args) -> list[str] | None:
    """Case names to run, or None for a usage error (already reported)."""
    if args.all or args.suite:
        if args.cases:
            print("error: name cases OR use --all/--suite, not both", file=sys.stderr)
            return None
        return [case.name for case in all_cases()]
    if not args.cases:
        print(
            "error: bench needs case names, --all, --suite, or --list "
            "(see repro bench --list)",
            file=sys.stderr,
        )
        return None
    return list(args.cases)


def cmd_bench(args) -> int:
    """The ``repro bench`` handler (see module docstring for exit codes)."""
    if args.list:
        _print_catalog()
        return 0
    names = _selected_cases(args)
    if names is None:
        return 2
    if args.max_regress <= 0:
        print(
            f"error: --max-regress must be positive, got {args.max_regress:g}",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}", file=sys.stderr)
        return 2
    tier = args.tier or (suite_tier(args.suite) if args.suite else "quick")

    baseline = None
    if args.compare:
        from repro.io import load

        try:
            baseline = load(args.compare, format="bench-baseline")
        except (OSError, BenchError) as exc:
            print(f"error: cannot load baseline {args.compare}: {exc}", file=sys.stderr)
            return 2

    runner = BenchRunner(tier=tier, workers=args.workers, repeat=args.repeat)
    results: list[BenchResult] = []
    try:
        cases = [bench_case(name) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for case in cases:
        result = runner.run(case)
        results.append(result)
        print(result.summary())
        for failure in result.failures:
            print(f"    check failed: {failure}")

    comparison = None
    if baseline is not None:
        comparison = compare_results(results, baseline, max_regress=args.max_regress)
        if not args.no_json:
            # Embed before/after context so committed BENCH_*.json files
            # carry the trajectory, not just the current point.
            by_case = {row.case: row for row in comparison.rows}
            for index, result in enumerate(results):
                row = by_case.get(result.case)
                if row is not None and row.status not in ("new", "missing"):
                    results[index] = result.with_baseline(
                        {
                            "source": args.compare,
                            "wall_seconds": row.baseline_seconds,
                            "ratio": row.ratio,
                            "status": row.status,
                        }
                    )

    if not args.no_json:
        from repro.io import dump

        os.makedirs(args.out, exist_ok=True)
        for result in results:
            path = os.path.join(args.out, f"BENCH_{result.case}.json")
            dump(result, path)
        print(f"\n{len(results)} BENCH_<case>.json file(s) written to {args.out}")

    if args.write_baseline:
        from repro.io import dump

        dump(baseline_from_results(results), args.write_baseline, format="bench-baseline")
        print(f"baseline written to {args.write_baseline}")

    failed_checks = [result for result in results if not result.ok]
    if comparison is not None:
        print()
        print(comparison.render())
    if failed_checks:
        print(
            f"\nFAIL: {len(failed_checks)} case(s) red: "
            + ", ".join(result.case for result in failed_checks),
            file=sys.stderr,
        )
        return 1
    if comparison is not None and not comparison.ok:
        return 1
    return 0


def legacy_main(case_name: str, argv: Sequence[str] | None = None) -> int:
    """Back-compat entry point for ``python benchmarks/bench_<case>.py``.

    Thin forwarding to the registry: parse the historical size flags,
    run the case, print the summary and metrics.  Never imports pytest.
    """
    case = bench_case(case_name)
    parser = argparse.ArgumentParser(
        description=f"{case.title} (registry case {case.name!r}; "
        "prefer `python -m repro bench`)"
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true", help="CI smoke size")
    group.add_argument("--full", action="store_true", help="the legacy standalone size")
    group.add_argument("--scale", action="store_true", help="stress size")
    parser.add_argument("--json", default=None, metavar="PATH", help="dump BENCH JSON here")
    args = parser.parse_args(argv)
    # Standalone runs default to the legacy (full) size; --quick matches
    # the old CI flag.
    tier = "quick" if args.quick else ("scale" if args.scale else "full")

    result = BenchRunner(tier=tier).run(case)
    print(result.summary())
    for name, seconds in result.phases:
        print(f"  {name:24s} {seconds:8.3f}s")
    if result.metrics:
        print("  metrics:")
        for key in sorted(result.metrics):
            print(f"    {key:40s} {result.metrics[key]:g}")
    for failure in result.failures:
        print(f"  check failed: {failure}", file=sys.stderr)
    if args.json:
        from repro.io import dump

        dump(result, args.json)
        print(f"  result written to {args.json}")
    return 0 if result.ok else 1
