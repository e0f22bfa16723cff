"""The ``repro ensemble`` subcommand: run / check.

* ``repro ensemble run --tier quick`` — execute a random-instance
  ensemble through the streaming record path and print the measured
  observables next to the theory values.  Exit 0 unless the run
  itself fails.
* ``repro ensemble check`` — same measurement, gated: every observable
  must sit inside its Mertens/mean-field tolerance band.  Violations
  are written as conform-style repro files (``--repro-dir``) keyed to
  a representative instance spec, and the exit code is 1.  ``--out``
  archives the deterministic report JSON either way.

Both accept ``--tier quick|full|scale`` presets or an explicit grid
(``--n``, ``--seeds``, ``--count-n``, ``--count-seeds``).  The full
and scale tiers stream through a spill sink by default so peak
resident records stay bounded; ``--spill``/``--spill-path`` override.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Optional, Sequence

from repro.errors import ReproError

__all__ = ["add_ensemble_arguments", "cmd_ensemble", "TIER_PRESETS"]

#: Tier presets: (ns, seed count, count ns, count-seed count, spill threshold).
#: quick fits a CI smoke budget; full is the acceptance-grade ensemble
#: (n>=500 x >=200 seeds, spill engaged); scale pushes n to 1000.
TIER_PRESETS = {
    "quick": {"ns": (100,), "seeds": 12, "count_ns": (32,), "count_seeds": 8, "spill": None},
    "full": {"ns": (500,), "seeds": 200, "count_ns": (64, 128), "count_seeds": 20, "spill": 64},
    "scale": {"ns": (1000,), "seeds": 100, "count_ns": (128,), "count_seeds": 10, "spill": 64},
}


def add_ensemble_arguments(ensemble: argparse.ArgumentParser) -> None:
    """Attach the ensemble sub-subcommands to an (already created) subparser."""
    sub = ensemble.add_subparsers(dest="ensemble_command", required=True)

    def add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tier", choices=sorted(TIER_PRESETS), default="quick",
            help="grid preset (default: quick); explicit flags override",
        )
        p.add_argument(
            "--n", type=int, nargs="*", default=None, metavar="N",
            help="instance sizes for the rank sweep (overrides the tier)",
        )
        p.add_argument(
            "--seeds", type=int, default=None, metavar="S",
            help="seeds per size: instances are seeds 0..S-1 (overrides the tier)",
        )
        p.add_argument(
            "--count-n", type=int, nargs="*", default=None, metavar="N",
            help="instance sizes for stable-matching counting (overrides the tier)",
        )
        p.add_argument(
            "--count-seeds", type=int, default=None, metavar="S",
            help="sampled instances per counting size (overrides the tier)",
        )
        p.add_argument(
            "--workers", type=int, default=None,
            help="pool size for the rank sweep (default: the usable cores)",
        )
        p.add_argument(
            "--batch-size", type=int, default=128, metavar="B",
            help="records per execution slice on the in-process path (default: 128)",
        )
        p.add_argument(
            "--spill", type=int, default=None, metavar="T",
            help="spill records to NDJSON past this resident threshold "
            "(default: tier-dependent; 0 disables)",
        )
        p.add_argument(
            "--spill-path", default=None, metavar="PATH",
            help="NDJSON spill archive (default: a temp file, removed afterwards)",
        )
        p.add_argument(
            "--out", default=None, metavar="PATH",
            help="archive the (deterministic) ensemble report JSON here",
        )

    run = sub.add_parser("run", help="measure ensemble observables vs theory")
    add_grid_args(run)

    check = sub.add_parser(
        "check", help="gate ensemble observables against the theory bands"
    )
    add_grid_args(check)
    check.add_argument(
        "--repro-dir", default="ensemble-repros", metavar="DIR",
        help="write violation repro files here (default: ensemble-repros)",
    )


def _resolve_grid(args) -> dict:
    preset = TIER_PRESETS[args.tier]
    ns = tuple(args.n) if args.n else preset["ns"]
    seeds = args.seeds if args.seeds is not None else preset["seeds"]
    count_ns = tuple(args.count_n) if args.count_n is not None else preset["count_ns"]
    count_seeds = (
        args.count_seeds if args.count_seeds is not None else preset["count_seeds"]
    )
    spill = args.spill if args.spill is not None else preset["spill"]
    if spill == 0:
        spill = None
    if seeds < 1:
        raise ReproError(f"--seeds must be >= 1, got {seeds}")
    return {
        "ns": ns,
        "seeds": range(seeds),
        "count_ns": count_ns,
        "count_seeds": range(count_seeds),
        "spill_threshold": spill,
    }


def _print_report(report) -> None:
    print(report.summary())
    for obs in report.observables:
        data = obs.to_dict()
        print(
            f"  n={obs.n:5d} runs={obs.runs:5d}  "
            f"proposer rank {obs.mean_proposer_rank:8.3f} "
            f"(theory {data['theory_proposer_rank']:.3f})  "
            f"receiver rank {obs.mean_receiver_rank:8.3f} "
            f"(theory {data['theory_receiver_rank']:.3f})"
        )
    for obs in report.counts:
        data = obs.to_dict()
        print(
            f"  n={obs.n:5d} samples={obs.samples:4d}  "
            f"stable matchings mean {obs.mean_count:8.3f} "
            f"range [{obs.min_count}, {obs.max_count}] "
            f"(asymptotic {data['theory_asymptotic']:.3f})"
        )
    for hist in report.histograms:
        total = sum(count for _, count in hist.counts) or 1
        peak = max((count for _, count in hist.counts), default=1)
        bars = " ".join(
            f"{start:.2f}:{'#' * max(1, round(8 * count / peak))}"
            for start, count in hist.counts
        )
        print(
            f"  n={hist.n:5d} {hist.metric:13s} "
            f"({total} runs, bin {hist.bin_width}): {bars}"
        )
    for violation in report.violations:
        print(f"  VIOLATION [{violation.oracle}] {violation.scenario}: {violation.message}")


def _write_repros(report, repro_dir: str) -> list[str]:
    """Wrap each violation in a replayable conform repro file.

    The spec recorded is a representative instance (seed 0 at the
    violation's size) — ensemble statistics have no single offending
    run, but the representative re-executes the exact model under test.
    """
    from repro.conform.harness import ReproFile
    from repro.ensembles.generators import random_instance_spec
    from repro.ensembles.observables import ORACLE_NAME
    from repro.io import dump

    os.makedirs(repro_dir, exist_ok=True)
    paths: list[str] = []
    for index, violation in enumerate(report.violations):
        # Scenario names look like "ensemble/n500" or "ensemble/n128/counts".
        size = None
        for part in violation.scenario.split("/"):
            if part.startswith("n") and part[1:].isdigit():
                size = int(part[1:])
        spec = random_instance_spec(size if size else 2, 0)
        repro = ReproFile(
            oracle=ORACLE_NAME,
            spec=spec,
            original=spec,
            violations=(violation,),
            seed=0,
        )
        path = os.path.join(repro_dir, f"repro_{ORACLE_NAME}_{index}.json")
        dump(repro, path)
        paths.append(path)
    return paths


def _run_check(args, *, gate: bool) -> int:
    from repro.ensembles.observables import run_ensemble_check

    try:
        grid = _resolve_grid(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spill_path = args.spill_path
    temp_spill = None
    if grid["spill_threshold"] is not None and spill_path is None:
        fd, temp_spill = tempfile.mkstemp(suffix=".ndjson", prefix="ensemble-spill-")
        os.close(fd)
        spill_path = temp_spill
    try:
        report = run_ensemble_check(
            ns=grid["ns"],
            seeds=grid["seeds"],
            count_ns=grid["count_ns"],
            count_seeds=grid["count_seeds"],
            workers=args.workers,
            batch_size=args.batch_size,
            spill_threshold=grid["spill_threshold"],
            spill_path=spill_path,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if temp_spill is not None and os.path.exists(temp_spill):
            os.unlink(temp_spill)
    _print_report(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {args.out}")
    if not gate:
        return 0
    if not report.ok:
        try:
            paths = _write_repros(report, args.repro_dir)
        except OSError as exc:
            print(
                f"error: cannot write repro files to {args.repro_dir}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"{len(paths)} repro file(s) written to {args.repro_dir}:")
        for path in paths:
            print(f"  {os.path.basename(path)}")
        return 1
    return 0


def _cmd_run(args) -> int:
    return _run_check(args, gate=False)


def _cmd_check(args) -> int:
    return _run_check(args, gate=True)


def cmd_ensemble(args) -> int:
    """The ``repro ensemble`` handler (see the module docstring for exit codes)."""
    handlers = {
        "run": _cmd_run,
        "check": _cmd_check,
    }
    return handlers[args.ensemble_command](args)
