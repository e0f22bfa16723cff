"""Command-line interface: ``python -m repro <command>``.

Every command routes through the experiment façade
(:class:`repro.experiment.Session`), so the CLI, the benchmarks, and
library callers share one execution path and its caches.

Commands:

* ``solve`` — query the solvability oracle for one setting;
* ``run`` — execute a bSM protocol end to end and print the verdict;
* ``trace`` — replay one bSM run with kernel tracing and export the
  structured round trace as JSONL;
* ``sweep`` — execute a preset (or grid) batch on a serial, batched,
  or process-pool executor and print/export the aggregates;
* ``attack`` — run one of the paper's impossibility constructions;
* ``table`` — print the full characterization table for a given ``k``;
* ``bench`` — the registry-driven benchmark harness: list cases, run
  suites, emit ``BENCH_<case>.json``, and gate against a baseline
  (see :mod:`repro.bench`);
* ``conform`` — the conformance harness: seeded scenario fuzzing with
  differential oracles, adversary strategy search, and counterexample
  shrinking into replayable repro files (see :mod:`repro.conform`);
* ``serve`` — boot the async matching service plane: specs in over
  HTTP/JSON, records out (streamed as NDJSON for sweeps), behind
  admission control (see :mod:`repro.serve`);
* ``lattice`` — report an instance's rotation poset and stable-matching
  lattice: rotations, enumeration, distinguished matchings, disjoint
  families (see :mod:`repro.rotations`);
* ``ensemble`` — run random-instance ensembles through the streaming
  record path and gate the measured rank/count statistics against the
  Mertens/mean-field asymptotics (see :mod:`repro.ensembles`);
* ``worker`` — serve sweep chunks over stdio so this process can be a
  remote end of the ``hosts`` executor (see :mod:`repro.runtime.remote`).
"""

from __future__ import annotations

import argparse
import sys

from repro.adversary.mutators import MUTATORS
from repro.core.problem import Setting
from repro.errors import ReproError
from repro.experiment.engine import (
    EXECUTORS,
    OUT_OF_PROCESS_EXECUTORS,
    POOLED_EXECUTORS,
    Session,
)
from repro.experiment.presets import preset_names
from repro.experiment.spec import AdversarySpec, ProfileSpec, ScenarioSpec
from repro.net.topology import TOPOLOGY_NAMES
from repro.runtime import RUNTIME_NAMES

__all__ = ["main", "build_parser"]

ADVERSARY_CHOICES = ("none", "silent", "noise", "crash", "honest", "equivocate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Byzantine Stable Matching (PODC 2025) — protocols and attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_setting_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--topology", choices=TOPOLOGY_NAMES, required=True)
        p.add_argument("--auth", action="store_true", help="assume a PKI (signatures)")
        p.add_argument("--k", type=int, required=True, help="side size")
        p.add_argument("--tl", type=int, required=True, help="corruption budget in L")
        p.add_argument("--tr", type=int, required=True, help="corruption budget in R")

    solve = sub.add_parser("solve", help="query the characterization oracle")
    add_setting_args(solve)

    def add_run_args(p: argparse.ArgumentParser) -> None:
        add_setting_args(p)
        p.add_argument("--seed", type=int, default=0, help="preference profile seed")
        p.add_argument("--adversary", choices=ADVERSARY_CHOICES, default="none")
        p.add_argument(
            "--corrupt",
            nargs="*",
            default=[],
            metavar="PARTY",
            help="parties to corrupt, e.g. L0 R2",
        )
        p.add_argument(
            "--mutator",
            default="reverse_even",
            metavar="NAME",
            help="canned equivocation mutator (with --adversary equivocate): "
            f"one of {', '.join(sorted(MUTATORS))}, or a '+'-composition "
            "like swap_adjacent+drop_odd",
        )
        p.add_argument("--recipe", default=None, help="force a protocol recipe")
        p.add_argument(
            "--runtime",
            choices=RUNTIME_NAMES,
            default="lockstep",
            help="execution runtime (all runtimes give identical results)",
        )

    run = sub.add_parser("run", help="execute a bSM protocol end to end")
    add_run_args(run)
    run.add_argument("--json", default=None, metavar="PATH", help="dump the report as JSON")

    trace = sub.add_parser(
        "trace", help="replay one run and export the kernel's JSONL round trace"
    )
    add_run_args(trace)
    trace.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSONL trace here (default: stdout)",
    )

    sweep = sub.add_parser(
        "sweep", help="execute a batch of scenarios through the engine"
    )
    sweep.add_argument(
        "--preset",
        choices=preset_names(),
        default=None,
        help="a named sweep (see --list)",
    )
    sweep.add_argument(
        "--list", action="store_true", help="list available presets and exit"
    )
    sweep.add_argument(
        "--spec-json",
        default=None,
        metavar="PATH",
        help="load the sweep from a JSON file written by Sweep.to_json",
    )
    sweep.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="how to execute (default: serial)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size for the parallel executor (default: the usable "
        "cores; with no --executor, implies --executor parallel)",
    )
    sweep.add_argument(
        "--warm-cache",
        action="store_true",
        help="parallel/hosts executors only: warm worker caches from a "
        "seed of the parent's encode-memo tables (and the on-disk "
        "cache when REPRO_CACHE_DIR is set)",
    )
    sweep.add_argument(
        "--hosts",
        nargs="+",
        default=None,
        metavar="HOST",
        help="shard the sweep across worker endpoints ('local', "
        "'ssh:user@box', 'cmd:...', 'http://host:port'); implies "
        "--executor hosts",
    )
    sweep.add_argument("--json", default=None, metavar="PATH", help="export records as JSON")
    sweep.add_argument("--csv", default=None, metavar="PATH", help="export records as CSV")
    sweep.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="export every run's kernel round trace as one JSONL file "
        "(in-process executors only)",
    )

    attack = sub.add_parser("attack", help="run an impossibility construction")
    attack.add_argument("lemma", choices=["lemma5", "lemma7", "lemma13"])

    table = sub.add_parser("table", help="print the characterization table")
    table.add_argument("--k", type=int, default=3)

    sub.add_parser("paper", help="print the paper-to-code map")

    bench = sub.add_parser(
        "bench", help="run registry benchmarks and gate against baselines"
    )
    from repro.bench.cli import add_bench_arguments

    add_bench_arguments(bench)

    conform = sub.add_parser(
        "conform",
        help="conformance harness: fuzz scenarios, check oracles, shrink repros",
    )
    from repro.conform.cli import add_conform_arguments

    add_conform_arguments(conform)

    serve = sub.add_parser(
        "serve", help="boot the async matching service (HTTP/JSON in, records out)"
    )
    from repro.serve.cli import add_serve_arguments

    add_serve_arguments(serve)

    lattice = sub.add_parser(
        "lattice",
        help="report an instance's rotation poset and stable-matching lattice",
    )
    from repro.rotations.cli import add_lattice_arguments

    add_lattice_arguments(lattice)

    ensemble = sub.add_parser(
        "ensemble",
        help="random-instance ensembles gated against matching theory",
    )
    from repro.ensembles.cli import add_ensemble_arguments

    add_ensemble_arguments(ensemble)

    sub.add_parser(
        "worker",
        help="serve sweep chunks over stdio for the hosts executor "
        "(see repro.runtime.remote)",
    )

    return parser


def _cmd_solve(args) -> int:
    setting = Setting(args.topology, args.auth, args.k, args.tl, args.tr)
    verdict = Session().solve(setting)
    print(f"setting : {setting.describe()}")
    print(f"solvable: {verdict.solvable}")
    print(f"theorem : {verdict.theorem}")
    print(f"reason  : {verdict.reason}")
    if verdict.recipe:
        print(f"recipe  : {verdict.recipe}")
    return 0


def _spec_from_args(args) -> ScenarioSpec | None:
    """The bSM spec described by run/trace-style arguments (None = usage error)."""
    adversary = None
    if args.adversary != "none":
        if not args.corrupt:
            print("error: --adversary requires --corrupt PARTY [PARTY ...]", file=sys.stderr)
            return None
        if args.adversary == "equivocate":
            from repro.adversary.mutators import resolve_mutator
            from repro.errors import AdversaryError

            try:
                resolve_mutator(args.mutator)
            except AdversaryError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return None
        adversary = AdversarySpec(
            kind=args.adversary,
            corrupt=tuple(args.corrupt),
            seed=args.seed,
            mutator=args.mutator if args.adversary == "equivocate" else None,
        )
    return ScenarioSpec(
        topology=args.topology,
        authenticated=args.auth,
        k=args.k,
        tL=args.tl,
        tR=args.tr,
        profile=ProfileSpec(seed=args.seed),
        adversary=adversary,
        recipe=args.recipe,
        runtime=args.runtime,
    )


def _cmd_run(args) -> int:
    spec = _spec_from_args(args)
    if spec is None:
        return 2
    report = Session().report(spec)
    print(report.summary())
    print("outputs:")
    for party in sorted(report.result.outputs):
        partner = report.result.outputs[party]
        print(f"  {party} -> {partner if partner is not None else 'nobody'}")
    if not report.ok:
        print("VIOLATIONS:")
        for violation in report.report.violations:
            print(f"  {violation}")
    if args.json:
        from repro.io import dump

        dump(report, args.json)
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    spec = _spec_from_args(args)
    if spec is None:
        return 2
    report, recorder = Session().trace(spec)
    if args.out:
        from repro.io import dump

        dump(recorder, args.out)
        print(report.summary())
        print(f"{len(recorder)} trace events written to {args.out}")
    else:
        sys.stdout.write(recorder.to_jsonl())
    return 0 if report.ok else 1


def _cmd_sweep(args) -> int:
    if args.list:
        print("available presets:")
        for name in preset_names():
            print(f"  {name}")
        return 0
    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    executor = args.executor
    if args.hosts is not None:
        if executor is not None and executor != "hosts":
            print(
                f"error: --hosts conflicts with --executor {executor}",
                file=sys.stderr,
            )
            return 2
        if args.workers is not None:
            print(
                "error: --workers does not apply to --hosts "
                "(each host endpoint is one worker)",
                file=sys.stderr,
            )
            return 2
        executor = "hosts"
    elif executor == "hosts":
        print("error: --executor hosts needs --hosts HOST [HOST ...]", file=sys.stderr)
        return 2
    if executor is None:
        # Workers demand the pool when no executor is named.
        executor = "parallel" if args.workers else "serial"
    elif args.workers and executor not in POOLED_EXECUTORS:
        # An explicitly named in-process executor cannot honor workers:
        # reject rather than silently running a different plane.
        print(
            "error: --workers needs a pool-backed executor "
            f"({' or '.join(POOLED_EXECUTORS)}), not --executor {executor}",
            file=sys.stderr,
        )
        return 2
    if args.warm_cache and executor not in ("parallel", "hosts"):
        print(
            "error: --warm-cache only applies to --executor parallel or hosts",
            file=sys.stderr,
        )
        return 2
    recorder = None
    if args.trace_out:
        if executor in OUT_OF_PROCESS_EXECUTORS:
            print(
                "error: --trace-out needs an in-process executor "
                "(--executor serial or batch, no --workers)",
                file=sys.stderr,
            )
            return 2
        from repro.runtime import TraceRecorder

        recorder = TraceRecorder()
    if executor == "hosts":
        from repro.experiment.spec import ExecutorSpec

        session = Session(
            executor=ExecutorSpec(
                name="hosts", hosts=tuple(args.hosts), warm_cache=args.warm_cache
            )
        )
    else:
        session = Session(
            executor=executor, workers=args.workers, warm_cache=args.warm_cache
        )
    if args.spec_json:
        from repro.io import load

        try:
            sweep = load(args.spec_json, format="sweep")
        except (OSError, ValueError, KeyError, ReproError) as exc:
            print(f"error: cannot load sweep from {args.spec_json}: {exc}", file=sys.stderr)
            return 2
        label = args.spec_json
    elif args.preset:
        sweep = session.preset(args.preset)
        label = args.preset
    else:
        print("error: sweep needs --preset, --spec-json, or --list", file=sys.stderr)
        return 2
    records = session.sweep(sweep, trace=recorder)
    print(f"sweep {label}: {records.summary()}")
    print("\naggregates (by family, topology, crypto):")
    for row in records.aggregate(by=("family", "topology", "authenticated")):
        crypto = "auth" if row["authenticated"] else "unauth"
        print(
            f"  {row['family']:10s} {row['topology'] or '-':16s} {crypto:6s} "
            f"runs={row['runs']:4d} ok={row['ok']:4d} "
            f"mean_rounds={row['mean_rounds']:.1f} mean_msgs={row['mean_messages']:.0f}"
        )
    if args.json:
        from repro.io import dump

        dump(records, args.json)
        print(f"\nrecords written to {args.json}")
    if args.csv:
        from repro.io import records_to_csv

        records_to_csv(records, args.csv)
        print(f"\nCSV written to {args.csv}")
    if recorder is not None:
        from repro.io import dump

        dump(recorder, args.trace_out)
        print(f"\n{len(recorder)} trace events written to {args.trace_out}")
    failures = records.failures
    if failures:
        print("\nUNEXPECTED FAILURES:")
        for record in failures:
            print(f"  {record.scenario}: {record.violations}")
    return 0 if not failures else 1


def _cmd_attack(args) -> int:
    report = Session().attack(args.lemma)
    print(report.summary())
    return 0 if report.any_violation else 1


def _cmd_table(args) -> int:
    k = args.k
    session = Session()
    print(f"bSM solvability for k={k} ('#' solvable, '.' not; rows tL=0..{k}, cols tR=0..{k})")
    for topology in TOPOLOGY_NAMES:
        for auth in (False, True):
            crypto = "auth  " if auth else "unauth"
            print(f"\n{topology} / {crypto}")
            header = "     " + " ".join(f"tR={tR}" for tR in range(k + 1))
            print(header)
            for tL in range(k + 1):
                cells = []
                for tR in range(k + 1):
                    verdict = session.solve(Setting(topology, auth, k, tL, tR))
                    cells.append("  # " if verdict.solvable else "  . ")
                print(f"tL={tL}" + " ".join(cells))
    return 0


def _cmd_paper(args) -> int:
    from repro.paper import render_map

    print(render_map())
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.cli import cmd_bench

    return cmd_bench(args)


def _cmd_conform(args) -> int:
    from repro.conform.cli import cmd_conform

    return cmd_conform(args)


def _cmd_serve(args) -> int:
    from repro.serve.cli import cmd_serve

    return cmd_serve(args)


def _cmd_lattice(args) -> int:
    from repro.rotations.cli import cmd_lattice

    return cmd_lattice(args)


def _cmd_ensemble(args) -> int:
    from repro.ensembles.cli import cmd_ensemble

    return cmd_ensemble(args)


def _cmd_worker(args) -> int:
    from repro.runtime.remote import worker_main

    return worker_main()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "sweep": _cmd_sweep,
        "attack": _cmd_attack,
        "table": _cmd_table,
        "paper": _cmd_paper,
        "bench": _cmd_bench,
        "conform": _cmd_conform,
        "serve": _cmd_serve,
        "lattice": _cmd_lattice,
        "ensemble": _cmd_ensemble,
        "worker": _cmd_worker,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
