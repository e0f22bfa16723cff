"""bsm_byzantine_grid: every solvable Table-1 cell under byzantine faults.

One pass is one ``Session.sweep(..., executor="batch")`` call over the
whole spec list (silent and equivocating adversaries), i.e. one shared
batch cache.  Every pass's records must hash to the same digest as an
untimed ``serial``-executor reference, and every solvable cell must
come out ``ok``.

BENCHMARK.json does not list this workload (see
:data:`perfbench.catalog.EXTRA_WORKLOADS`): run it by name for its
traced per-layer split of a batch sweep.
"""

from __future__ import annotations

import time

from perfbench import common, layers, setup_probe
from perfbench.catalog import GRID
from perfbench.spans import Tracer

#: Passes needed for 1000 record-latency samples (run_p99_ms).
MIN_PASSES = 3


def _arrival_sink(log: common.ArrivalLog):
    from repro.experiment.sinks import RecordSink

    class ArrivalSink(RecordSink):
        def _accept(self, batch) -> None:
            log.note(len(batch))

    return ArrivalSink()


def _pass(session, spec_list, tracer: Tracer | None = None):
    """One timed sweep: ``(wall seconds, arrival log, record set)``."""
    common.collect_garbage()
    if tracer is not None:
        layers.install(tracer)
    try:
        log = common.ArrivalLog()
        sink = _arrival_sink(log)
        if tracer is None:
            records = session.sweep(spec_list, sink=sink)
        else:
            with tracer.span(layers.ROOT):
                records = session.sweep(spec_list, sink=sink)
        wall = time.perf_counter() - log.start
    finally:
        if tracer is not None:
            tracer.restore()
    return wall, log, records


def _check(records, reference: str) -> int:
    """Failed runs in one pass: everything on a digest mismatch, else
    the records that are not ``ok``."""
    if common.records_digest(records) != reference:
        return len(records)
    return sum(1 for record in records if not (record.solvable and record.ok))


def run(seed: int, seconds: float, trace: bool) -> dict:
    setup_s, components = common.probe_setup(GRID, seed)
    from repro import Session

    spec_list = setup_probe.warm(GRID, seed)
    session = Session(executor="batch")

    walls: list[float] = []
    traced: list[tuple[float, Tracer, object]] = []
    logs: list[common.ArrivalLog] = []
    results = []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds or len(walls) < (1 if trace else MIN_PASSES):
        wall, log, records = _pass(session, spec_list)
        walls.append(wall)
        logs.append(log)
        results.append(records)
        if trace:
            tracer = Tracer()
            wall, _, records = _pass(session, spec_list, tracer)
            traced.append((wall, tracer, records))
            results.append(records)
    peak_rss = common.self_peak_rss_mb()

    reference = common.records_digest(Session(executor="serial").sweep(spec_list))
    failed = sum(_check(records, reference) for records in results)
    attempted = sum(len(records) for records in results)

    if trace:
        metrics = common.setup_layers(components)
        metrics.update(_layers(traced, walls))
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "detail": {"passes": len(walls), "traced_passes": len(traced)}}

    latency = common.record_latencies(logs)
    metrics = {
        "setup_s": setup_s,
        "sweep_s": common.median(walls),
        "first_record_s": common.median([log.first for log in logs]),
        "peak_resident_records": max(len(records) for records in results),
        "peak_rss_mb": peak_rss,
        "req_per_s": attempted / sum(walls),
        "run_p50_ms": latency["run_p50_ms"],
        "run_p99_ms": latency["run_p99_ms"],
        "sweep_p50_ms": common.median([log.last * 1000.0 for log in logs]),
        "success_ratio": 1.0 - failed / attempted,
    }
    detail = {"passes": len(walls), "specs": len(spec_list), "run_samples": latency["run_samples"],
              "run_tail_percentile": latency["run_tail_percentile"], "setup": components}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}


def _layers(traced, untraced_walls: list[float]) -> dict:
    """Per-layer metrics: per-pass means over the traced passes."""
    seconds, spans, calls = layers.mean_spans([tracer for _, tracer, _ in traced])
    traced_wall = common.median([wall for wall, _, _ in traced])
    records = traced[-1][2]
    stats = records.cache_stats
    out = layers.span_metrics(seconds, spans, calls)
    out.update(layers.cache_metrics(stats))
    out.update({
        "runtime.messages": sum(record.messages for record in records),
        "runtime.bytes": sum(record.bytes for record in records),
        "crypto.size_share": seconds.get("crypto.size", 0.0) / traced_wall,
        "trace.overhead_ratio": traced_wall / common.median(untraced_walls),
        "trace.traced_wall_s": traced_wall,
    })
    return out
