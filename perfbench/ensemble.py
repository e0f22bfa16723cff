"""ensemble_stream: random Gale-Shapley instances streamed to a spilling sink.

One pass is one ``Session.sweep_into`` call over the fixed spec list
with ``workers`` set to the affinity core count, into a ``SpillSink``
over an NDJSON archive with a checkpoint file, closed at the end (the
archive is only complete then).  Every pass's archive must hash to the
same digest as an untimed in-process ``batch`` reference.

Pool workers cannot report spans, so the traced run takes parent-side
layers (sink, checkpoint, decode, chunking, children's CPU) from traced
pool passes and kernel-side layers (``matching.*``) from one traced
1-worker pass over the same specs.
"""

from __future__ import annotations

import os
import time

from perfbench import common, layers, setup_probe, specs
from perfbench.catalog import ENSEMBLE
from perfbench.spans import Tracer


def _spill_sink(log: common.ArrivalLog, path: str):
    from repro.experiment.sinks import SpillSink

    class ArrivalSpillSink(SpillSink):
        def _accept(self, batch) -> None:
            log.note(len(batch))
            super()._accept(batch)

    return ArrivalSpillSink(specs.ENSEMBLE_SPILL_THRESHOLD, path)


def _pass(session, spec_list, workers: int, tracer: Tracer | None = None) -> dict:
    """One timed sweep into a fresh archive; returns what the checks and
    metrics need (the archive is digested and deleted here)."""
    directory = common.scratch_dir("ensemble-")
    archive = os.path.join(directory, "records.ndjson")
    checkpoint = os.path.join(directory, "sweep.ckpt")
    stats: dict = {}
    common.collect_garbage()
    cpu_before = common.children_cpu_s()
    if tracer is not None:
        layers.install(tracer)
    try:
        log = common.ArrivalLog()
        sink = _spill_sink(log, archive)
        if tracer is None:
            count = session.sweep_into(spec_list, sink, workers=workers, stats=stats,
                                       checkpoint=checkpoint)
            sink.close()
        else:
            with tracer.span(layers.ROOT):
                count = session.sweep_into(spec_list, sink, workers=workers, stats=stats,
                                           checkpoint=checkpoint)
                sink.close()
        wall = time.perf_counter() - log.start
    finally:
        if tracer is not None:
            tracer.restore()
    outcome = {
        "wall": wall, "log": log, "count": count, "tracer": tracer,
        "worker_cpu": common.children_cpu_s() - cpu_before,
        "peak_resident": sink.peak_resident,
        "archive_bytes": os.path.getsize(archive),
        "digest": common.file_digest(archive),
        "checkpoint_left": os.path.exists(checkpoint),
        "cache_stats": stats,
    }
    common.remove_dir(directory)
    return outcome


def run(seed: int, seconds: float, trace: bool) -> dict:
    setup_s, components = common.probe_setup(ENSEMBLE, seed)
    from repro import Session

    spec_list = setup_probe.warm(ENSEMBLE, seed)
    workers = common.cores()
    session = Session(executor="parallel", workers=workers)

    passes: list[dict] = []
    traced: list[dict] = []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds or not passes:
        passes.append(_pass(session, spec_list, workers))
        if trace:
            traced.append(_pass(session, spec_list, workers, Tracer()))
    peak_rss = common.self_peak_rss_mb()
    kernel_pass = _pass(session, spec_list, 1, Tracer()) if trace else None

    reference = _pass(Session(executor="batch"), spec_list, 1)["digest"]
    failed = 0
    everything = passes + traced + ([kernel_pass] if kernel_pass else [])
    for outcome in everything:
        if (outcome["digest"] != reference or outcome["count"] != len(spec_list)
                or outcome["checkpoint_left"]):
            failed += len(spec_list)
    attempted = len(spec_list) * len(everything)

    if trace:
        metrics = common.setup_layers(components)
        metrics.update(_layers(traced, kernel_pass, passes, workers))
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "detail": {"passes": len(passes), "traced_passes": len(traced)}}

    logs = [outcome["log"] for outcome in passes]
    walls = [outcome["wall"] for outcome in passes]
    latency = common.record_latencies(logs)
    metrics = {
        "setup_s": setup_s,
        "sweep_s": common.median(walls),
        "first_record_s": common.median([log.first for log in logs]),
        "peak_resident_records": max(outcome["peak_resident"] for outcome in passes),
        "peak_rss_mb": peak_rss,
        "req_per_s": len(spec_list) * len(passes) / sum(walls),
        "run_p50_ms": latency["run_p50_ms"],
        "run_p99_ms": latency["run_p99_ms"],
        "sweep_p50_ms": common.median([log.last * 1000.0 for log in logs]),
        "success_ratio": 1.0 - failed / attempted,
    }
    detail = {"passes": len(passes), "specs": len(spec_list), "workers": workers,
              "run_samples": latency["run_samples"],
              "run_tail_percentile": latency["run_tail_percentile"],
              "chunks_per_pass": len(logs[0].chunks), "setup": components}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}


def _layers(traced: list[dict], kernel_pass: dict, untraced: list[dict], workers: int) -> dict:
    seconds, spans, calls = layers.mean_spans([outcome["tracer"] for outcome in traced])
    out = layers.span_metrics(seconds, spans, calls)
    k_seconds, k_spans, k_calls = layers.mean_spans([kernel_pass["tracer"]])
    kernel = layers.span_metrics(k_seconds, k_spans, k_calls)
    for name in ("matching.instance_s", "matching.instance_calls", "matching.proposals",
                 "matching.profile_build_s"):
        out[name] = kernel[name]
    traced_wall = common.median([outcome["wall"] for outcome in traced])
    worker_cpu = common.median([outcome["worker_cpu"] for outcome in traced])
    last = traced[-1]
    out.update(layers.cache_metrics(last["cache_stats"]))
    out.update({
        "experiment.chunks": common.median([len(outcome["log"].chunks) for outcome in traced]),
        "experiment.max_chunk_gap_s": common.median(
            [outcome["log"].max_gap for outcome in traced]),
        "experiment.worker_cpu_s": worker_cpu,
        "experiment.worker_utilization": worker_cpu / (workers * traced_wall),
        "sink.records": last["count"],
        "sink.archive_bytes": last["archive_bytes"],
        "sink.peak_resident": last["peak_resident"],
        "trace.overhead_ratio": traced_wall / common.median(
            [outcome["wall"] for outcome in untraced]),
        "trace.traced_wall_s": traced_wall,
    })
    return out
