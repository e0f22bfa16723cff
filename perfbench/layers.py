"""Where the traced run puts its spans: the library's public layer seams.

Every target is patched on the binding its caller actually looks up:
the engine calls ``prepare_bsm``/``finish_bsm`` through its own module
globals, the offline record path imports ``random_instance_stats`` from
the kernel module at call time, and engines bind
``ExecutionCache.payload_size`` (via ``sizer()``) when they are built,
which happens inside the traced pass.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

#: Span name of the benchmark's own root span around each sweep call;
#: its self time is the work no layer below claims (``experiment.other``).
ROOT = "experiment.other"


def _classes_defining(package: str, method: str) -> list[type]:
    """Concrete classes in ``package``'s modules that define ``method``."""
    found = []
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__):
        module = importlib.import_module(f"{package}.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            fn = cls.__dict__.get(method)
            if (
                cls.__module__ == module.__name__
                and fn is not None
                and not getattr(fn, "__isabstractmethod__", False)
            ):
                found.append(cls)
    return found


def install(tracer, *, service: bool = False) -> None:
    """Patch every layer seam with ``tracer``'s wrappers.

    ``service`` also roots spans at the service's execution entry points
    (the thread-pool call behind ``/v1/run`` and the sweep stream), so a
    traced server accounts for its request work the way the in-process
    workloads do around their Session calls.
    """
    from repro.crypto.signatures import KeyRing
    from repro.experiment import engine
    from repro.experiment.checkpoint import SweepCheckpoint
    from repro.experiment.records import RunRecord
    from repro.experiment.sinks import NdjsonSink, SpillSink
    from repro.experiment.spec import ProfileSpec
    from repro.matching import kernel
    from repro.runtime.batch import BatchRuntime
    from repro.runtime.cache import ExecutionCache
    from repro.runtime.kernel import RoundEngine

    tracer.patch(ExecutionCache, "payload_size", "crypto.size")
    tracer.patch(ExecutionCache, "encode", "crypto.encode")
    tracer.patch(ExecutionCache, "sign", "crypto.sign")
    tracer.patch(ExecutionCache, "verify", "crypto.verify")
    tracer.patch(KeyRing, "verify", "crypto.keyring_verify")
    tracer.patch(BatchRuntime, "run_many", "runtime.run_many")
    tracer.patch(RoundEngine, "step_round", "runtime.rounds", counter=True)
    tracer.patch(engine, "prepare_bsm", "experiment.compile")
    tracer.patch(engine, "finish_bsm", "experiment.finish")
    tracer.patch(ProfileSpec, "build", "matching.profile_build")
    tracer.patch(
        kernel,
        "random_instance_stats",
        "matching.instance",
        on_result=lambda t, result: t.count("matching.proposals", result[0]),
    )
    tracer.patch(RunRecord, "from_dict", "experiment.decode")
    for sink in (SpillSink, NdjsonSink):
        # A SpillSink spills through an inner NdjsonSink: one write.
        tracer.patch(sink, "write_many", "sink.write", outermost=True)
    tracer.patch(SweepCheckpoint, "update", "checkpoint.update")
    for package in ("repro.consensus", "repro.core"):
        for cls in _classes_defining(package, "on_round"):
            tracer.patch(cls, "on_round", "protocol.on_round", outermost=True)
    for cls in _classes_defining("repro.adversary", "step"):
        tracer.patch(cls, "step", "adversary.step", outermost=True)
    if service:
        from repro.serve import server

        tracer.patch(server, "_execute_records", ROOT)
        tracer.patch(server, "stream_sweep", ROOT)


# -- turning spans into catalog metrics -------------------------------------------


def mean_spans(tracers: list) -> tuple[dict, dict, dict]:
    """Per-pass means of self times, span times and call counts."""
    count = len(tracers)
    means: tuple[dict, dict, dict] = ({}, {}, {})
    for tracer in tracers:
        for table, source in zip(means, (tracer.self_seconds(), tracer.span_seconds(), tracer.calls())):
            for layer, value in source.items():
                table[layer] = table.get(layer, 0.0) + value / count
    return means


def span_metrics(seconds: dict, spans: dict, calls: dict) -> dict:
    """Layer self times (whole-span time for ``run_many_s``) and call
    counts under their catalog names."""
    out = {
        "crypto.size_s": seconds.get("crypto.size", 0.0),
        "crypto.size_calls": calls.get("crypto.size", 0),
        "crypto.encode_s": seconds.get("crypto.encode", 0.0),
        "crypto.encode_calls": calls.get("crypto.encode", 0),
        "crypto.sign_s": seconds.get("crypto.sign", 0.0),
        "crypto.sign_calls": calls.get("crypto.sign", 0),
        "crypto.verify_s": seconds.get("crypto.verify", 0.0),
        "crypto.verify_calls": calls.get("crypto.verify", 0),
        "crypto.keyring_verify_s": seconds.get("crypto.keyring_verify", 0.0),
        "crypto.keyring_verify_calls": calls.get("crypto.keyring_verify", 0),
        "protocol.on_round_s": seconds.get("protocol.on_round", 0.0),
        "protocol.on_round_calls": calls.get("protocol.on_round", 0),
        "adversary.step_s": seconds.get("adversary.step", 0.0),
        "adversary.step_calls": calls.get("adversary.step", 0),
        "runtime.run_many_s": spans.get("runtime.run_many", 0.0),
        "runtime.kernel_self_s": seconds.get("runtime.run_many", 0.0),
        "runtime.rounds": calls.get("runtime.rounds", 0),
        "matching.instance_s": seconds.get("matching.instance", 0.0),
        "matching.instance_calls": calls.get("matching.instance", 0),
        "matching.proposals": calls.get("matching.proposals", 0),
        "matching.profile_build_s": seconds.get("matching.profile_build", 0.0),
        "experiment.compile_s": seconds.get("experiment.compile", 0.0),
        "experiment.finish_s": seconds.get("experiment.finish", 0.0),
        "experiment.other_s": seconds.get(ROOT, 0.0),
        "experiment.decode_s": seconds.get("experiment.decode", 0.0),
        "experiment.decode_calls": calls.get("experiment.decode", 0),
        "sink.write_s": seconds.get("sink.write", 0.0),
        "checkpoint.update_s": seconds.get("checkpoint.update", 0.0),
        "checkpoint.updates": calls.get("checkpoint.update", 0),
    }
    return out


def cache_metrics(stats: dict) -> dict:
    """Hit ratios (useful outcomes over attempts) with their bases."""
    out = {}
    for family, name in (("signatures", "sign"), ("verifications", "verify"), ("memo", "memo")):
        table = stats.get(family, {})
        attempts = int(table.get("hits", 0)) + int(table.get("misses", 0))
        out[f"cache.{name}_attempts"] = attempts
        out[f"cache.{name}_hit_ratio"] = int(table.get("hits", 0)) / attempts if attempts else 0.0
    return out
