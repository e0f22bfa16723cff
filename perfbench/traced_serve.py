"""``repro serve`` with the benchmark's layer spans installed.

Run as ``python3 -m perfbench.traced_serve SPANS_JSON <repro serve
arguments>`` from the checkout root.  Boots the service through the
same CLI entry point as ``python3 -m repro serve``; SIGUSR1 forgets the
spans gathered so far (the benchmark sends it after warming up), and on
exit the spans are written to SPANS_JSON as self time, whole-span time
and call counts per layer.
"""

from __future__ import annotations

import json
import signal
import sys

from perfbench import layers
from perfbench.spans import Tracer


def main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install(tracer, service=True)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
    from repro.cli import main as cli_main

    try:
        code = cli_main(["serve", *serve_args])
    finally:
        tracer.restore()
        spans = {"self": tracer.self_seconds(), "span": tracer.span_seconds(),
                 "calls": dict(tracer.calls())}
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(spans, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
