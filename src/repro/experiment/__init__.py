"""The experiment layer: declarative scenarios, a batch engine, one façade.

This package is the public face of the library for anything beyond a
single hand-wired run:

* :mod:`repro.experiment.spec` — :class:`ScenarioSpec` and friends:
  declarative, JSON-round-trippable descriptions of runs and
  :class:`Sweep` batches;
* :mod:`repro.experiment.records` — the columnar
  :class:`RunRecordSet` a sweep returns, with aggregation and CSV/JSON
  export;
* :mod:`repro.experiment.engine` — :class:`Engine` (one chunked
  execution core: in-process, process pool, or worker hosts, with
  memoized verdicts and keyrings) and
  :class:`Session`, the façade every CLI command, benchmark, and
  example routes through;
* :mod:`repro.experiment.presets` — named sweeps covering the paper's
  table and figures plus new workloads (equivocation, the solvability
  frontier, roommates, offline ensembles);
* :mod:`repro.experiment.sinks` — streaming :class:`RecordSink`
  consumers (memory, NDJSON append/spill, incremental aggregation)
  that :func:`sweep_into` and :func:`stream_sweep` write into, so
  ensembles scale past memory;
* :mod:`repro.experiment.compat` — deprecation shims for the old
  free-function surface.
"""

from repro.experiment.engine import (
    EXECUTORS,
    Engine,
    Session,
    execute_spec,
    stream_sweep,
    sweep_into,
)
from repro.experiment.presets import PRESETS, preset, preset_names
from repro.experiment.records import COLUMNS, RunRecord, RunRecordSet, column_value
from repro.experiment.sinks import (
    AggregateSink,
    MemorySink,
    NdjsonSink,
    NullSink,
    RecordSink,
    SpillSink,
    StreamSink,
    TeeSink,
)
from repro.experiment.spec import (
    AdversarySpec,
    ExecutorSpec,
    LinkSpec,
    ProfileSpec,
    ScenarioSpec,
    Sweep,
    worst_case_corruption,
)

__all__ = [
    "ScenarioSpec",
    "ProfileSpec",
    "AdversarySpec",
    "LinkSpec",
    "ExecutorSpec",
    "Sweep",
    "RunRecord",
    "RunRecordSet",
    "Engine",
    "Session",
    "EXECUTORS",
    "execute_spec",
    "stream_sweep",
    "sweep_into",
    "COLUMNS",
    "column_value",
    "RecordSink",
    "MemorySink",
    "StreamSink",
    "NdjsonSink",
    "SpillSink",
    "AggregateSink",
    "TeeSink",
    "NullSink",
    "PRESETS",
    "preset",
    "preset_names",
    "worst_case_corruption",
]
