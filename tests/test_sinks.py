"""Tests for the streaming record sinks and the sink-fed engine paths."""

import pytest

from repro.errors import ReproError
from repro.experiment.engine import Session, sweep_into
from repro.experiment.records import RunRecord, RunRecordSet, column_value
from repro.experiment.sinks import (
    AggregateSink,
    MemorySink,
    NdjsonSink,
    NullSink,
    SpillSink,
    StreamSink,
    TeeSink,
)
from repro.experiment.spec import ExecutorSpec, ProfileSpec, ScenarioSpec, Sweep
from repro.io import iter_records_ndjson


def offline_specs(count=6, k=6):
    return tuple(
        ScenarioSpec(
            family="offline",
            algorithm="gale_shapley",
            k=k,
            profile=ProfileSpec(kind="random", seed=seed),
        )
        for seed in range(count)
    )


def make_record(seed=0, *, tags=(), rounds=3, ok=True):
    return RunRecord(
        scenario=f"t/{seed}",
        family="offline",
        k=4,
        seed=seed,
        ok=ok,
        rounds=rounds,
        messages=rounds * 2,
        bytes=rounds * 10,
        tags=tags,
    )


class TestRecordSinkLifecycle:
    def test_counts_and_context_manager(self):
        sink = MemorySink()
        with sink:
            sink.write(make_record(0))
            sink.write_many([make_record(1), make_record(2)])
        assert sink.count == 3
        assert [r.seed for r in sink.records] == [0, 1, 2]

    def test_write_after_close_raises(self):
        sink = MemorySink()
        sink.write(make_record())
        sink.close()
        with pytest.raises(ReproError):
            sink.write(make_record())

    def test_open_is_lazy_and_idempotent(self, tmp_path):
        path = tmp_path / "lazy.ndjson"
        sink = NdjsonSink(path)
        assert not path.exists()  # constructing touches nothing
        sink.open()
        sink.open()
        sink.close()
        assert path.exists()

    def test_empty_batches_are_ignored(self):
        sink = MemorySink()
        sink.write_many([])
        assert sink.count == 0
        assert not sink._opened

    def test_null_sink_counts_and_drops(self):
        sink = NullSink()
        sink.write_many([make_record(0), make_record(1)])
        assert sink.count == 2


class TestStreamAndNdjsonSinks:
    def test_stream_sink_matches_file_dump(self, tmp_path):
        records = [make_record(seed) for seed in range(4)]
        chunks = []
        with StreamSink(chunks.append) as stream:
            stream.write_many(records[:2])
            stream.write_many(records[2:])
        path = tmp_path / "dump.ndjson"
        with NdjsonSink(path) as file_sink:
            file_sink.write_many(records)
        assert "".join(chunks) == path.read_text()

    def test_stream_sink_header_opt_out(self):
        chunks = []
        with StreamSink(chunks.append, header=False) as stream:
            stream.write(make_record())
        assert len(chunks) == 1
        assert '"kind"' not in chunks[0]

    def test_ndjson_sink_appends_and_round_trips(self, tmp_path):
        path = tmp_path / "archive.ndjson"
        with NdjsonSink(path) as sink:
            sink.write_many([make_record(0), make_record(1)])
        with NdjsonSink(path, append=True) as sink:
            sink.write(make_record(2))
            assert sink.bytes_written > 0
        loaded = list(iter_records_ndjson(path))
        assert [r.seed for r in loaded] == [0, 1, 2]


class TestSpillSink:
    def test_below_threshold_stays_resident(self, tmp_path):
        path = tmp_path / "spill.ndjson"
        with SpillSink(10, path) as sink:
            sink.write_many([make_record(s) for s in range(3)])
        assert not sink.engaged
        assert not path.exists()
        assert [r.seed for r in sink.iter_all()] == [0, 1, 2]

    def test_threshold_engages_and_archive_is_complete(self, tmp_path):
        path = tmp_path / "spill.ndjson"
        with SpillSink(4, path) as sink:
            for seed in range(10):
                sink.write(make_record(seed))
        assert sink.engaged
        # Close flushed the tail: disk holds the full stream.
        assert sink.spilled == 10
        assert [r.seed for r in sink.iter_all()] == list(range(10))

    def test_peak_resident_is_bounded_by_envelope(self, tmp_path):
        path = tmp_path / "spill.ndjson"
        batch = 3
        with SpillSink(5, path) as sink:
            for start in range(0, 30, batch):
                sink.write_many([make_record(s) for s in range(start, start + batch)])
        # threshold + largest write batch - 1 is the worst case.
        assert sink.peak_resident <= 5 + batch - 1
        assert sink.count == 30

    def test_threshold_must_be_positive(self, tmp_path):
        with pytest.raises(ReproError):
            SpillSink(0, tmp_path / "x.ndjson")


class TestAggregateSink:
    def run_records(self):
        session = Session()
        return session.sweep(session.preset("smoke"))

    def test_byte_identical_to_aggregate(self):
        records = self.run_records()
        sink = AggregateSink(by=("topology", "authenticated"))
        sink.write_many(records)
        assert sink.to_json() == records.aggregate_json(
            by=("topology", "authenticated")
        )

    def test_byte_identical_on_lattice_position_column(self):
        records = RunRecordSet(
            records=(
                make_record(0, tags=("lattice_position=l_optimal",)),
                make_record(1, tags=("lattice_position=interior",), rounds=7),
                make_record(2),  # untagged groups under ""
                make_record(3, tags=("lattice_position=interior",), rounds=1),
            )
        )
        by = ("lattice_position",)
        sink = AggregateSink(by=by)
        sink.write_many(records)
        assert sink.to_json() == records.aggregate_json(by=by)
        keys = [row["lattice_position"] for row in sink.summaries()]
        assert keys == ["l_optimal", "interior", ""]

    def test_batch_split_does_not_change_result(self):
        records = self.run_records()
        whole = AggregateSink()
        whole.write_many(records)
        split = AggregateSink()
        for record in records:
            split.write(record)
        assert whole.to_json() == split.to_json()

    def test_tag_counts_and_mean(self):
        sink = AggregateSink(metrics=("rounds",))
        sink.write_many(
            [
                make_record(0, tags=("a", "b"), rounds=2),
                make_record(1, tags=("a",), rounds=4),
            ]
        )
        assert sink.tag_counts["a"] == 2
        assert sink.tag_counts["b"] == 1
        assert sink.mean("rounds") == 3.0

    def test_histograms(self):
        sink = AggregateSink(metrics=("rounds",), bins={"rounds": 2.0})
        sink.write_many([make_record(s, rounds=s) for s in range(6)])
        assert sink.histogram("rounds") == {0.0: 2, 2.0: 2, 4.0: 2}
        with pytest.raises(ReproError):
            sink.histogram("messages")


class TestTeeSink:
    def test_fans_out_and_closes_children(self, tmp_path):
        memory = MemorySink()
        path = tmp_path / "tee.ndjson"
        ndjson = NdjsonSink(path)
        with TeeSink(memory, ndjson) as tee:
            tee.write_many([make_record(0), make_record(1)])
        assert memory.count == 2
        assert ndjson._handle is None  # closed by the tee
        assert [r.seed for r in iter_records_ndjson(path)] == [0, 1]


class TestEngineSinkIntegration:
    def test_sweep_into_equals_sweep(self):
        specs = offline_specs()
        session = Session()
        baseline = session.sweep(Sweep(specs=specs))
        memory = MemorySink()
        count = session.sweep_into(Sweep(specs=specs), memory, batch_size=2)
        assert count == len(specs)
        assert memory.recordset() == baseline

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sweep_into_streams_through_spill(self, tmp_path, workers):
        specs = offline_specs(count=9)
        session = Session()
        baseline = session.sweep(Sweep(specs=specs))
        spill = SpillSink(3, tmp_path / "spill.ndjson")
        with spill:
            sweep_into(specs, spill, workers=workers, batch_size=2)
        assert spill.engaged
        assert spill.peak_resident <= 3 + 2 - 1
        assert RunRecordSet.from_iter(spill.iter_all()) == baseline

    def test_hosts_sweep_into_streams_through_spill(self, tmp_path):
        specs = offline_specs(count=9)
        baseline = Session().sweep(Sweep(specs=specs))
        session = Session(executor=ExecutorSpec(name="hosts", hosts=("local", "local")))
        spill = SpillSink(3, tmp_path / "spill.ndjson")
        with spill:
            session.sweep_into(Sweep(specs=specs), spill, batch_size=2)
        assert spill.engaged
        assert spill.peak_resident <= 3 + 2 - 1
        assert RunRecordSet.from_iter(spill.iter_all()) == baseline

    def test_run_sweep_tees_into_sink(self):
        specs = offline_specs(count=4)
        session = Session()
        memory = MemorySink()
        records = session.sweep(Sweep(specs=specs), sink=memory)
        assert memory.recordset() == records

    def test_sweep_into_aggregate_matches_batch_aggregate(self):
        specs = offline_specs(count=8)
        session = Session()
        baseline = session.sweep(Sweep(specs=specs))
        sink = AggregateSink(by=("k",), metrics=("proposals", "matched"))
        with sink:
            session.sweep_into(Sweep(specs=specs), sink, batch_size=3)
        assert sink.to_json() == baseline.aggregate_json(
            by=("k",), metrics=("proposals", "matched")
        )

    def test_sweep_into_rejects_bad_batch_size(self):
        from repro.errors import SolvabilityError

        with pytest.raises((ReproError, SolvabilityError)):
            sweep_into(offline_specs(count=2), MemorySink(), batch_size=0)


class TestColumnValue:
    def test_virtual_and_plain_columns(self):
        record = make_record(0, tags=("lattice_position=r_optimal",), rounds=5)
        assert column_value(record, "lattice_position") == "r_optimal"
        assert column_value(record, "rounds") == 5

    def test_recordset_column_resolves_virtual(self):
        records = RunRecordSet(
            records=(make_record(0, tags=("lattice_position=interior",)),)
        )
        assert records.column("lattice_position") == ["interior"]
