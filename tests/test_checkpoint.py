"""Checkpoint/resume for streaming sweeps (:mod:`repro.experiment.checkpoint`).

The contract under test: kill a checkpointed ``sweep_into`` at any
point, restart it with the same workload, and the NDJSON archive comes
out byte-identical to an uninterrupted run — wherever the kill landed
(mid-write, between a flush and the checkpoint update, or before the
first checkpoint ever hit disk).  Plus the bookkeeping: fingerprint
mismatches start over, completion deletes the checkpoint, and torn
checkpoint files read as no progress.
"""

from __future__ import annotations

import json

import pytest

from repro.experiment import ExecutorSpec, ProfileSpec, ScenarioSpec, Session
from repro.experiment.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.experiment.sinks import MemorySink, NdjsonSink

SESSION = Session()

#: Sessions on every backend of the execution core.
BACKENDS = {
    "serial": lambda: SESSION,
    "batch": lambda: Session(executor="batch"),
    "parallel": lambda: Session(executor="parallel", workers=2),
    "hosts": lambda: Session(
        executor=ExecutorSpec(name="hosts", hosts=("local", "local"))
    ),
}

#: Every kill point on every backend; serial, the reference path, keeps
#: the bare kill-point ids.
KILL_CASES = [
    pytest.param(
        backend,
        fail_after,
        id=str(fail_after) if backend == "serial" else f"{backend}-{fail_after}",
    )
    for backend in BACKENDS
    for fail_after in (0, 2, 5, 9)
]


def _specs(count: int = 10):
    return tuple(
        ScenarioSpec(k=2 + (i % 2), profile=ProfileSpec(seed=i), name=f"s{i}")
        for i in range(count)
    )


def _reference_archive(tmp_path, specs) -> bytes:
    path = tmp_path / "reference.ndjson"
    with NdjsonSink(str(path)) as sink:
        SESSION.sweep_into(specs, sink, batch_size=3)
    return path.read_bytes()


class _KillSink(NdjsonSink):
    """An NDJSON sink whose writer dies after ``fail_after`` records."""

    def __init__(self, path, *, fail_after: int, append: bool = False) -> None:
        super().__init__(path, append=append)
        self.fail_after = fail_after

    def _accept(self, batch) -> None:
        if self.count + len(batch) > self.fail_after:
            keep = self.fail_after - self.count
            super()._accept(batch[:keep])
            self._handle.flush()
            raise KeyboardInterrupt("killed mid-ensemble")
        super()._accept(batch)


class TestKillRestart:
    @pytest.mark.parametrize("backend,fail_after", KILL_CASES)
    def test_resume_is_byte_identical(self, tmp_path, backend, fail_after):
        """Die mid-sweep (even mid-batch), restart, compare archives —
        on every backend, against the serial reference archive."""
        specs = _specs()
        expected = _reference_archive(tmp_path, specs)
        archive = tmp_path / "run.ndjson"
        ckpt = tmp_path / "run.ckpt"
        session = BACKENDS[backend]()

        sink = _KillSink(str(archive), fail_after=fail_after)
        with pytest.raises(KeyboardInterrupt):
            with sink:
                session.sweep_into(
                    specs, sink, batch_size=3, checkpoint=str(ckpt)
                )

        with NdjsonSink(str(archive), append=True) as resumed:
            count = session.sweep_into(
                specs, resumed, batch_size=3, checkpoint=str(ckpt)
            )
        assert archive.read_bytes() == expected
        assert count <= len(specs)  # the resumed call reports the remainder
        assert not ckpt.exists()  # completion removes the checkpoint

    def test_kill_between_flush_and_update(self, tmp_path):
        """Flushed-but-unacknowledged records roll back, not duplicate."""
        specs = _specs(6)
        expected = _reference_archive(tmp_path, specs)
        archive = tmp_path / "run.ndjson"
        ckpt_path = tmp_path / "run.ckpt"

        # Manufacture the race: a complete, flushed archive prefix of 4
        # specs, but a checkpoint that only ever acknowledged 2.
        with NdjsonSink(str(archive)) as sink:
            SESSION.sweep_into(specs[:4], sink, batch_size=2)
        ckpt = SweepCheckpoint(str(ckpt_path), specs)
        with NdjsonSink(str(tmp_path / "probe.ndjson")) as probe:
            SESSION.sweep_into(specs[:2], probe, batch_size=2)
            acknowledged = probe.tell()
        ckpt.update(2, archive_bytes=acknowledged)

        with NdjsonSink(str(archive), append=True) as resumed:
            SESSION.sweep_into(specs, resumed, batch_size=2, checkpoint=str(ckpt_path))
        assert archive.read_bytes() == expected

    def test_resume_skips_completed_prefix(self, tmp_path):
        specs = _specs(8)
        archive = tmp_path / "run.ndjson"
        ckpt = tmp_path / "run.ckpt"
        sink = _KillSink(str(archive), fail_after=4)
        with pytest.raises(KeyboardInterrupt), sink:
            SESSION.sweep_into(specs, sink, batch_size=2, checkpoint=str(ckpt))
        state = json.loads(ckpt.read_text())
        assert state["completed"] == 4
        assert state["fingerprint"] == sweep_fingerprint(specs)
        # The resumed sweep executes only the pending suffix.
        executed = []
        with NdjsonSink(str(archive), append=True) as resumed:
            original = NdjsonSink.write_many

            def spy(self, records):
                executed.extend(r.scenario for r in records)
                return original(self, records)

            NdjsonSink.write_many = spy
            try:
                SESSION.sweep_into(specs, resumed, batch_size=2, checkpoint=str(ckpt))
            finally:
                NdjsonSink.write_many = original
        assert executed and all(name >= "s4" for name in executed)

    def test_different_workload_starts_over(self, tmp_path):
        specs = _specs(6)
        ckpt_path = tmp_path / "run.ckpt"
        SweepCheckpoint(str(ckpt_path), specs).update(4, archive_bytes=100)
        other = _specs(7)
        resumed = SweepCheckpoint(str(ckpt_path), other)
        assert resumed.completed == 0
        assert resumed.archive_bytes is None


class TestCheckpointFile:
    def test_torn_file_reads_as_zero(self, tmp_path):
        specs = _specs(3)
        path = tmp_path / "ckpt"
        path.write_text('{"fingerprint": "x", "compl')
        assert SweepCheckpoint(str(path), specs).completed == 0

    def test_out_of_range_reads_as_zero(self, tmp_path):
        specs = _specs(3)
        path = tmp_path / "ckpt"
        ckpt = SweepCheckpoint(str(path), specs)
        ckpt.update(3)
        data = json.loads(path.read_text())
        data["completed"] = 99
        path.write_text(json.dumps(data))
        assert SweepCheckpoint(str(path), specs).completed == 0

    def test_update_and_complete(self, tmp_path):
        specs = _specs(4)
        path = tmp_path / "ckpt"
        ckpt = SweepCheckpoint(str(path), specs)
        assert ckpt.completed == 0
        ckpt.update(2, archive_bytes=123)
        clone = SweepCheckpoint(str(path), specs)
        assert clone.completed == 2 and clone.archive_bytes == 123
        ckpt.complete()
        assert not path.exists()
        assert SweepCheckpoint(str(path), specs).completed == 0

    def test_update_failure_is_nonfatal(self, tmp_path):
        specs = _specs(2)
        ckpt = SweepCheckpoint(str(tmp_path / "nope" / "deep" / "ckpt"), specs)
        ckpt.update(1)  # unwritable directory: swallowed, not raised
        assert ckpt.completed == 1  # in-memory progress still tracks

    def test_memory_sink_checkpoint_still_resumes(self, tmp_path):
        """Sinks without tell/rollback checkpoint by spec count alone."""
        specs = _specs(6)
        ckpt = tmp_path / "ckpt"
        sink = MemorySink()
        SESSION.sweep_into(specs, sink, batch_size=2, checkpoint=str(ckpt))
        assert not ckpt.exists()
        assert len(sink.records) == len(
            SESSION.sweep(specs).records
        )
