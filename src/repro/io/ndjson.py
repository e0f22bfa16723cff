"""Streaming NDJSON record archives.

One schema-stamped header line, then one
:class:`~repro.experiment.records.RunRecord` per line.  This module is
the byte-level contract shared by :func:`dump_records_ndjson`, the
:class:`repro.experiment.sinks.NdjsonSink` spill path, and the
``repro.serve`` ``/v1/sweep`` stream — all three emit lines through
:func:`record_ndjson_line`, so a sweep streamed over a socket is
byte-identical to the same sweep dumped (or spilled) to a file.

Append mode is crash-tolerant: :func:`prepare_ndjson_append` validates
the existing header (kind and schema must match this build) and repairs
a truncated trailing line — the signature a killed writer leaves behind
— by truncating back to the last complete line before new records go in.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Mapping

from repro.errors import ReproError

__all__ = [
    "RECORDS_NDJSON_SCHEMA",
    "record_ndjson_line",
    "records_ndjson_header",
    "parse_records_ndjson_header",
    "prepare_ndjson_append",
    "dump_records_ndjson",
    "iter_records_ndjson",
]

#: Bump when the NDJSON record layout changes incompatibly.  The header
#: line every stream starts with carries this, so readers reject files
#: (and network streams) written by an incompatible layout instead of
#: misreading them.  Additive record columns do *not* bump the schema:
#: ``RunRecord.from_dict`` ignores unknown keys, so old readers skip new
#: columns and new readers default missing ones.
RECORDS_NDJSON_SCHEMA = 1


def record_ndjson_line(record) -> str:
    """One :class:`~repro.experiment.records.RunRecord` as one NDJSON line.

    Canonical (sorted keys, compact, trailing newline).  This is the
    single line encoder shared by :func:`dump_records_ndjson`, the
    record sinks, and the ``repro.serve`` streaming path.
    """
    return json.dumps(record.to_dict(), sort_keys=True) + "\n"


def records_ndjson_header() -> str:
    """The schema-stamped header line every NDJSON record stream starts with."""
    return (
        json.dumps(
            {"kind": "run-records", "schema": RECORDS_NDJSON_SCHEMA}, sort_keys=True
        )
        + "\n"
    )


def parse_records_ndjson_header(line: str) -> Mapping:
    """Validate one header line; returns the parsed header or raises.

    Shared by the reader (:func:`iter_records_ndjson`) and the append
    path (:func:`prepare_ndjson_append`), so a file one side accepts the
    other accepts too.
    """
    try:
        header = json.loads(line) if line.strip() else None
    except ValueError as exc:
        raise ReproError(f"NDJSON record header is not valid JSON: {exc}") from exc
    if not isinstance(header, Mapping) or header.get("kind") != "run-records":
        raise ReproError(
            "not an NDJSON record file: expected a kind='run-records' header line"
        )
    schema = header.get("schema")
    if schema != RECORDS_NDJSON_SCHEMA:
        raise ReproError(
            f"NDJSON record schema {schema!r} is not supported "
            f"(this build reads schema {RECORDS_NDJSON_SCHEMA})"
        )
    return header


def _truncate_partial_tail(path) -> int:
    """Drop a trailing line with no final newline; returns bytes removed.

    A writer killed mid-record leaves a partial last line.  Truncating
    back to the byte after the last ``\\n`` restores the file to a valid
    prefix (every NDJSON prefix ending on a line boundary is valid), so
    an appender can resume where the last complete record left off.
    """
    with open(path, "rb+") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return 0
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return 0
        # Scan backwards in chunks for the last newline.
        position = size
        last_newline = -1
        while position > 0 and last_newline < 0:
            start = max(0, position - 4096)
            handle.seek(start)
            data = handle.read(position - start)
            index = data.rfind(b"\n")
            if index >= 0:
                last_newline = start + index
            position = start
        keep = last_newline + 1
        handle.truncate(keep)
        return size - keep


def prepare_ndjson_append(path) -> bool:
    """Make ``path`` safe to append records to; returns True when fresh.

    Fresh (missing or empty file — the caller must write the header
    first) or resumable (existing file: the header is validated against
    this build's kind/schema, and a truncated trailing line from an
    interrupted writer is repaired by truncation).  Raises
    :class:`~repro.errors.ReproError` when the existing file is not an
    NDJSON record archive this build can extend.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return True
    _truncate_partial_tail(path)
    if os.path.getsize(path) == 0:
        # The partial tail was the (unfinished) header itself.
        return True
    with open(path, "r", encoding="utf-8") as handle:
        parse_records_ndjson_header(handle.readline())
    return False


def dump_records_ndjson(records, path, *, append: bool = False) -> None:
    """Write records as NDJSON: a schema header line, then one record per line.

    Unlike ``dump_records`` this format appends and streams: pass
    ``append=True`` to add records to an existing file without touching
    what is already there.  Appending validates the existing header
    (kind/schema mismatch raises instead of corrupting the archive) and
    repairs a truncated trailing line before resuming — see
    :func:`prepare_ndjson_append`.  ``records`` is any iterable of
    :class:`~repro.experiment.records.RunRecord` — a
    :class:`~repro.experiment.records.RunRecordSet` works directly, and
    so does a generator, which never materializes the whole set.
    """
    fresh = prepare_ndjson_append(path) if append else True
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as handle:
        if fresh:
            handle.write(records_ndjson_header())
        for record in records:
            handle.write(record_ndjson_line(record))


def iter_records_ndjson(path, *, tolerate_truncation: bool = False) -> Iterator:
    """Stream records back from a file written by :func:`dump_records_ndjson`.

    A generator of :class:`~repro.experiment.records.RunRecord` — memory
    stays flat no matter how many lines the file holds.  Rebuild a set
    with ``RunRecordSet.from_iter(iter_records_ndjson(path))``.  The
    header line is validated before any record is yielded.

    Reading a file another process is still appending to is safe: lines
    are consumed lazily, so records appended before the reader reaches
    end-of-file are yielded too.  A truncated trailing line (a writer
    caught mid-record) raises unless ``tolerate_truncation=True``, which
    stops cleanly after the last complete record instead.  An
    ``{"error": ...}`` line (a captured ``/v1/sweep`` stream the service
    could not finish) raises :class:`~repro.errors.ReproError`.
    """
    from repro.experiment.records import RunRecord

    with open(path, "r", encoding="utf-8") as handle:
        parse_records_ndjson_header(handle.readline())
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                if not raw.endswith("\n"):
                    if tolerate_truncation:
                        return
                    raise ReproError(
                        f"NDJSON record file ends mid-line (truncated write): {path}; "
                        "pass tolerate_truncation=True to stop at the last complete "
                        "record, or repair with prepare_ndjson_append()"
                    ) from exc
                raise ReproError(f"corrupt NDJSON record line: {exc}") from exc
            if "error" in data:
                # How a service ends a sweep stream it could not finish.
                raise ReproError(f"NDJSON record stream ends with an error: {data['error']}")
            yield RunRecord.from_dict(data)
