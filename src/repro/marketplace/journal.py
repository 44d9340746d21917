"""Append-only event journal for the marketplace orchestrator.

The orchestrator is a long-lived process: campaigns run for thousands of
ticks against a churning worker marketplace, and losing a half-finished
run to a crash wastes every completed tick.  The journal extends the
fsynced-JSONL discipline of :class:`repro.experiments.store.ResultStore`
to an *event log*: one ``\\n``-terminated JSON line per record, written
append-only, so a crash can corrupt at most the trailing line.

Layout
------
The first line is a **header** record carrying the journal schema version
and the run's configuration *fingerprint* (seed, campaign specs, churn
model, marketplace config).  Every following line is one **tick** record.
Records are encoded with :func:`encode_record` — ``json.dumps`` with
sorted keys — so two runs that produce the same events produce the same
*bytes*, which is what the batch-size-invariance and resume tests
compare.

Durability contract
-------------------
:meth:`EventJournal.append_ticks` concatenates a whole batch of tick
records into **one** ``write`` + ``flush`` + ``fsync``.  Because each
record is its own line and the bytes of a record do not depend on how
records are grouped into writes, a journal written at tick-batch size 1
is byte-identical to one written at batch size 64.

Crash recovery
--------------
:meth:`EventJournal.read` tolerates exactly one undecodable *final* line
(the interrupted append) and rejects corruption anywhere else;
:meth:`EventJournal.append_ticks` truncates such a torn tail before its
first write.  Resume refuses a journal whose header fingerprint does not
match the current run (:class:`JournalFingerprintError`) — mixing ticks
from two differently-configured runs would silently corrupt the trace.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

#: Version stamp embedded in the journal header; bump on layout changes.
JOURNAL_SCHEMA_VERSION = 1

#: ``record["type"]`` of the mandatory first record.
HEADER_TYPE = "header"


class JournalError(ValueError):
    """Base class for journal read/replay failures."""


class JournalCorruptionError(JournalError):
    """The journal holds malformed content beyond an interrupted tail."""


class JournalFingerprintError(JournalError):
    """The journal was written by a run with a different configuration."""


#: Differing fingerprint paths named in a :class:`JournalFingerprintError`.
MAX_REPORTED_DIFFERENCES = 3

#: Stands in for a fingerprint key or list item present on one side only.
_ABSENT = object()


def _render(value: object) -> str:
    return "<absent>" if value is _ABSENT else json.dumps(value, sort_keys=True)


def _fingerprint_differences(stored: object, current: object, path: str = "") -> List[str]:
    """Every leaf where two decoded fingerprints differ, in sorted-key order.

    Each entry reads ``dotted.path: stored <json>, current <json>``; a key
    or list item present on one side only renders as ``<absent>`` there,
    and list items are addressed by index (``campaigns.0.seed``).
    """
    if isinstance(stored, list) and isinstance(current, list):
        stored, current = dict(enumerate(stored)), dict(enumerate(current))
    if isinstance(stored, dict) and isinstance(current, dict):
        differences: List[str] = []
        for key in sorted(set(stored) | set(current)):
            child = f"{path}.{key}" if path else str(key)
            differences += _fingerprint_differences(stored.get(key, _ABSENT), current.get(key, _ABSENT), child)
        return differences
    if stored == current:
        return []
    return [f"{path or 'fingerprint'}: stored {_render(stored)}, current {_render(current)}"]


def encode_record(record: Mapping[str, object]) -> str:
    """Canonical one-line encoding of a journal record (sorted keys + newline).

    All byte-identity guarantees are stated over this encoding, so replay
    comparisons use the encoded line, not dict equality — tuples vs lists
    or int vs float representation differences cannot slip through.
    """
    return json.dumps(record, sort_keys=True) + "\n"


class EventJournal:
    """One append-only JSONL file: a header line plus one line per tick."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._append_checked = False

    def exists(self) -> bool:
        return self.path.exists()

    def reset(self) -> None:
        """Drop any previous journal content."""
        if self.path.exists():
            self.path.unlink()
        self._append_checked = False

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def read(self) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
        """Load ``(header, tick_records)``, tolerating one torn final line.

        Raises
        ------
        JournalCorruptionError
            When the journal is missing or empty, its first record is not
            a valid header, its header carries a different schema version,
            or a malformed line is followed by well-formed ones.
        """
        if not self.path.exists():
            raise JournalCorruptionError(f"{self.path}: journal does not exist")
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        records: List[Dict[str, object]] = []
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    # The classic interruption artefact: a partial last line.
                    break
                raise JournalCorruptionError(
                    f"{self.path}: malformed record on line {index + 1} "
                    "(not the final line, so this is not an interrupted append)"
                ) from None
            if not isinstance(record, dict):
                raise JournalCorruptionError(f"{self.path}: line {index + 1} is not a JSON object")
            records.append(record)
        if not records:
            raise JournalCorruptionError(f"{self.path}: journal holds no complete records")
        header = records[0]
        if header.get("type") != HEADER_TYPE:
            raise JournalCorruptionError(f"{self.path}: first record is not a journal header")
        if header.get("schema_version") != JOURNAL_SCHEMA_VERSION:
            raise JournalCorruptionError(
                f"{self.path}: header has schema_version={header.get('schema_version')!r} but "
                f"this version of the journal reads {JOURNAL_SCHEMA_VERSION}; refusing to mix layouts"
            )
        return header, records[1:]

    def check_fingerprint(self, fingerprint: Mapping[str, object]) -> List[Dict[str, object]]:
        """Read the journal and verify its header matches ``fingerprint``.

        Returns the tick records on success; raises
        :class:`JournalFingerprintError` naming the first differing
        fingerprint paths when the stored fingerprint differs from the
        current run's configuration.  The file is left untouched.
        """
        header, ticks = self.read()
        stored = header.get("fingerprint")
        expected = json.loads(json.dumps(fingerprint, sort_keys=True))
        if stored != expected:
            differences = _fingerprint_differences(stored, expected)
            named = "; ".join(differences[:MAX_REPORTED_DIFFERENCES])
            if len(differences) > MAX_REPORTED_DIFFERENCES:
                named += f"; and {len(differences) - MAX_REPORTED_DIFFERENCES} more"
            raise JournalFingerprintError(
                f"{self.path}: journal was written under a different configuration "
                f"({named}); refusing to resume"
            )
        return ticks

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _drop_interrupted_trailing_line(self) -> None:
        """Truncate a partial final line left behind by an interrupted append."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            raw = handle.read()
        keep = raw.rfind(b"\n") + 1  # 0 when no newline at all: drop everything
        with open(self.path, "r+b") as handle:
            handle.truncate(keep)

    def begin(self, fingerprint: Mapping[str, object]) -> None:
        """Start a fresh journal: reset and durably write the header."""
        self.reset()
        header = {
            "type": HEADER_TYPE,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "fingerprint": json.loads(json.dumps(fingerprint, sort_keys=True)),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(encode_record(header))
            handle.flush()
            os.fsync(handle.fileno())
        self._append_checked = True

    def append_ticks(self, records: Sequence[Mapping[str, object]]) -> None:
        """Durably append a batch of tick records in one write + fsync.

        Batching amortises the fsync cost without changing the bytes:
        records are newline-delimited, so any grouping of the same record
        sequence into appends produces the identical file.
        """
        if not records:
            return
        if not self._append_checked:
            self._drop_interrupted_trailing_line()
            self._append_checked = True
        payload = "".join(encode_record(record) for record in records)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())


__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "HEADER_TYPE",
    "JournalError",
    "JournalCorruptionError",
    "JournalFingerprintError",
    "encode_record",
    "EventJournal",
]
