"""Checkpointed recovery journal for the streaming service.

Layered on :mod:`repro.core.serialize`: the partitioner state goes into
a periodic ``checkpoint.npz`` (format version 4, which carries the
stream cursor as metadata) while every ingested modifier and every
applied flush window is appended to ``journal.log`` as one JSON line.
The checkpoint names are historical: a format-4 file is not a zip
archive, but keeping the names keeps existing journal directories,
whose checkpoints may be of formats 1-3, loadable.

Crash model: the process can die at any point.  Recovery then

1. loads the last durable checkpoint (partitioner + ``applied_seq``
   cursor + adaptive-trigger state + telemetry),
2. replays every *flush record* past the cursor by re-coalescing the
   logged raw modifiers of its ``[first_seq, last_seq]`` window —
   coalescing and the partitioner are deterministic, so the replayed
   session is bit-identical to the uninterrupted one,
3. re-enqueues the logged-but-never-flushed suffix into the ingest
   queue.

A line of ``journal.log`` is committed when it ends in the newline
:func:`_dumps` writes as the commit marker and holds a JSON object with
an ``"r"`` field.  Blank lines are skipped; the first line that is not
committed is the torn tail a crash left, and nothing at or after it is
trusted.  One scan, :func:`_committed_lines`, applies that rule for
every reader: :meth:`StreamJournal.load` decodes the committed records,
compaction filters them, and the first open for appending after
construction or :meth:`~StreamJournal.close` truncates the file to
their byte length, so a post-crash append lands right after the last
record the next recovery reads.  Checkpointing compacts the log,
dropping records at or below the new cursor so the journal stays
proportional to the un-checkpointed window, not the stream's lifetime;
the kept lines are copied verbatim, and the reopen after compaction
does not truncate.  The scan classifies the lines the writer formats
without parsing them: one compiled full-line pattern (``_WRITER_LINE``)
recognises ``"m"`` and ``"f"`` lines and reads their sequence number,
and it accepts nothing ``json.loads`` would reject.  Any other line — a
dead letter, a record with a non-int field, one written by hand — is
parsed.

Write cost: :meth:`StreamJournal.log_modifiers` takes every modifier a
submit accepted between two flush triggers and appends their ``"m"``
records in one ``write`` + ``flush``, each line formatted directly
(:func:`modifier_line`) but byte-identical to the ``json.dumps`` of the
record that flush and dead-letter records still use.

Checkpoint durability: the checkpoint is written to a temp file, fsynced,
rotated over the previous checkpoint (kept as ``checkpoint.prev.npz``),
and the directory entry is fsynced.  If the newest checkpoint is
corrupt (e.g. a torn write the rename race let through, or media
damage), :meth:`StreamJournal.load` falls back to the previous one;
compaction always retains every journal record the *previous*
checkpoint would need, so the fallback replays to the same state.

Degraded-mode records: a flush that had to quarantine poison modifiers
logs them in the flush record's ``"x"`` field (replay runs the window
through the live window path, which sends them down the poison path
without re-running their failed attempts), and a modifier whose retry
budget is exhausted gets a permanent ``{"r": "d", ...}`` *dead-letter*
record — the audit trail that no rejected submission is ever silently
dropped.  Dead-letter records survive compaction for the journal's
lifetime.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from repro.core.igkway import IGKway
from repro.core.serialize import load_checkpoint, save_partitioner
from repro.gpusim.context import GpuContext
from repro.graph.modifiers import (
    EdgeDelete,
    EdgeInsert,
    Modifier,
    VertexDelete,
    VertexInsert,
)
from repro.utils.errors import JournalError

#: Bumped whenever the journal line format changes.
JOURNAL_FORMAT = 1

#: Historical names: the files hold format-4 checkpoints, which are
#: not zip archives, but existing journal directories keep working.
CHECKPOINT_NAME = "checkpoint.npz"
PREV_CHECKPOINT_NAME = "checkpoint.prev.npz"
LOG_NAME = "journal.log"

#: A JSON integer: ``json.loads`` rejects leading zeros and a plus sign
#: (and ``\d`` would also match non-ASCII digits).
_INT = r"-?(?:0|[1-9][0-9]*)"

#: The ``"m"`` and ``"f"`` lines as :func:`modifier_line` and
#: :meth:`StreamJournal.log_flush` format them, in full: group 1 is an
#: ``"m"`` line's ``s``, group 2 an ``"f"`` line's ``b``.  Every line it
#: matches is a JSON object ``json.loads`` reads with that value, so
#: compaction classifies it without parsing.
_WRITER_LINE = re.compile(
    rf'\{{"r":"(?:m","s":({_INT}),"t":"(?:e[di]","u":{_INT},"v":{_INT}'
    rf'|v[di]","u":{_INT})(?:,"w":{_INT})?'
    rf'|f","a":{_INT},"b":({_INT}),"w":"[ !#-\[\]-~]*"'
    rf'(?:,"x":\[(?:{_INT}(?:,{_INT})*)?\])?)\}}'
)


def encode_modifier(modifier: Modifier) -> dict:
    """One modifier as a compact JSON-able record."""
    if isinstance(modifier, VertexInsert):
        return {"t": "vi", "u": modifier.u, "w": modifier.weight}
    if isinstance(modifier, VertexDelete):
        return {"t": "vd", "u": modifier.u}
    if isinstance(modifier, EdgeInsert):
        return {
            "t": "ei",
            "u": modifier.u,
            "v": modifier.v,
            "w": modifier.weight,
        }
    if isinstance(modifier, EdgeDelete):
        return {"t": "ed", "u": modifier.u, "v": modifier.v}
    raise JournalError(f"cannot journal unknown modifier {modifier!r}")


def _dumps(record: dict) -> str:
    """One journal line: compact JSON plus the newline commit marker."""
    return json.dumps(record, separators=(",", ":")) + "\n"


def modifier_line(seq: int, modifier: Modifier) -> str:
    """The ``"m"`` journal line of one ingested modifier.

    Formatted directly when every field is an ``int``, which prints the
    same bytes as :func:`_dumps` of ``{"r": "m", "s": seq, ...}`` at a
    fraction of its cost; any other field type goes through
    :func:`_dumps` itself.
    """
    kind = type(modifier)
    if kind is EdgeInsert:
        template = '{"r":"m","s":%d,"t":"ei","u":%d,"v":%d,"w":%d}\n'
        fields = (seq, modifier.u, modifier.v, modifier.weight)
    elif kind is EdgeDelete:
        template = '{"r":"m","s":%d,"t":"ed","u":%d,"v":%d}\n'
        fields = (seq, modifier.u, modifier.v)
    elif kind is VertexInsert:
        template = '{"r":"m","s":%d,"t":"vi","u":%d,"w":%d}\n'
        fields = (seq, modifier.u, modifier.weight)
    elif kind is VertexDelete:
        template = '{"r":"m","s":%d,"t":"vd","u":%d}\n'
        fields = (seq, modifier.u)
    else:
        fields = ()
    if fields and all(type(value) is int for value in fields):
        return template % fields
    record = {"r": "m", "s": seq}
    record.update(encode_modifier(modifier))
    return _dumps(record)


def decode_modifier(record: dict) -> Modifier:
    """Inverse of :func:`encode_modifier`."""
    kind = record.get("t")
    if kind == "vi":
        return VertexInsert(record["u"], record.get("w", 1))
    if kind == "vd":
        return VertexDelete(record["u"])
    if kind == "ei":
        return EdgeInsert(record["u"], record["v"], record.get("w", 1))
    if kind == "ed":
        return EdgeDelete(record["u"], record["v"])
    raise JournalError(f"unknown journaled modifier kind {kind!r}")


def fsync_directory(directory: "str | Path") -> None:
    """Make the entries created or renamed in ``directory`` durable;
    best-effort on filesystems that reject directory fsync."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _committed_lines(
    path: Path,
) -> Tuple[List[Tuple[str, object, Optional[int]]], int]:
    """The committed records of the log at ``path`` (none if it is
    missing) as ``(line, kind, seq)`` — the stripped line, its ``"r"``
    value and the seq compaction compares with the cursor (``s`` of an
    ``"m"`` record, ``b`` of an ``"f"``, else ``None``) — and the byte
    length of the prefix they and the blank lines among them span."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    records: List[Tuple[str, object, Optional[int]]] = []
    size = 0
    # The piece after the last newline is uncommitted by definition.
    for raw in data.split(b"\n")[:-1]:
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            break
        if line:
            match = _WRITER_LINE.fullmatch(line)
            if match is not None:
                m_seq, f_seq = match.groups()
                kind = "m" if m_seq is not None else "f"
                records.append((line, kind, int(m_seq or f_seq)))
            else:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break
                if not isinstance(record, dict) or "r" not in record:
                    break
                kind = record["r"]
                seq = (
                    record["s"] if kind == "m"
                    else record["b"] if kind == "f"
                    else None
                )
                records.append((line, kind, seq))
        size += len(raw) + 1
    return records, size


@dataclass
class JournalState:
    """Everything :meth:`StreamJournal.load` recovers from disk."""

    partitioner: IGKway
    meta: dict
    #: Raw logged modifiers past the checkpoint cursor, keyed by seq.
    modifiers: Dict[int, Modifier] = field(default_factory=dict)
    #: Applied-window records ``(first_seq, last_seq, reason,
    #: excluded_seqs)`` in log order.  ``excluded_seqs`` are the window
    #: members that were quarantined/dead-lettered instead of applied.
    flushes: List[Tuple[int, int, str, Tuple[int, ...]]] = field(
        default_factory=list
    )
    #: Permanently rejected modifiers: seq -> last recorded error.
    dead_letters: Dict[int, str] = field(default_factory=dict)

    @property
    def applied_seq(self) -> int:
        return int(self.meta.get("applied_seq", -1))

    @property
    def max_logged_seq(self) -> int:
        return max(self.modifiers, default=self.applied_seq)


class StreamJournal:
    """Append-only modifier log plus periodic partitioner checkpoints."""

    def __init__(self, directory: "str | Path"):
        # Created by the first write, so a read-only use (load, exists)
        # of a mistyped path leaves nothing behind.
        self.directory = Path(directory)
        self._log: Optional[TextIO] = None
        # Whether the next open-for-append must cut a torn tail: set at
        # construction and by close(), cleared once this object has
        # cut the log or rewritten it by compaction.
        self._trim_on_open = True
        # Cursors of the on-disk checkpoints, when this object knows
        # them (None = unknown, e.g. a fresh object over an existing
        # directory).  Compaction is skipped while the previous
        # checkpoint's cursor is unknown — keeping extra records is
        # always safe; dropping ones the fallback needs is not.
        self._current_cursor: Optional[int] = None
        self._prev_cursor: Optional[int] = None

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / CHECKPOINT_NAME

    @property
    def prev_checkpoint_path(self) -> Path:
        return self.directory / PREV_CHECKPOINT_NAME

    @property
    def log_path(self) -> Path:
        return self.directory / LOG_NAME

    def exists(self) -> bool:
        return (
            self.checkpoint_path.exists()
            or self.prev_checkpoint_path.exists()
        )

    # -- appending -----------------------------------------------------------------

    def _handle(self) -> TextIO:
        if self._log is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            # The first open since construction or close() cuts any
            # crash-torn tail, so new records land on a clean boundary.
            committed = (
                _committed_lines(self.log_path)[1]
                if self._trim_on_open
                else None
            )
            self._log = self.log_path.open("a", encoding="utf-8")
            if committed is not None and self._log.tell() > committed:
                self._log.truncate(committed)
            self._trim_on_open = False
        return self._log

    def _write(self, text: str) -> None:
        handle = self._handle()
        handle.write(text)
        handle.flush()

    def _append(self, record: dict) -> None:
        self._write(_dumps(record))

    def log_modifiers(
        self, entries: Sequence[Tuple[int, Modifier]]
    ) -> None:
        """Durably record ingested ``(seq, modifier)`` entries, in one
        write, before any of them can be flushed."""
        self._write(
            "".join([modifier_line(seq, mod) for seq, mod in entries])
        )

    def log_flush(
        self,
        first_seq: int,
        last_seq: int,
        reason: str,
        excluded: Sequence[int] = (),
    ) -> None:
        """Record that the raw window ``[first_seq, last_seq]`` was
        coalesced and applied.  Replay re-derives the batch from the
        logged modifiers in that range.  ``excluded`` lists the seqs the
        resilient path pulled out of the window (quarantined or
        dead-lettered poison) — replay coalesces the whole window again
        and sends those survivors down the poison path unapplied."""
        record = {"r": "f", "a": first_seq, "b": last_seq, "w": reason}
        if excluded:
            record["x"] = sorted(int(s) for s in excluded)
        self._append(record)

    def log_dead_letter(
        self, seq: int, modifier: Modifier, error: str
    ) -> None:
        """Permanently record a modifier whose retry budget ran out.

        Dead-letter records are never compacted away: they are the
        durable proof that a submission was rejected (and why) rather
        than lost, and :mod:`tools.chaos_gate` audits them against the
        injected faults.
        """
        record = {"r": "d", "s": seq, "e": error}
        record.update(encode_modifier(modifier))
        self._append(record)

    # -- checkpointing -------------------------------------------------------------

    def write_checkpoint(
        self, partitioner: IGKway, meta: dict
    ) -> None:
        """Durably persist the partitioner + cursor, then compact.

        Write protocol: temp file -> fsync -> rotate the live
        checkpoint to ``checkpoint.prev.npz`` -> rename temp over the
        live name -> fsync the directory.  A crash at any point leaves
        at least one complete checkpoint on disk, and :meth:`load`
        falls back to the previous one if the newest is unreadable.
        Compaction then drops only records *both* on-disk checkpoints
        have already covered.
        """
        meta = dict(meta)
        meta.setdefault("journal_format", JOURNAL_FORMAT)
        new_cursor = int(meta.get("applied_seq", -1))
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.directory / (CHECKPOINT_NAME + ".tmp.npz")
        save_partitioner(partitioner, tmp, stream_meta=meta)
        with tmp.open("rb") as handle:
            os.fsync(handle.fileno())
        if self.checkpoint_path.exists():
            os.replace(self.checkpoint_path, self.prev_checkpoint_path)
            self._prev_cursor = self._current_cursor
        os.replace(tmp, self.checkpoint_path)
        fsync_directory(self.directory)
        self._current_cursor = new_cursor
        if self.prev_checkpoint_path.exists():
            if self._prev_cursor is None:
                return  # unknown prev cursor: keep everything
            cutoff = min(self._prev_cursor, new_cursor)
        else:
            cutoff = new_cursor
        self._compact(cutoff)

    def _compact(self, applied_seq: int) -> None:
        """Drop journal records fully covered by both checkpoints.

        Keeps every committed line (:func:`_committed_lines`) verbatim
        but the ``"m"`` and ``"f"`` records at or below the cursor;
        the torn tail is dropped.  Dead-letter records are kept
        unconditionally — they are the stream's permanent rejection
        ledger.
        """
        if not self.log_path.exists():
            return
        if self._log is not None:
            self._log.close()
            self._log = None
        records, _ = _committed_lines(self.log_path)
        keep = [
            line + "\n"
            for line, _kind, seq in records
            if seq is None or seq > applied_seq
        ]
        tmp = self.directory / (LOG_NAME + ".tmp")
        tmp.write_text("".join(keep), encoding="utf-8")
        os.replace(tmp, self.log_path)
        # The rewritten log holds only committed lines: nothing to cut.
        self._trim_on_open = False

    # -- recovery ------------------------------------------------------------------

    def _load_latest_checkpoint(
        self, ctx: GpuContext | None
    ) -> Tuple[IGKway, dict]:
        """Load the newest readable checkpoint, falling back to the
        previous one when the newest is corrupt."""
        failures: List[str] = []
        for path, is_current in (
            (self.checkpoint_path, True),
            (self.prev_checkpoint_path, False),
        ):
            if not path.exists():
                continue
            try:
                partitioner, meta = load_checkpoint(path, ctx=ctx)
            except Exception as err:  # corrupt: try the previous
                failures.append(f"{path.name}: {err}")
                continue
            if is_current:
                self._current_cursor = int(meta.get("applied_seq", -1))
            return partitioner, meta
        if failures:
            raise JournalError(
                "every checkpoint is unreadable: " + "; ".join(failures)
            )
        raise JournalError(
            f"no checkpoint at {self.checkpoint_path} "
            "(was start() called with a journal?)"
        )

    def load(self, ctx: GpuContext | None = None) -> JournalState:
        """Read checkpoint + log back into a :class:`JournalState`.

        Raises :class:`JournalError` if no readable checkpoint exists
        or a flush record references modifiers the log never recorded
        (true corruption, as opposed to a torn tail).
        """
        partitioner, meta = self._load_latest_checkpoint(ctx)
        state = JournalState(partitioner=partitioner, meta=meta)
        applied = state.applied_seq
        records, _ = _committed_lines(self.log_path)
        for line, kind, seq in records:
            if kind == "d":
                record = json.loads(line)
                state.dead_letters[record["s"]] = record.get("e", "")
            elif seq is None or seq <= applied:
                continue
            elif kind == "m":
                state.modifiers[seq] = decode_modifier(json.loads(line))
            else:
                record = json.loads(line)
                excluded = tuple(record.get("x", ()))
                for member in range(record["a"], seq + 1):
                    if member > applied and member not in state.modifiers:
                        raise JournalError(
                            f"flush record [{record['a']}, {seq}] "
                            f"references unlogged modifier seq {member}"
                        )
                state.flushes.append(
                    (record["a"], seq, record.get("w", "replay"), excluded)
                )
        return state

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None
        # Whatever touches the released log next may tear it.
        self._trim_on_open = True
