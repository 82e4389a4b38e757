"""Checkpointed recovery journal for the streaming service.

Layered on :mod:`repro.core.serialize`: the partitioner state goes into
periodic checkpoints (format version 4, which carries the stream cursor
as metadata) while every ingested modifier and every applied flush
window is appended to a log as one JSON line.

Crash model: the process can die at any point.  Recovery then

1. loads the last durable checkpoint (partitioner + ``applied_seq``
   cursor + adaptive-trigger state + telemetry),
2. replays every *flush record* past the cursor by re-coalescing the
   logged raw modifiers of its ``[first_seq, last_seq]`` window —
   coalescing and the partitioner are deterministic, so the replayed
   session is bit-identical to the uninterrupted one,
3. re-enqueues the logged-but-never-flushed suffix into the ingest
   queue.

Directory layout.  Two checkpoint *slots*, ``checkpoint.npz`` and
``checkpoint.prev.npz``, and two logs, ``journal.log`` and
``journal.1.log``.  Once all four exist, no checkpoint, compaction,
:meth:`~StreamJournal.close` or re-open frees a disk block — no rename
over an existing file, no unlink, no truncation — because on a
filesystem that discards freed blocks synchronously each free stalls
for the device.  A file that does not exist yet is created by temp
file, fsync and rename onto its fresh name, so a crash leaves it whole
or absent.  The slot names are historical (the journal before slots
rotated the newest checkpoint over the previous one), so either slot
may hold the newer checkpoint, and a directory of that layout loads as
two slots whose checkpoints have no generation: ``checkpoint.npz``
counts as the newer, and both replay ``journal.log``.

Checkpoint durability: each checkpoint overwrites the slot of the
older one in place and fsyncs it; it is never truncated, so bytes past
a slot's CRC-covered length are an older checkpoint's slack, which the
reader ignores.  The header carries the checkpoint's ``generation``
(one more than the newest slot's) and the ``log`` it replays.
:meth:`StreamJournal.load` takes the newest slot whose CRCs check, and
falls back to the other when the newest is corrupt (a torn in-place
write, or media damage); compaction retains every record the remaining
checkpoint needs, so the fallback replays to the same state.

Compaction, at every checkpoint, drops the ``"m"`` and ``"f"`` records
at or below the cursor of the checkpoint that stays on disk, so the log
stays proportional to the un-checkpointed window, not the stream's
lifetime.  In order: the slot about to be overwritten is invalidated
(it holds the older checkpoint, whose records compaction is about to
drop); the kept lines are copied verbatim into the idle log from its
start, its stale tail is NUL-filled and it is fsynced; the live log
gets the *superseded mark* at its end and is fsynced; appends switch to
the idle log; then the new checkpoint, which names that log, is
written.  A checkpoint whose log ends in the mark replays the other
log, which holds everything it needs and every append since, so the
remaining checkpoint stays a complete fallback.
Compaction waits while the remaining checkpoint reaches the live log
only through the mark: rewriting the idle log would erase it.

A line of a log is committed when it ends in the newline :func:`_dumps`
writes as the commit marker and holds a JSON object with an ``"r"``
field.  Blank lines are skipped; the first line that is not committed
is the torn tail a crash left, and nothing at or after it is trusted.
One scan, :func:`_committed_lines`, applies that rule for every reader:
:meth:`StreamJournal.load` decodes the committed records, compaction
filters them, and the first open for appending after construction or
:meth:`~StreamJournal.close` seeks to their end and NUL-fills the torn
rest, so a post-crash append lands right after the last record the next
recovery reads.  The scan classifies the lines the writer formats
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
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple

from repro.core.igkway import IGKway
from repro.core.serialize import (
    load_checkpoint,
    pack_checkpoint,
    peek_stream_meta,
)
from repro.gpusim.context import GpuContext
from repro.graph.modifiers import (
    EdgeDelete,
    EdgeInsert,
    Modifier,
    VertexDelete,
    VertexInsert,
)
from repro.utils.errors import JournalError, PartitionError

#: Bumped whenever the journal line format changes.
JOURNAL_FORMAT = 1

#: The two checkpoint slots.  Historical names: either slot may hold
#: the newer checkpoint, and neither is a zip archive once written in
#: format 4.
SLOT_NAMES = ("checkpoint.npz", "checkpoint.prev.npz")

#: The two logs, named by index in a checkpoint's ``log`` field; a
#: checkpoint without that field replays ``journal.log``.
LOG_NAMES = ("journal.log", "journal.1.log")

#: The last bytes of a log whose records compaction has copied into the
#: other log: a checkpoint naming it replays the other log instead.  It
#: holds no newline, so no scan reads it as a record.
_SUPERSEDED = b"\x00superseded\x00"

#: Bytes a slot is invalidated by: the format-4 magic's length, so the
#: slot reads as neither a format-4 file nor a zip archive.
_INVALID = bytes(8)

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


def _write_at(path: Path, offset: int, data: bytes) -> None:
    """Overwrite the existing file ``path`` with ``data`` from
    ``offset`` in place, and fsync it: no block is freed."""
    with path.open("r+b") as handle:
        handle.seek(offset)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _open_or_create(name: str, flags: int) -> int:
    """An ``open`` opener that also creates a missing file, which mode
    ``"r+b"`` alone does not; neither truncates."""
    return os.open(name, flags | os.O_CREAT, 0o666)


def _create(path: Path, data: bytes) -> None:
    """Create ``path`` holding ``data``: temp file, fsync, rename onto
    the fresh name, fsync the directory.  A crash leaves the file whole
    or absent, and nothing is freed."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)


def _superseded(path: Path) -> bool:
    """Whether the log at ``path`` ends in the superseded mark."""
    try:
        with path.open("rb") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size < len(_SUPERSEDED):
                return False
            handle.seek(size - len(_SUPERSEDED))
            return handle.read() == _SUPERSEDED
    except FileNotFoundError:
        return False


def _committed_lines(
    path: Path,
) -> Tuple[List[Tuple[str, object, Optional[int]]], int, int]:
    """The committed records of the log at ``path`` (none if it is
    missing) as ``(line, kind, seq)`` — the stripped line, its ``"r"``
    value and the seq compaction compares with the cursor (``s`` of an
    ``"m"`` record, ``b`` of an ``"f"``, else ``None``) — the byte
    length of the prefix they and the blank lines among them span, and
    the length up to the last byte that is not NUL (a log reused in
    place ends in NULs)."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0, 0
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
    return records, size, len(data.rstrip(b"\0"))


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


@dataclass(frozen=True)
class _Slot:
    """What a checkpoint slot's header says."""

    generation: int
    #: ``None`` when not known: a format 1-3 archive not yet loaded.
    applied_seq: Optional[int]
    #: Index into :data:`LOG_NAMES` of the log the checkpoint replays.
    log: int


def _slot(meta: Optional[dict], index: int) -> _Slot:
    """Slot ``index``'s header, from its stream metadata (``None`` for a
    format 1-3 archive).  A checkpoint from before slots has no
    generation and no log: ``checkpoint.npz`` was the newer, and both
    replay ``journal.log``."""
    if meta is None:
        return _Slot(-index, None, 0)
    log = meta.get("log", 0)
    if type(log) is not int or not 0 <= log < len(LOG_NAMES):
        raise JournalError(f"{SLOT_NAMES[index]} names no log: {log!r}")
    return _Slot(
        int(meta.get("generation", -index)),
        int(meta.get("applied_seq", -1)),
        log,
    )


class StreamJournal:
    """Append-only modifier log plus periodic partitioner checkpoints,
    every file written in place once it exists."""

    def __init__(self, directory: "str | Path"):
        # Created by the first write, so a read-only use (load, exists)
        # of a mistyped path leaves nothing behind.
        self.directory = Path(directory)
        self._log: Optional[BinaryIO] = None
        # Where the next open for append lands in the live log, and
        # where its torn rest ends, once known: set by load() and by
        # compaction, cleared by close(), after which the next open
        # scans the log again.
        self._resume: Optional[Tuple[int, int]] = None
        # The directory as this object knows it, read on first use
        # (None until then): each slot's header (None = missing or
        # unreadable), the slot of the newest readable checkpoint, and
        # the live log.
        self._slots: Optional[List[Optional[_Slot]]] = None
        self._newest: Optional[int] = None
        self._live = 0

    def _slot_path(self, index: int) -> Path:
        return self.directory / SLOT_NAMES[index]

    def _log_file(self, index: int) -> Path:
        return self.directory / LOG_NAMES[index]

    @property
    def checkpoint_path(self) -> Path:
        """The slot of the newest checkpoint (slot 0 before the first)."""
        self._resolve()
        return self._slot_path(self._newest or 0)

    @property
    def prev_checkpoint_path(self) -> Path:
        """The other slot: the previous checkpoint, if any."""
        self._resolve()
        return self._slot_path(1 - (self._newest or 0))

    @property
    def log_path(self) -> Path:
        """The live log: appends go there and recovery replays it."""
        self._resolve()
        return self._log_file(self._live)

    def exists(self) -> bool:
        return any(self._slot_path(i).exists() for i in range(2))

    # -- what is on disk -----------------------------------------------------------

    def _read_slots(self) -> Tuple[List[Optional[_Slot]], List[int]]:
        """Both slots' headers (``None`` for a missing or unreadable
        one) and the indexes of the slot files, newest header first and
        unreadable ones last."""
        slots: List[Optional[_Slot]] = [None, None]
        present = []
        for index in range(2):
            path = self._slot_path(index)
            if not path.exists():
                continue
            present.append(index)
            try:
                slots[index] = _slot(peek_stream_meta(path), index)
            except (PartitionError, JournalError):
                pass
        order = sorted(
            present,
            key=lambda i: -slots[i].generation if slots[i] else math.inf,
        )
        return slots, order

    def _settle(
        self, slots: List[Optional[_Slot]], newest: Optional[int]
    ) -> None:
        """Take ``slots`` as on disk and slot ``newest`` as the newest
        checkpoint: the live log is the one it names, or the other one
        if that log is superseded."""
        named = 0 if newest is None else slots[newest].log
        live = 1 - named if _superseded(self._log_file(named)) else named
        self._slots, self._newest, self._live = slots, newest, live

    def _resolve(self) -> None:
        """Learn the directory's state from the slot headers, once, when
        this object writes or names a file before any :meth:`load`: the
        newest readable header is taken as the newest checkpoint."""
        if self._slots is None:
            slots, order = self._read_slots()
            self._settle(
                slots, next((i for i in order if slots[i] is not None), None)
            )

    # -- appending -----------------------------------------------------------------

    def _handle(self) -> BinaryIO:
        if self._log is None:
            path = self.log_path
            # The first open since construction or close() finds the
            # committed end and blanks any crash-torn rest, so new
            # records land on a clean boundary and no scan reads the
            # rest back.  Nothing is truncated.
            if self._resume is None:
                self._resume = _committed_lines(path)[1:]
            committed, end = self._resume
            self.directory.mkdir(parents=True, exist_ok=True)
            handle = open(path, "r+b", opener=_open_or_create)
            if end > committed:
                handle.seek(committed)
                handle.write(bytes(end - committed))
            handle.seek(committed)
            self._log = handle
        return self._log

    def _write(self, text: str) -> None:
        handle = self._handle()
        handle.write(text.encode("utf-8"))
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
        """Durably persist the partitioner + cursor, compacting first.

        The checkpoint goes into the slot of the older one, or of the
        one :meth:`load` could not read, overwritten in place and
        fsynced (a slot that does not exist yet is created whole).  When
        the log is compacted, that slot is invalidated first and the
        checkpoint names the compacted log (see the module docstring).
        A crash at any point leaves the other slot's checkpoint, and
        everything it replays, on disk.
        """
        self._resolve()
        meta = dict(meta)
        meta.setdefault("journal_format", JOURNAL_FORMAT)
        cursor = int(meta.get("applied_seq", -1))
        kept = None if self._newest is None else self._slots[self._newest]
        target = 0 if self._newest is None else 1 - self._newest
        if kept is None:
            cutoff: Optional[int] = cursor
        elif kept.log == self._live and kept.applied_seq is not None:
            cutoff = min(kept.applied_seq, cursor)
        else:
            cutoff = None  # keep everything the kept checkpoint may need
        compact = cutoff is not None and self.log_path.exists()
        meta["generation"] = 1 + max(
            (slot.generation for slot in self._slots if slot), default=0
        )
        meta["log"] = 1 - self._live if compact else self._live
        self.directory.mkdir(parents=True, exist_ok=True)
        data = pack_checkpoint(partitioner, meta)
        path = self._slot_path(target)
        if compact:
            # Its checkpoint would replay records compaction drops.
            if path.exists():
                _write_at(path, 0, _INVALID)
            self._slots[target] = None
            self._compact(cutoff)
        if path.exists():
            _write_at(path, 0, data)  # the rest is the reader's slack
        else:
            _create(path, data)
        self._slots[target] = _Slot(meta["generation"], cursor, meta["log"])
        self._newest = target

    def _compact(self, applied_seq: int) -> None:
        """Make the idle log live, holding the live log's records less
        those fully covered by the checkpoints that stay on disk.

        Keeps every committed line (:func:`_committed_lines`) verbatim
        but the ``"m"`` and ``"f"`` records at or below the cursor; the
        torn tail is dropped.  Dead-letter records are kept
        unconditionally — they are the stream's permanent rejection
        ledger.  The lines overwrite the idle log from its start, the
        rest of it is NUL-filled, and only once that is durable does
        the live log get the superseded mark.
        """
        self.close()
        live = self._log_file(self._live)
        idle = self._log_file(1 - self._live)
        records, committed, _end = _committed_lines(live)
        data = "".join(
            line + "\n"
            for line, _kind, seq in records
            if seq is None or seq > applied_seq
        ).encode("utf-8")
        try:
            stale = idle.stat().st_size - len(data)
        except FileNotFoundError:
            _create(idle, data)
        else:
            _write_at(idle, 0, data + bytes(max(0, stale)))
        end = max(committed, live.stat().st_size - len(_SUPERSEDED))
        _write_at(live, end, _SUPERSEDED)
        self._live = 1 - self._live
        # The new live log holds only committed lines, then NULs.
        self._resume = (len(data), len(data))

    # -- recovery ------------------------------------------------------------------

    def _load_latest_checkpoint(
        self, ctx: GpuContext | None
    ) -> Tuple[IGKway, dict]:
        """Load the newest slot whose checkpoint reads, falling back to
        the other when the newest is corrupt.  Releases the log handle:
        the live log is re-read from disk."""
        self.close()
        failures: List[str] = []
        slots, order = self._read_slots()
        for index in order:
            path = self._slot_path(index)
            try:
                partitioner, meta = load_checkpoint(path, ctx=ctx, slack=True)
                slots[index] = _slot(meta, index)
            except Exception as err:  # corrupt: try the other slot
                failures.append(f"{path.name}: {err}")
                continue
            self._settle(slots, index)
            return partitioner, meta
        if failures:
            raise JournalError(
                "every checkpoint is unreadable: " + "; ".join(failures)
            )
        raise JournalError(
            f"no checkpoint in {self.directory} "
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
        records, committed, end = _committed_lines(self.log_path)
        self._resume = (committed, end)
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
        self._resume = None
