"""Recovery journal: encoding, torn tails, compaction, corruption."""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import IGKway, PartitionConfig
from repro.core.serialize import save_partitioner
from repro.eval.workloads import TraceConfig, generate_trace
from repro.core.transaction import state_digest
from repro.graph import (
    EdgeDelete,
    EdgeInsert,
    VertexDelete,
    VertexInsert,
)
from repro.graph.generators import circuit_graph
from repro.stream import StreamJournal, StreamSession
from repro.stream import journal as journal_module
from repro.stream.journal import (
    decode_modifier,
    encode_modifier,
    modifier_line,
)
from repro.utils import JournalError


def _dumps(record):
    return json.dumps(record, separators=(",", ":")) + "\n"


def _record_line(seq, modifier):
    """An ``"m"`` line as ``json.dumps`` writes it."""
    record = {"r": "m", "s": seq}
    record.update(encode_modifier(modifier))
    return _dumps(record)


def _log_bytes(journal):
    """The live log's bytes before its NUL-filled rest: a log rewritten
    or blanked in place keeps its length instead of shrinking."""
    return journal.log_path.read_bytes().rstrip(b"\0")


@pytest.fixture
def partitioner(small_circuit):
    ig = IGKway(small_circuit, PartitionConfig(k=2, seed=2))
    ig.full_partition()
    return ig


class TestModifierCodec:
    @pytest.mark.parametrize(
        "modifier",
        [
            VertexInsert(5, weight=3),
            VertexDelete(7),
            EdgeInsert(1, 2, weight=4),
            EdgeDelete(8, 9),
        ],
    )
    def test_roundtrip(self, modifier):
        assert decode_modifier(encode_modifier(modifier)) == modifier

    def test_unknown_kind_rejected(self):
        with pytest.raises(JournalError, match="unknown"):
            decode_modifier({"t": "xx"})


class TestModifierRecordBytes:
    MODIFIERS = [
        VertexInsert(2**40, weight=7),
        VertexDelete(10**15),
        EdgeInsert(123456789, 0, weight=3),
        EdgeDelete(0, 2**62),
        VertexInsert(-1, weight=1),
    ]

    def test_lines_equal_json_dumps(self):
        for seq, mod in enumerate(self.MODIFIERS, start=2**33):
            assert modifier_line(seq, mod) == _record_line(seq, mod)

    @pytest.mark.parametrize(
        "modifier",
        [
            EdgeInsert(1, 2, weight=2.5),
            EdgeInsert(1, 2, weight=True),
            VertexInsert(4, weight=float("inf")),
        ],
    )
    def test_non_int_fields_take_the_json_path(self, modifier):
        assert modifier_line(9, modifier) == _record_line(9, modifier)

    def test_log_modifiers_writes_the_json_bytes(
        self, partitioner, tmp_path
    ):
        journal = StreamJournal(tmp_path / "j")
        entries = list(enumerate(self.MODIFIERS, start=5))
        journal.log_modifiers(entries)
        journal.close()
        assert journal.log_path.read_text(encoding="utf-8") == "".join(
            _record_line(seq, mod) for seq, mod in entries
        )
        journal.write_checkpoint(partitioner, {"applied_seq": 4})
        state = StreamJournal(tmp_path / "j").load()
        assert state.modifiers == dict(entries)


class TestLogAndLoad:
    def test_load_without_checkpoint_raises(self, tmp_path):
        journal = StreamJournal(tmp_path / "j")
        with pytest.raises(JournalError, match="no checkpoint"):
            journal.load()

    def test_roundtrip_modifiers_and_flushes(
        self, partitioner, tmp_path
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        mods = [EdgeInsert(0, 9), EdgeDelete(0, 9), VertexInsert(300)]
        journal.log_modifiers(list(enumerate(mods)))
        journal.log_flush(0, 1, "size")
        journal.close()

        state = StreamJournal(tmp_path / "j").load()
        assert state.applied_seq == -1
        assert state.modifiers == {0: mods[0], 1: mods[1], 2: mods[2]}
        assert state.flushes == [(0, 1, "size", ())]
        assert state.max_logged_seq == 2

    def test_torn_tail_is_discarded(self, partitioner, tmp_path):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        journal.log_modifiers(
            [(0, EdgeInsert(0, 9)), (1, EdgeInsert(0, 10))]
        )
        journal.close()
        # Simulate a crash mid-write: the final line is half a record.
        with journal.log_path.open("a") as handle:
            handle.write('{"r":"m","s":2,"t":"ei","u":0,')

        state = StreamJournal(tmp_path / "j").load()
        assert sorted(state.modifiers) == [0, 1]

    def test_flush_referencing_unlogged_seq_raises(
        self, partitioner, tmp_path
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        journal.log_modifiers([(0, EdgeInsert(0, 9))])
        journal.log_flush(0, 3, "size")  # seqs 1-3 never logged
        journal.close()
        with pytest.raises(JournalError, match="unlogged"):
            StreamJournal(tmp_path / "j").load()

    def test_checkpoint_meta_roundtrip(self, partitioner, tmp_path):
        journal = StreamJournal(tmp_path / "j")
        meta = {"applied_seq": 12, "telemetry": {"ingested": 13}}
        journal.write_checkpoint(partitioner, meta)
        state = StreamJournal(tmp_path / "j").load()
        assert state.applied_seq == 12
        assert state.meta["telemetry"] == {"ingested": 13}
        assert state.meta["journal_format"] == 1

    def test_restored_partitioner_matches(self, partitioner, tmp_path):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        state = StreamJournal(tmp_path / "j").load()
        assert state.partitioner.cut_size() == partitioner.cut_size()
        assert np.array_equal(
            state.partitioner.partition, partitioner.partition
        )


class TestCompaction:
    def test_checkpoint_compacts_covered_records(
        self, partitioner, tmp_path
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        journal.log_modifiers(
            [(seq, EdgeInsert(0, 9 + seq)) for seq in range(6)]
        )
        journal.log_flush(0, 3, "size")
        # One checkpoint covering seqs <= 3 is not enough to drop them:
        # the previous on-disk checkpoint (cursor -1) is the corruption
        # fallback and still needs every record to replay forward.
        journal.write_checkpoint(partitioner, {"applied_seq": 3})
        state = StreamJournal(tmp_path / "j").load()
        assert sorted(state.modifiers) == [4, 5]  # past the cursor
        assert journal.prev_checkpoint_path.exists()
        lines = [
            json.loads(line)
            for line in _log_bytes(journal).decode().splitlines()
        ]
        assert {rec["s"] for rec in lines if rec["r"] == "m"} == set(
            range(6)
        )
        # Once BOTH on-disk checkpoints cover seq 3, compaction drops
        # the covered records.
        journal.write_checkpoint(partitioner, {"applied_seq": 3})

        lines = [
            json.loads(line)
            for line in _log_bytes(journal).decode().splitlines()
        ]
        assert {rec["s"] for rec in lines if rec["r"] == "m"} == {4, 5}
        assert all(rec["r"] != "f" for rec in lines)
        journal.close()

        state = StreamJournal(tmp_path / "j").load()
        assert sorted(state.modifiers) == [4, 5]
        assert state.flushes == []

    def test_checkpoint_write_is_atomic(self, partitioner, tmp_path):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        # No stray temp files once the rename lands.
        leftovers = [
            p.name
            for p in (tmp_path / "j").iterdir()
            if "tmp" in p.name
        ]
        assert leftovers == []
        journal.close()

    def test_dead_letters_survive_compaction(
        self, partitioner, tmp_path
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        journal.log_modifiers(
            [(0, EdgeInsert(0, 9)), (1, EdgeInsert(0, 10))]
        )
        journal.log_flush(0, 1, "size", excluded=[1])
        journal.log_dead_letter(1, EdgeInsert(0, 10), "poison")
        # Two checkpoints past the flush: every covered m/f record is
        # compacted away, but the rejection ledger must persist.
        journal.write_checkpoint(partitioner, {"applied_seq": 1})
        journal.write_checkpoint(partitioner, {"applied_seq": 1})
        journal.close()

        state = StreamJournal(tmp_path / "j").load()
        assert state.modifiers == {}
        assert state.flushes == []
        assert state.dead_letters == {1: "poison"}


    def test_compaction_keeps_lines_verbatim(self, partitioner, tmp_path):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        mods = [
            EdgeInsert(0, 9, weight=2),
            VertexInsert(300, weight=4),
            EdgeDelete(0, 9),
            VertexDelete(301),
            EdgeInsert(5, 2**40),
        ]
        journal.log_modifiers(list(enumerate(mods)))
        journal.log_flush(0, 3, "size", excluded=[3])
        journal.log_dead_letter(
            3, mods[3], "vertex 301 \u00e9t\u00e9 \u2713 \u4e2d"
        )
        journal.log_flush(4, 4, "deadline")
        journal.write_checkpoint(partitioner, {"applied_seq": 3})
        before = _log_bytes(journal).decode("utf-8")
        journal.write_checkpoint(partitioner, {"applied_seq": 3})
        # The re-encoding loop compaction used before it kept lines
        # verbatim.
        keep = []
        for line in before.splitlines():
            record = json.loads(line)
            if record["r"] == "m" and record["s"] <= 3:
                continue
            if record["r"] == "f" and record["b"] <= 3:
                continue
            keep.append(json.dumps(record, separators=(",", ":")))
        expected = "\n".join(keep) + ("\n" if keep else "")
        assert _log_bytes(journal) == expected.encode("utf-8")
        assert [json.loads(line)["r"] for line in keep] == ["m", "d", "f"]
        journal.close()


def _commit_rule_records(log):
    """Every committed ``(line, record)`` of ``log``, each line parsed,
    and the text before its torn tail: a line is committed when it ends
    in the newline and holds a JSON object with an ``"r"`` field, blank
    lines are skipped, and nothing at or after the first other line
    is."""
    pairs, prefix = [], []
    for line in log.split("\n")[:-1]:
        stripped = line.strip()
        if stripped:
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                break
            if not isinstance(record, dict) or "r" not in record:
                break
            pairs.append((stripped, record))
        prefix.append(line + "\n")
    return pairs, "".join(prefix)


def _covered(record, applied_seq):
    return (record["r"] == "m" and record["s"] <= applied_seq) or (
        record["r"] == "f" and record["b"] <= applied_seq
    )


def _parsing_filter(log, applied_seq):
    """The log text compaction keeps: every committed line, less the
    ``"m"`` and ``"f"`` records at or below the cursor."""
    return "".join(
        line + "\n"
        for line, record in _commit_rule_records(log)[0]
        if not _covered(record, applied_seq)
    )


def _parsing_load(log, applied_seq):
    """``(modifiers, flushes, dead_letters)`` decoded from every
    committed record, or the :class:`JournalError` message a flush
    record that names an unlogged modifier raises."""
    modifiers, flushes, dead_letters = {}, [], {}
    for _line, record in _commit_rule_records(log)[0]:
        if record["r"] == "d":
            dead_letters[record["s"]] = record.get("e", "")
        elif _covered(record, applied_seq):
            continue
        elif record["r"] == "m":
            modifiers[record["s"]] = decode_modifier(record)
        elif record["r"] == "f":
            for seq in range(record["a"], record["b"] + 1):
                if seq > applied_seq and seq not in modifiers:
                    return f"references unlogged modifier seq {seq}"
            flushes.append(
                (record["a"], record["b"], record.get("w", "replay"),
                 tuple(record.get("x", ())))
            )
    return modifiers, flushes, dead_letters


_ids = st.integers(-3, 2**40)
_weights = st.one_of(
    st.integers(-3, 2**40), st.floats(allow_nan=False), st.booleans()
)
_modifiers = st.one_of(
    st.builds(EdgeInsert, _ids, _ids, _weights),
    st.builds(EdgeDelete, _ids, _ids),
    st.builds(VertexInsert, _ids, _weights),
    st.builds(VertexDelete, _ids),
)
_seqs = st.integers(-2, 40)
_texts = st.text(max_size=12)


def _writer_lines(draw):
    """One record as the journal writer formats it."""
    kind = draw(st.sampled_from("mfd"))
    if kind == "m":
        return modifier_line(draw(_seqs), draw(_modifiers))
    if kind == "f":
        record = {"r": "f", "a": draw(_seqs), "b": draw(_seqs)}
        record["w"] = draw(
            st.one_of(st.sampled_from(["size", "deadline", "drain"]), _texts)
        )
        excluded = draw(st.lists(_seqs, max_size=4))
        if excluded:
            record["x"] = sorted(excluded)
        return _dumps(record)
    record = {"r": "d", "s": draw(_seqs), "e": draw(_texts)}
    record.update(encode_modifier(draw(_modifiers)))
    return _dumps(record)


@st.composite
def _logs(draw):
    """Journal text: writer records, records re-spaced by a default
    ``json.dumps``, blank and padded lines, an unparseable line and a
    torn tail."""
    lines = []
    for _ in range(draw(st.integers(0, 24))):
        shape = draw(st.sampled_from(
            ["writer"] * 6 + ["spaced", "padded", "blank", "garbage"]
        ))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["\n", " \n", "\t\n"])))
            continue
        if shape == "garbage":
            lines.append(draw(st.sampled_from(
                ['{"r":"m","s":01,"t":"vd","u":1}\n',
                 '{"r":"f","a":0,"b":-01,"w":"size"}\n',
                 '{"r":"m","s":\n', "[\n", '{"s":3}\n', '["r"]\n',
                 "nope\n"]
            )))
            continue
        line = _writer_lines(draw)
        if shape == "spaced":
            line = json.dumps(json.loads(line)) + "\n"
        elif shape == "padded":
            line = "  " + line[:-1] + " \n"
        lines.append(line)
    if lines and draw(st.booleans()):
        # A torn tail: the prefix of a record a crash interrupted.
        tail = _writer_lines(draw)
        lines.append(tail[: draw(st.integers(1, len(tail) - 1))])
    return "".join(lines)


@functools.lru_cache(maxsize=None)
def _checkpoint_with_cursor(applied_seq):
    """The bytes of a checkpoint of one small partition, with cursor
    ``applied_seq``."""
    ig = IGKway(circuit_graph(120, edge_ratio=1.4, seed=11),
                PartitionConfig(k=2, seed=2))
    ig.full_partition()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.npz"
        save_partitioner(
            ig, path, stream_meta={"applied_seq": applied_seq}
        )
        return path.read_bytes()


#: Two committed records, then a whole record the crash left without
#: its newline commit marker.
_UNTERMINATED = (
    modifier_line(0, EdgeInsert(0, 9))
    + modifier_line(1, EdgeInsert(0, 10))
    + modifier_line(2, EdgeInsert(0, 11))[:-1]
)
#: A JSON value that is not an object, or an object without an "r"
#: field, ends the committed prefix.
_NOT_AN_OBJECT = (
    modifier_line(0, EdgeInsert(0, 9))
    + '["r"]\n'
    + modifier_line(1, EdgeInsert(0, 10))
)
_NO_R_FIELD = _NOT_AN_OBJECT.replace('["r"]', '{"s":3}')


class TestCompactionFilter:
    @given(
        log=_logs(), applied_seq=st.integers(-3, 42), stale=_logs()
    )
    @example(log=_UNTERMINATED, applied_seq=-1, stale="")
    @example(log=_NOT_AN_OBJECT, applied_seq=-1, stale="")
    @example(
        # The kept line ends where a stale line does: without the NUL
        # fill, the next stale line would read as a record.
        log=modifier_line(0, EdgeInsert(0, 9))
        + modifier_line(1, EdgeInsert(0, 10)),
        applied_seq=0,
        stale=modifier_line(2, EdgeInsert(0, 11))
        + modifier_line(3, EdgeInsert(0, 12)),
    )
    @settings(max_examples=300, deadline=None)
    def test_compact_keeps_what_the_parsing_filter_keeps(
        self, log, applied_seq, stale
    ):
        with tempfile.TemporaryDirectory() as tmp:
            journal = StreamJournal(tmp)
            journal.log_path.write_text(log, encoding="utf-8")
            # Compaction overwrites the idle log in place; none of what
            # it held before may read back.
            idle = Path(tmp) / journal_module.LOG_NAMES[1]
            idle.write_text(stale, encoding="utf-8")
            expected = _parsing_filter(log, applied_seq)
            journal._compact(applied_seq)
            assert journal.log_path == idle
            assert _log_bytes(journal) == expected.encode("utf-8")
            assert [
                line + "\n"
                for line, _kind, _seq in journal_module._committed_lines(
                    idle
                )[0]
            ] == expected.splitlines(keepends=True)

    @given(log=_logs(), applied_seq=st.integers(-3, 42))
    @example(log=_UNTERMINATED, applied_seq=-1)
    @example(log=_NOT_AN_OBJECT, applied_seq=-1)
    @settings(max_examples=100, deadline=None)
    def test_load_decodes_what_the_parsing_filter_keeps(
        self, log, applied_seq
    ):
        checkpoint = _checkpoint_with_cursor(applied_seq)
        with tempfile.TemporaryDirectory() as tmp:
            journal = StreamJournal(tmp)
            journal.checkpoint_path.write_bytes(checkpoint)
            journal.log_path.write_text(log, encoding="utf-8")
            expected = _parsing_load(log, applied_seq)
            if isinstance(expected, str):
                with pytest.raises(JournalError, match=expected):
                    journal.load()
                return
            state = journal.load()
            assert state.applied_seq == applied_seq
            assert (
                state.modifiers, state.flushes, state.dead_letters
            ) == expected

    @given(log=_logs())
    @example(log=_UNTERMINATED)
    @example(log=_NOT_AN_OBJECT)
    @example(log=_NO_R_FIELD)
    @settings(max_examples=100, deadline=None)
    def test_first_append_lands_after_the_committed_prefix(self, log):
        line = modifier_line(7, EdgeInsert(1, 2))
        with tempfile.TemporaryDirectory() as tmp:
            journal = StreamJournal(tmp)
            journal.log_path.write_text(log, encoding="utf-8")
            journal.log_modifiers([(7, EdgeInsert(1, 2))])
            journal.close()
            expected = _commit_rule_records(log)[1] + line
            assert _log_bytes(journal) == expected.encode("utf-8")

    def test_writer_lines_take_the_pattern(self):
        """The lines the writer formats with int fields never reach
        ``json.loads``; the ones it formats through ``json.dumps``
        (non-int fields, escaped reasons) and dead letters do."""
        fast = [
            modifier_line(4, EdgeInsert(1, 2, 3)),
            modifier_line(-1, EdgeDelete(0, 2**40)),
            modifier_line(0, VertexInsert(7, -2)),
            modifier_line(9, VertexDelete(7)),
            _dumps({"r": "f", "a": 0, "b": 3, "w": "size"}),
            _dumps({"r": "f", "a": 0, "b": 3, "w": "", "x": [1, 2]}),
        ]
        slow = [
            modifier_line(4, EdgeInsert(1, 2, 1.5)),
            _dumps({"r": "f", "a": 0, "b": 3, "w": 'a"b'}),
            _dumps({"r": "f", "a": 0, "b": 3, "w": "\u00e9"}),
            _dumps({"r": "d", "s": 1, "e": "x", "t": "vd", "u": 1}),
        ]
        pattern = journal_module._WRITER_LINE
        assert all(pattern.fullmatch(line[:-1]) for line in fast)
        assert not any(pattern.fullmatch(line[:-1]) for line in slow)


class TestTrimOnOpen:
    @pytest.fixture
    def trim_calls(self, monkeypatch):
        """The paths the log scan reads: one per first open for append
        after construction or close(), one per compaction."""
        calls = []
        real = journal_module._committed_lines

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(journal_module, "_committed_lines", counting)
        return calls

    def test_reopen_after_compaction_skips_trim(
        self, partitioner, tmp_path, trim_calls
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        journal.log_modifiers([(0, EdgeInsert(0, 9))])
        assert len(trim_calls) == 1  # first open after construction
        journal.log_flush(0, 0, "size")
        journal.write_checkpoint(partitioner, {"applied_seq": 0})
        assert len(trim_calls) == 2  # the compaction
        journal.log_modifiers([(1, EdgeInsert(0, 10))])
        assert len(trim_calls) == 2
        journal.close()

    def test_new_journal_on_torn_log_still_trims(
        self, partitioner, tmp_path, trim_calls
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        journal.log_modifiers([(0, EdgeInsert(0, 9))])
        journal.close()
        with journal.log_path.open("a") as handle:
            handle.write('{"r":"m","s":1,"t":"ei",')
        fresh = StreamJournal(tmp_path / "j")
        fresh.log_modifiers([(1, EdgeInsert(3, 14))])
        fresh.close()
        assert len(trim_calls) == 2
        assert journal.log_path.read_text(encoding="utf-8") == (
            _record_line(0, EdgeInsert(0, 9))
            + _record_line(1, EdgeInsert(3, 14))
        )

    def test_append_after_close_trims_again(
        self, partitioner, tmp_path, trim_calls
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.log_modifiers([(0, EdgeInsert(0, 9))])
        journal.close()
        with journal.log_path.open("a") as handle:
            handle.write('{"r":"m"')
        journal.log_modifiers([(1, EdgeInsert(3, 14))])
        journal.close()
        assert len(trim_calls) == 2
        assert sorted(
            json.loads(line)["s"]
            for line in journal.log_path.read_text().splitlines()
        ) == [0, 1]


def _truncate(path):
    with path.open("rb+") as handle:
        handle.truncate(path.stat().st_size // 3)


def _flip_mid_body(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def _lose_header(path):
    path.write_bytes(path.read_bytes()[:64])


#: Media damage to a checkpoint slot after it was written.
_DAMAGE = {
    "truncated": _truncate,
    "flipped": _flip_mid_body,
    "header-lost": _lose_header,
}


class TestCheckpointCorruption:
    def test_corrupt_checkpoint_falls_back_to_previous(
        self, partitioner, tmp_path
    ):
        for name, damage in _DAMAGE.items():
            journal = StreamJournal(tmp_path / name)
            journal.write_checkpoint(partitioner, {"applied_seq": 3})
            journal.write_checkpoint(partitioner, {"applied_seq": 7})
            damage(journal.checkpoint_path)
            state = StreamJournal(tmp_path / name).load()
            assert state.applied_seq == 3, name  # the previous checkpoint
            assert state.partitioner.cut_size() == partitioner.cut_size()
            journal.close()

    def test_flipped_byte_falls_back_to_v2_previous(
        self, partitioner, tmp_path, save_legacy_checkpoint
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": 3})
        # The release before format 3 wrote that checkpoint.
        save_legacy_checkpoint(
            partitioner,
            journal.checkpoint_path,
            2,
            stream_meta={"applied_seq": 3, "journal_format": 1},
        )
        journal.write_checkpoint(partitioner, {"applied_seq": 7})
        blob = bytearray(journal.checkpoint_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        journal.checkpoint_path.write_bytes(bytes(blob))
        state = StreamJournal(tmp_path / "j").load()
        assert state.applied_seq == 3  # the format-2 previous checkpoint
        assert state_digest(
            state.partitioner.graph, state.partitioner.state
        ) == state_digest(partitioner.graph, partitioner.state)
        journal.close()

    def test_both_checkpoints_corrupt_raises(
        self, partitioner, tmp_path
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": 3})
        journal.write_checkpoint(partitioner, {"applied_seq": 7})
        journal.checkpoint_path.write_bytes(b"garbage")
        journal.prev_checkpoint_path.write_bytes(b"garbage")
        with pytest.raises(JournalError, match="checkpoint"):
            StreamJournal(tmp_path / "j").load()
        journal.close()

    def test_records_past_previous_cursor_are_kept(
        self, partitioner, tmp_path
    ):
        """Conservative compaction: the fallback checkpoint must still
        be able to replay forward after the newest one is lost — the
        records the log held when the newest was written, and those
        appended after it, which went to the log compaction made live."""
        for name, damage in _DAMAGE.items():
            journal = StreamJournal(tmp_path / name)
            journal.write_checkpoint(partitioner, {"applied_seq": -1})
            journal.log_modifiers(
                [(seq, EdgeInsert(0, 9 + seq)) for seq in range(4)]
            )
            journal.log_flush(0, 3, "size")
            journal.write_checkpoint(partitioner, {"applied_seq": 3})
            journal.log_modifiers(
                [(4, EdgeInsert(0, 13)), (5, EdgeInsert(0, 14))]
            )
            journal.log_flush(4, 5, "drain")
            journal.close()
            # Newest checkpoint (cursor 3) damaged; fall back to -1.
            damage(journal.checkpoint_path)
            state = StreamJournal(tmp_path / name).load()
            assert state.applied_seq == -1, name
            assert sorted(state.modifiers) == [0, 1, 2, 3, 4, 5]
            assert state.flushes == [
                (0, 3, "size", ()),
                (4, 5, "drain", ()),
            ]


class TestTrimTornTail:
    def _log_two(self, partitioner, tmp_path):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        journal.log_modifiers(
            [(0, EdgeInsert(0, 9)), (1, EdgeInsert(0, 10))]
        )
        journal.close()
        return journal

    def _append_after_crash(self, tmp_path):
        fresh = StreamJournal(tmp_path / "j")
        fresh.log_modifiers([(2, EdgeInsert(3, 14))])
        fresh.close()
        return _record_line(2, EdgeInsert(3, 14)).encode("utf-8")

    def test_clean_file_untouched(self, partitioner, tmp_path):
        journal = self._log_two(partitioner, tmp_path)
        before = journal.log_path.read_bytes()
        assert journal_module._committed_lines(journal.log_path)[1] == len(
            before
        )
        line = self._append_after_crash(tmp_path)
        assert journal.log_path.read_bytes() == before + line

    def test_missing_file_is_zero(self, tmp_path):
        assert journal_module._committed_lines(tmp_path / "absent.log") == (
            [],
            0,
            0,
        )

    def test_reports_bytes_removed(self, partitioner, tmp_path):
        journal = self._log_two(partitioner, tmp_path)
        before = journal.log_path.read_bytes()
        torn = '{"r":"m","s":2,"t":"ei","u":0,'
        with journal.log_path.open("a") as handle:
            handle.write(torn)
        assert journal_module._committed_lines(journal.log_path)[1] == len(
            before
        )
        line = self._append_after_crash(tmp_path)
        assert journal.log_path.read_bytes() == before + line

    def test_unterminated_valid_json_is_torn(
        self, partitioner, tmp_path
    ):
        # A complete JSON object with no trailing newline is still a
        # torn append: the newline is the commit marker.  load() drops
        # it without an append first, as the append's cut does.
        journal = self._log_two(partitioner, tmp_path)
        before = journal.log_path.read_bytes()
        with journal.log_path.open("a") as handle:
            handle.write('{"r":"m","s":2,"t":"ei","u":0,"v":11}')
        state = StreamJournal(tmp_path / "j").load()
        assert sorted(state.modifiers) == [0, 1]
        line = self._append_after_crash(tmp_path)
        assert journal.log_path.read_bytes() == before + line

    def test_append_after_torn_tail_does_not_merge(
        self, partitioner, tmp_path
    ):
        journal = self._log_two(partitioner, tmp_path)
        with journal.log_path.open("a") as handle:
            handle.write('{"r":"m","s":2,"t":"ei","u":0,')
        # A recovered process appends: the torn line must be truncated
        # first, or the new record glues onto the half-written one.
        self._append_after_crash(tmp_path)
        state = StreamJournal(tmp_path / "j").load()
        assert state.modifiers[2] == EdgeInsert(3, 14)
        assert sorted(state.modifiers) == [0, 1, 2]


class _Crash(Exception):
    """The process dies inside a write."""


def _loaded(directory):
    """What a fresh journal over ``directory`` recovers."""
    state = StreamJournal(directory).load()
    return (
        state.applied_seq, state.modifiers, state.flushes, state.dead_letters
    )


class TestCrashInsideACheckpoint:
    """A checkpoint that compacts makes four in-place writes: it
    invalidates the older slot, rewrites the idle log, marks the live
    log superseded and overwrites the slot.  A crash inside any of them,
    after any share of its bytes, recovers the checkpoint that stayed on
    disk and every record past it; only a slot write that completed
    recovers the new one.  Either way the recovered journal goes on
    writing checkpoints its fallback can replay from."""

    #: How much of the interrupted write lands, by its length.
    CUTS = {
        "nothing": lambda n: 0,
        "one-byte": lambda n: 1,
        "half": lambda n: n // 2,
        "all-but-one": lambda n: n - 1,
        "all": lambda n: n,
    }

    @pytest.mark.parametrize("cut", sorted(CUTS))
    @pytest.mark.parametrize(
        "write", ["invalidate", "compact", "mark", "slot"]
    )
    def test_recovery_is_the_kept_or_the_new_checkpoint(
        self, partitioner, tmp_path, monkeypatch, write, cut
    ):
        directory = tmp_path / "j"
        journal = StreamJournal(directory)
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        journal.log_modifiers(
            [(seq, EdgeInsert(0, 9 + seq)) for seq in range(4)]
        )
        journal.log_flush(0, 1, "size")
        journal.write_checkpoint(partitioner, {"applied_seq": 1})
        journal.log_flush(2, 3, "size", excluded=[3])
        journal.log_dead_letter(3, EdgeInsert(0, 12), "poison")
        journal.write_checkpoint(partitioner, {"applied_seq": 3})
        journal.log_modifiers(
            [(seq, EdgeInsert(0, 9 + seq)) for seq in range(4, 8)]
        )
        journal.log_flush(4, 5, "size")
        kept = _loaded(directory)

        # A larger graph, so no torn prefix of its checkpoint can
        # complete into a readable file over the older one's bytes.
        grown = IGKway(
            circuit_graph(400, edge_ratio=1.4, seed=5),
            PartitionConfig(k=2, seed=2),
        )
        grown.full_partition()
        writes = []
        write_at = journal_module._write_at

        def crashing(path, offset, data):
            writes.append(path)
            if len(writes) - 1 == ["invalidate", "compact", "mark",
                                   "slot"].index(write):
                write_at(path, offset, data[: self.CUTS[cut](len(data))])
                raise _Crash
            write_at(path, offset, data)

        monkeypatch.setattr(journal_module, "_write_at", crashing)
        with pytest.raises(_Crash):
            journal.write_checkpoint(grown, {"applied_seq": 5})
        journal.close()
        monkeypatch.undo()

        recovered = _loaded(directory)
        if write == "slot" and cut == "all":
            assert recovered == (
                5,
                {6: EdgeInsert(0, 15), 7: EdgeInsert(0, 16)},
                [],
                {3: "poison"},
            )
        else:
            assert recovered == kept

        cursor, modifiers, flushes, dead_letters = recovered
        journal = StreamJournal(directory)
        journal.load()
        journal.log_modifiers([(8, EdgeInsert(0, 17))])
        journal.log_flush(6, 8, "drain")
        journal.write_checkpoint(partitioner, {"applied_seq": 8})
        journal.close()
        assert _loaded(directory) == (8, {}, [], {3: "poison"})
        # The checkpoint recovery started from is the fallback now.
        _lose_header(StreamJournal(directory).checkpoint_path)
        assert _loaded(directory) == (
            cursor,
            {**modifiers, 8: EdgeInsert(0, 17)},
            flushes + [(6, 8, "drain", ())],
            dead_letters,
        )


def _files(directory):
    """``{name: (inode, size)}`` of every file in ``directory``."""
    return {
        path.name: (path.stat().st_ino, path.stat().st_size)
        for path in directory.iterdir()
    }


class TestNoBlockFreed:
    def test_inodes_stay_and_sizes_never_shrink(
        self, small_circuit, tmp_path
    ):
        """Once a session has written its first two checkpoints, no
        checkpoint, compaction, close, evict, recovery or post-crash
        append frees a disk block: no file is replaced, removed or
        added, and none shrinks."""
        directory = tmp_path / "j"
        batches = iter(
            generate_trace(
                small_circuit,
                TraceConfig(iterations=14, modifiers_per_iteration=4, seed=3),
            )
        )
        session = StreamSession(
            small_circuit,
            PartitionConfig(k=2, seed=2),
            journal_dir=directory,
            checkpoint_every=0,
        )

        def flush(session):
            session.submit_many(list(next(batches)))
            session.flush()

        session.start()
        flush(session)
        session.checkpoint()
        before = _files(directory)

        def unchanged():
            after = _files(directory)
            assert {name: ino for name, (ino, _) in after.items()} == {
                name: ino for name, (ino, _) in before.items()
            }
            for name, (_ino, size) in after.items():
                assert size >= before[name][1], name
            before.update(after)

        for _ in range(6):
            flush(session)
            unchanged()
            session.checkpoint()
            unchanged()
        session.suspend()
        unchanged()
        session = StreamSession.recover(directory)
        flush(session)
        session.checkpoint()
        unchanged()
        # A crash tears an append at the committed end of the live log.
        session.journal.close()
        live = session.journal.log_path
        with live.open("r+b") as handle:
            handle.seek(len(live.read_bytes().rstrip(b"\0")))
            handle.write(b'{"r":"m","s":999,"t":"ei","u":')
        session = StreamSession.recover(directory)
        flush(session)
        unchanged()
        session.close()
        unchanged()
        assert len(before) == 4
