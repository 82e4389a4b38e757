"""Recovery journal: encoding, torn tails, compaction, corruption."""

import json

import numpy as np
import pytest

from repro import IGKway, PartitionConfig
from repro.core.transaction import state_digest
from repro.graph import (
    EdgeDelete,
    EdgeInsert,
    VertexDelete,
    VertexInsert,
)
from repro.stream import StreamJournal
from repro.stream.journal import (
    decode_modifier,
    encode_modifier,
    trim_torn_tail,
)
from repro.utils import JournalError


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
        for seq, mod in enumerate(mods):
            journal.log_modifier(seq, mod)
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
        journal.log_modifier(0, EdgeInsert(0, 9))
        journal.log_modifier(1, EdgeInsert(0, 10))
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
        journal.log_modifier(0, EdgeInsert(0, 9))
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
        for seq in range(6):
            journal.log_modifier(seq, EdgeInsert(0, 9 + seq))
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
            for line in journal.log_path.read_text().splitlines()
        ]
        assert {rec["s"] for rec in lines if rec["r"] == "m"} == set(
            range(6)
        )
        # Once BOTH on-disk checkpoints cover seq 3, compaction drops
        # the covered records.
        journal.write_checkpoint(partitioner, {"applied_seq": 3})

        lines = [
            json.loads(line)
            for line in journal.log_path.read_text().splitlines()
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
        journal.log_modifier(0, EdgeInsert(0, 9))
        journal.log_modifier(1, EdgeInsert(0, 10))
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


class TestCheckpointCorruption:
    def test_corrupt_checkpoint_falls_back_to_previous(
        self, partitioner, tmp_path
    ):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": 3})
        journal.write_checkpoint(partitioner, {"applied_seq": 7})
        # Torn write: the newest checkpoint is half a file.
        with journal.checkpoint_path.open("rb+") as handle:
            handle.truncate(journal.checkpoint_path.stat().st_size // 3)
        state = StreamJournal(tmp_path / "j").load()
        assert state.applied_seq == 3  # the previous good checkpoint
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
        be able to replay forward after the newest one is lost."""
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        for seq in range(4):
            journal.log_modifier(seq, EdgeInsert(0, 9 + seq))
        journal.log_flush(0, 3, "size")
        journal.write_checkpoint(partitioner, {"applied_seq": 3})
        # Newest checkpoint (cursor 3) torn; fall back to cursor -1.
        with journal.checkpoint_path.open("rb+") as handle:
            handle.truncate(journal.checkpoint_path.stat().st_size // 3)
        state = StreamJournal(tmp_path / "j").load()
        assert state.applied_seq == -1
        assert sorted(state.modifiers) == [0, 1, 2, 3]
        assert state.flushes == [(0, 3, "size", ())]
        journal.close()


class TestTrimTornTail:
    def _log_two(self, partitioner, tmp_path):
        journal = StreamJournal(tmp_path / "j")
        journal.write_checkpoint(partitioner, {"applied_seq": -1})
        journal.log_modifier(0, EdgeInsert(0, 9))
        journal.log_modifier(1, EdgeInsert(0, 10))
        journal.close()
        return journal

    def test_clean_file_untouched(self, partitioner, tmp_path):
        journal = self._log_two(partitioner, tmp_path)
        before = journal.log_path.read_bytes()
        assert trim_torn_tail(journal.log_path) == 0
        assert journal.log_path.read_bytes() == before

    def test_missing_file_is_zero(self, tmp_path):
        assert trim_torn_tail(tmp_path / "absent.log") == 0

    def test_reports_bytes_removed(self, partitioner, tmp_path):
        journal = self._log_two(partitioner, tmp_path)
        torn = '{"r":"m","s":2,"t":"ei","u":0,'
        with journal.log_path.open("a") as handle:
            handle.write(torn)
        assert trim_torn_tail(journal.log_path) == len(torn)
        # Idempotent: the file is clean now.
        assert trim_torn_tail(journal.log_path) == 0

    def test_unterminated_valid_json_is_torn(
        self, partitioner, tmp_path
    ):
        # A complete JSON object with no trailing newline is still a
        # torn append: the newline is the commit marker.
        journal = self._log_two(partitioner, tmp_path)
        line = '{"r":"m","s":2,"t":"ei","u":0,"v":11}'
        with journal.log_path.open("a") as handle:
            handle.write(line)
        assert trim_torn_tail(journal.log_path) == len(line)
        state = StreamJournal(tmp_path / "j").load()
        assert sorted(state.modifiers) == [0, 1]

    def test_append_after_torn_tail_does_not_merge(
        self, partitioner, tmp_path
    ):
        journal = self._log_two(partitioner, tmp_path)
        with journal.log_path.open("a") as handle:
            handle.write('{"r":"m","s":2,"t":"ei","u":0,')
        # A recovered process appends: the torn line must be truncated
        # first, or the new record glues onto the half-written one.
        fresh = StreamJournal(tmp_path / "j")
        fresh.log_modifier(2, EdgeInsert(3, 14))
        fresh.close()
        state = StreamJournal(tmp_path / "j").load()
        assert state.modifiers[2] == EdgeInsert(3, 14)
        assert sorted(state.modifiers) == [0, 1, 2]
