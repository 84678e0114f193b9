"""Tests for repro.service.journal and the WorldState write-ahead log.

Covers the ISSUE's durability edge cases: CRC validation, torn final
records (forgiven), torn middle records (fatal), duplicate-replay
idempotency, and the snapshot-compaction round trip compared against the
live world's content fingerprint.
"""

import json
import zlib

import pytest

from repro.service.faults import tear_journal_tail
from repro.service.journal import (
    JournalCorruption,
    JournalRecord,
    WorldJournal,
)
from repro.service.state import WorldState

from tests.conftest import make_worker
from tests.service.conftest import make_world, seed_tasks, task


def _journaled_world(path, **journal_kwargs):
    """A fresh two-center world (no tasks) logging to ``path``."""
    state = make_world(with_tasks=False)
    state.attach_journal(WorldJournal(path, **journal_kwargs))
    return state


def _drive(state):
    """A deterministic op sequence touching every journal record kind."""
    accepted, rejected = state.add_tasks(seed_tasks())
    assert len(accepted) == 6 and not rejected
    state.advance(0.25)
    state.expire()
    result = state.snapshot()
    return result


class TestWireFormat:
    """Low-level record encoding: CRC, seq, torn-tail tolerance."""

    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with WorldJournal(path) as journal:
            journal.append("genesis", {"a": 1})
            journal.append("tasks", {"ids": ["t1", "t2"]})
        records, torn, intact_end = WorldJournal.read(path)
        assert torn == 0
        assert intact_end == path.stat().st_size
        assert records == [
            JournalRecord(0, "genesis", {"a": 1}),
            JournalRecord(1, "tasks", {"ids": ["t1", "t2"]}),
        ]

    def test_crc_mismatch_is_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with WorldJournal(path) as journal:
            journal.append("genesis", {})
            journal.append("advance", {"hours": 1.0})
        lines = path.read_text().splitlines(keepends=True)
        # Flip one payload byte of the FIRST record; an intact record
        # follows, so this cannot be forgiven as a torn tail.
        lines[0] = lines[0].replace("genesis", "genesiS", 1)
        path.write_text("".join(lines))
        with pytest.raises(JournalCorruption):
            WorldJournal.read(path)

    def test_torn_final_record_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with WorldJournal(path) as journal:
            journal.append("genesis", {})
            journal.append("advance", {"hours": 1.0})
        tear_journal_tail(path)
        records, torn, _ = WorldJournal.read(path)
        assert torn == 1
        assert [r.kind for r in records] == ["genesis"]

    def test_intact_end_truncation_removes_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with WorldJournal(path) as journal:
            journal.append("genesis", {})
            journal.append("advance", {"hours": 1.0})
        tear_journal_tail(path)
        _, torn, intact_end = WorldJournal.read(path)
        assert torn == 1
        assert WorldJournal.truncate_to(path, intact_end) > 0
        # The truncated journal ends cleanly at the last intact record.
        records, torn, end_after = WorldJournal.read(path)
        assert torn == 0
        assert [r.kind for r in records] == ["genesis"]
        assert end_after == intact_end == path.stat().st_size
        assert WorldJournal.truncate_to(path, intact_end) == 0  # idempotent

    def test_unterminated_crc_valid_tail_is_torn(self, tmp_path):
        # A final line whose CRC validates but that lacks its newline was
        # never acknowledged durable (append writes the newline before
        # returning), and a resumed append would concatenate onto it — it
        # must be dropped as torn, not trusted as intact.
        path = tmp_path / "j.jsonl"
        with WorldJournal(path) as journal:
            journal.append("genesis", {})
            journal.append("advance", {"hours": 1.0})
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # strip only the trailing newline
        records, torn, intact_end = WorldJournal.read(path)
        assert torn == 1
        assert [r.kind for r in records] == ["genesis"]
        assert intact_end < path.stat().st_size

    def test_forged_crc_on_middle_record_is_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with WorldJournal(path) as journal:
            journal.append("genesis", {})
            journal.append("advance", {"hours": 1.0})
            journal.append("advance", {"hours": 2.0})
        lines = path.read_text().splitlines(keepends=True)
        # Re-stamp a tampered middle payload with a *valid* CRC but a
        # non-JSON body: decode must still reject it.
        body = "not json at all"
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        lines[1] = f"{crc:08x} {body}\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalCorruption):
            WorldJournal.read(path)

    def test_rewrite_restarts_sequence(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = WorldJournal(path)
        journal.append("genesis", {})
        journal.append("advance", {"hours": 1.0})
        journal.rewrite([("genesis", {}), ("checkpoint", {"now": 1.0})])
        records, _, _ = WorldJournal.read(path)
        assert [r.seq for r in records] == [0, 1]
        assert journal.next_seq == 2
        journal.close()

    def test_should_compact_threshold(self, tmp_path):
        journal = WorldJournal(tmp_path / "j.jsonl", compact_every=3)
        assert not journal.should_compact()
        for k in range(3):
            journal.append("advance", {"hours": float(k)})
        assert journal.should_compact()
        journal.close()


class TestWorldStateDurability:
    """WorldState WAL + recovery: the crash-consistency contract."""

    def test_recover_reproduces_fingerprint(self, tmp_path):
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        _drive(state)
        recovered = WorldState.recover(path, resume=False)
        assert recovered.fingerprint() == state.fingerprint()
        assert recovered.version == state.version
        assert recovered.now == state.now

    def test_recover_after_commit(self, tmp_path):
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        snapshot = _drive(state)
        # Commit a real solve so route/removal records hit the journal.
        from repro.games.fgt import FGTSolver
        from repro.parallel import solve_instance

        solution = solve_instance(
            snapshot.instance(), FGTSolver(epsilon=0.8), epsilon=0.8, seed=5
        )
        assigned = state.commit(snapshot, solution.assignments)
        assert assigned > 0
        recovered = WorldState.recover(path, resume=False)
        assert recovered.fingerprint() == state.fingerprint()

    def test_torn_final_record_loses_only_last_op(self, tmp_path):
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        state.add_tasks(seed_tasks())
        reference = state.fingerprint()  # before the op that will tear
        state.advance(0.5)
        tear_journal_tail(path)
        recovered = WorldState.recover(path, resume=False)
        assert recovered.fingerprint() == reference

    def test_duplicate_records_replay_idempotently(self, tmp_path):
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        _drive(state)
        # Re-append the final line verbatim: same seq, same CRC.  Replay
        # must skip it instead of double-applying the op.
        lines = path.read_text().splitlines(keepends=True)
        with path.open("a") as fh:
            fh.write(lines[-1])
        recovered = WorldState.recover(path, resume=False)
        assert recovered.fingerprint() == state.fingerprint()
        assert recovered.version == state.version

    def test_compaction_round_trip_matches_live_fingerprint(self, tmp_path):
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        _drive(state)
        before = path.stat().st_size
        state.compact_journal()
        assert path.stat().st_size < before
        recovered = WorldState.recover(path, resume=False)
        assert recovered.fingerprint() == state.fingerprint()
        assert recovered.version == state.version
        # The compacted journal is exactly genesis + checkpoint.
        records, torn, _ = WorldJournal.read(path)
        assert torn == 0
        assert [r.kind for r in records] == ["genesis", "checkpoint"]

    def test_auto_compaction_keeps_recovery_exact(self, tmp_path):
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path, compact_every=4)
        _drive(state)
        state.advance(0.1)
        state.advance(0.1)
        recovered = WorldState.recover(path, resume=False)
        assert recovered.fingerprint() == state.fingerprint()

    def test_recover_resume_after_tear_stays_recoverable(self, tmp_path):
        # REGRESSION: recover(resume=True) used to leave the torn tail in
        # place; the torn line has no newline, so the first post-recovery
        # append concatenated onto it and the *next* recovery raised
        # JournalCorruption (damage followed by intact records).
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        state.add_tasks(seed_tasks())
        state.advance(0.5)  # the record the tear will destroy
        tear_journal_tail(path)
        recovered = WorldState.recover(path)  # resume=True
        recovered.advance(0.25)  # first append after the torn-tail recovery
        recovered.add_tasks([task("late", "a1", 2.0)])
        second = WorldState.recover(path, resume=False)
        assert second.fingerprint() == recovered.fingerprint()
        assert second.now == recovered.now

    def test_recover_resume_survives_repeated_crashes(self, tmp_path):
        # Crash -> recover -> crash again: every cycle must stay
        # recoverable, losing only each cycle's torn record.
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        state.add_tasks(seed_tasks())
        for _ in range(3):
            state.advance(0.5)
            tear_journal_tail(path)
            state = WorldState.recover(path)
            state.advance(0.1)
        final = WorldState.recover(path, resume=False)
        assert final.fingerprint() == state.fingerprint()
        assert final.now == state.now

    def test_resumed_journal_continues_recoverably(self, tmp_path):
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        state.add_tasks(seed_tasks())
        # First recovery resumes journaling; further mutations must land
        # in the same journal and recover again bit-identically.
        recovered = WorldState.recover(path)
        assert recovered.journal is not None
        recovered.add_tasks([task("late", "a1", 2.0)])
        recovered.advance(0.25)
        second = WorldState.recover(path, resume=False)
        assert second.fingerprint() == recovered.fingerprint()

    def test_recover_refuses_poisoned_task_record(self, tmp_path):
        # A CRC-valid record carrying a non-finite expiry (as journaled
        # before arrivals were validated) must not be replayed into a
        # world whose every snapshot would then raise.
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        state.add_tasks(seed_tasks())
        records, _, _ = WorldJournal.read(path)
        poisoned = {**task("p", "a1", 2.0), "arrival_time": 0.0}
        poisoned["expiry"] = float("nan")
        body = json.dumps(
            {
                "seq": records[-1].seq + 1,
                "kind": "tasks",
                "data": {"tasks": [poisoned]},
            }
        )
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        with path.open("a") as fh:
            fh.write(f"{crc:08x} {body}\n")
        with pytest.raises(ValueError, match="expiry must be finite"):
            WorldState.recover(path, resume=False)

    def test_recover_refuses_poisoned_worker_record(self, tmp_path):
        # The worker twin of the task case: an infinite speed journaled
        # before workers were validated must not be replayed.
        path = tmp_path / "world.jsonl"
        state = _journaled_world(path)
        state.add_tasks(seed_tasks())
        records, _, _ = WorldJournal.read(path)
        poisoned = WorldState._worker_dict(make_worker("p", 1.0, 1.0, center_id="A"))
        poisoned["speed_kmh"] = float("inf")
        body = json.dumps(
            {
                "seq": records[-1].seq + 1,
                "kind": "workers",
                "data": {"workers": [poisoned]},
            }
        )
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        with path.open("a") as fh:
            fh.write(f"{crc:08x} {body}\n")
        with pytest.raises(ValueError, match="speed_kmh must be finite"):
            WorldState.recover(path, resume=False)

    def test_recover_rejects_empty_and_headless_journals(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(JournalCorruption):
            WorldState.recover(empty)
        headless = tmp_path / "headless.jsonl"
        body = json.dumps({"seq": 0, "kind": "advance", "data": {"hours": 1.0}})
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        headless.write_text(f"{crc:08x} {body}\n")
        with pytest.raises(JournalCorruption):
            WorldState.recover(headless)
