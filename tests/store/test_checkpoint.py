"""CheckpointStore: the crash windows of cycle-granular suspend/resume.

Covers the durability contract: appended saves with a periodic atomic
rewrite (and the ``2 · LADDER_DEPTH`` line bound that follows), torn-tail
fallback to the previous cycle, hard rejection of unknown schema versions,
and the restorable/progress-record split.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.protocols import CampaignState
from repro.exceptions import StoreError
from repro.store.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    LADDER_DEPTH,
    CheckpointStore,
)

FP = "f" * 64


def _state(cycle, *, restorable=True):
    return CampaignState(
        protocol="cont-v",
        seed=3,
        cycle=cycle,
        cycles_total=12,
        done=False,
        restorable=restorable,
        payload={"cycle": cycle} if restorable else None,
    )


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(tmp_path / "checkpoints")


class TestLadder:
    def test_save_and_latest_round_trip(self, store):
        store.save(FP, _state(1), run_id="cont-v-s3", worker="w0")
        store.save(FP, _state(2), run_id="cont-v-s3", worker="w0")
        record = store.latest(FP)
        assert record.cycle == 2 and record.worker == "w0"
        assert record.schema_version == CHECKPOINT_SCHEMA_VERSION
        revived = store.latest_restorable(FP)
        assert revived == _state(2)

    def test_ladder_bounded_to_newest_records(self, store):
        for cycle in (1, 2, 3, 4, 5):
            store.save(FP, _state(cycle), run_id="r", worker="w0")
        kept = [record.cycle for record in store.records(FP)]
        assert kept == [3, 4, 5] and len(kept) == LADDER_DEPTH

    def test_file_never_exceeds_twice_the_ladder_and_ends_newest(self, store):
        path = store.path(FP)
        for cycle in range(1, 13):
            store.save(FP, _state(cycle), run_id="r", worker="w0")
            lines = path.read_text().splitlines()
            assert len(lines) <= 2 * LADDER_DEPTH
            assert json.loads(lines[-1])["cycle"] == cycle
            assert store.latest_restorable(FP) == _state(cycle)

    def test_saves_append_between_periodic_rewrites(self, store, monkeypatch):
        import repro.store.checkpoint as checkpoint

        rewrites = []
        real_write = checkpoint.atomic_write_text

        def counting_write(path, text, **kwargs):
            rewrites.append(text.count("\n"))
            real_write(path, text, **kwargs)

        monkeypatch.setattr(checkpoint, "atomic_write_text", counting_write)
        for cycle in range(1, 10):
            store.save(FP, _state(cycle), run_id="r", worker="w0")
        # Saves 1, 5 and 9 rewrite (1 line, then LADDER_DEPTH lines each);
        # the six saves in between append.
        assert rewrites == [1, LADDER_DEPTH, LADDER_DEPTH]

    def test_discard_makes_the_next_save_a_rewrite(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        store.save(FP, _state(2), run_id="r", worker="w0")
        store.discard(FP)
        store.save(FP, _state(3), run_id="r", worker="w0")
        assert [record.cycle for record in store.records(FP)] == [3]

    def test_save_reports_the_new_line_and_the_file(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        saved = store.save(FP, _state(2), run_id="r", worker="w0")
        newest = store.path(FP).read_bytes().splitlines(keepends=True)[-1]
        assert saved.nbytes == len(newest)
        assert saved.path == store.path(FP)
        assert os.fspath(saved) == str(store.path(FP))

    def test_version_1_lines_are_still_read(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        record = json.loads(path.read_text())
        record["schema_version"] = 1
        path.write_text(json.dumps(record) + "\n")
        [read] = store.records(FP)
        assert read.schema_version == 1
        assert store.latest_restorable(FP) == _state(1)

    def test_missing_run_reads_empty(self, store):
        assert store.latest(FP) is None
        assert store.latest_restorable(FP) is None
        assert store.fingerprints() == []

    def test_discard(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        assert store.fingerprints() == [FP]
        store.discard(FP)
        store.discard(FP)  # idempotent
        assert store.fingerprints() == []


class TestCrashWindows:
    def test_torn_append_then_successful_save_parses_newest(self, store):
        from repro import faults
        from repro.faults import FaultPlan, ForcedFault

        store.save(FP, _state(1), run_id="r", worker="w0")
        plan = FaultPlan(0, force=[ForcedFault("checkpoint.save", 1, "torn_write")])
        with faults.injected_plan(plan):
            with pytest.raises(OSError):
                store.save(FP, _state(2), run_id="r", worker="w0")
        assert not store.path(FP).read_bytes().endswith(b"\n")
        assert store.latest_restorable(FP) == _state(1)
        store.save(FP, _state(3), run_id="r", worker="w0")
        lines = store.path(FP).read_text().splitlines()
        assert json.loads(lines[-1])["cycle"] == 3
        assert [record.cycle for record in store.records(FP)] == [1, 3]
        assert store.latest_restorable(FP) == _state(3)

    def test_truncated_tail_falls_back_to_previous_cycle(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        store.save(FP, _state(2), run_id="r", worker="w0")
        path = store.path(FP)
        # Crash mid-write on a non-atomic filesystem: the newest line tears.
        content = path.read_text()
        path.write_text(content + '{"schema_version": 1, "cycle": 3, "trunc')
        assert store.latest(FP).cycle == 2
        assert store.latest_restorable(FP) == _state(2)

    def test_garbled_middle_line_is_skipped(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        content = path.read_text()
        path.write_text(content + "not json at all\n")
        store.save(FP, _state(2), run_id="r", worker="w0")
        assert [record.cycle for record in store.records(FP)] == [1, 2]

    def test_progress_only_records_are_not_restorable(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        store.save(FP, _state(2, restorable=False), run_id="r", worker="w0")
        assert store.latest(FP).cycle == 2  # progress visible to status
        assert store.latest_restorable(FP) == _state(1)  # resume falls back

    def test_unknown_schema_version_rejected_with_clear_error(self, store):
        store.save(FP, _state(1), run_id="r", worker="w0")
        path = store.path(FP)
        record = json.loads(path.read_text().splitlines()[0])
        record["schema_version"] = 99
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreError, match="schema_version 99"):
            store.latest(FP)
        with pytest.raises(StoreError, match="schema_version 99"):
            store.latest_restorable(FP)

    def test_progress_record_of_done_state_never_restores(self, store):
        # A restorable=True state without payload (e.g. an init state) must
        # not masquerade as a checkpoint.
        state = CampaignState(protocol="cont-v", seed=3, restorable=True)
        store.save(FP, state, run_id="r", worker="w0")
        assert store.latest(FP).restorable is False
        assert store.latest_restorable(FP) is None

    def test_restorable_flag_and_state_field_agree(self, store):
        # One predicate decides both fields: a line marked non-restorable
        # never carries a state dict.
        state = CampaignState(protocol="cont-v", seed=3, cycle=2, restorable=True)
        store.save(FP, state, run_id="r", worker="w0")
        [line] = store.path(FP).read_text().splitlines()
        written = json.loads(line)
        assert written["restorable"] is False and written["state"] is None
        store.save(FP, _state(3), run_id="r", worker="w0")
        written = json.loads(store.path(FP).read_text().splitlines()[-1])
        assert written["restorable"] is True
        assert written["state"] == _state(3).as_dict()
