"""In-process failpoint semantics at the durability seams.

Crash kinds (``crash_after_write``, ``crash_before_rename``) SIGKILL the
process; they are exercised through subprocess workers in the chaos tests,
and in a subprocess here for the checkpoint save.  Otherwise we cover every
fault a test process can survive: error raises, torn payloads that the
existing recovery machinery must heal, deterministic stalls, and clock
skew — plus the retry helper healing transient injections.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
from repro.faults import FaultPlan, ForcedFault
from repro.orchestrate import WorkQueue, read_lease, try_claim
from repro.orchestrate.lease import refresh_lease
from repro.store import RunStore
from repro.store.checkpoint import CheckpointStore
from repro.utils.retrying import RetryPolicy, call_with_retries
from repro.utils.serialization import atomic_write_text

SWEEP = SweepSpec(
    protocols=("im-rp",),
    seeds=(3,),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


@pytest.fixture(scope="module")
def record():
    """One executed suite record (read-only) shared by the tests."""
    return CampaignSuite(SWEEP, executor="serial").run().records[0]


def forced(site, at, kind):
    return FaultPlan(0, force=[ForcedFault(site, at, kind)])


class TestStoreAppendFaults:
    def test_io_error_raises_before_touching_disk(self, tmp_path, record):
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "io_error")):
            with pytest.raises(OSError) as caught:
                store.append(record)
        assert caught.value.errno == errno.EIO
        assert not store.path.exists()

    def test_enospc_raises_with_the_honest_errno(self, tmp_path, record):
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "enospc")):
            with pytest.raises(OSError) as caught:
                store.append(record)
        assert caught.value.errno == errno.ENOSPC

    def test_torn_append_is_overwritten_by_the_retry(self, tmp_path, record):
        """A torn line is a crash-shaped tail: the next append heals it."""
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "torn_write")):
            with pytest.raises(OSError):
                store.append(record)
            torn = store.path.read_bytes()
            assert torn and not torn.endswith(b"\n")
            fingerprint = store.append(record)  # crossing 2: clean
        healed = RunStore(store.path)
        assert healed.fingerprints() == [fingerprint]
        assert healed.get(fingerprint).run_id == record.spec.run_id

    def test_torn_append_heals_across_a_reopen(self, tmp_path, record):
        """The torn tail also heals when a *fresh process* opens the store."""
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "torn_write")):
            with pytest.raises(OSError):
                store.append(record)
        reopened = RunStore(store.path)
        assert len(reopened) == 0
        fingerprint = reopened.append(record)
        assert RunStore(store.path).fingerprints() == [fingerprint]

    def test_retry_helper_heals_a_transient_injection(self, tmp_path, record):
        """``call_with_retries`` + a one-shot fault = a healed append."""
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(forced("store.append", 1, "io_error")):
            call_with_retries(
                lambda: store.append(record),
                policy=RetryPolicy(attempts=3, base_delay=0.001),
            )
        assert len(RunStore(store.path)) == 1

    def test_slow_io_stalls_but_the_append_succeeds(self, tmp_path, record):
        plan = FaultPlan(0, rates={"slow_io": 1.0}, max_delay=0.01)
        store = RunStore(tmp_path / "runs.jsonl")
        with faults.injected_plan(plan):
            store.append(record)
        assert len(RunStore(store.path)) == 1


class TestAtomicWriteFaults:
    def test_torn_write_leaves_a_detectably_torn_file(self, tmp_path):
        """The torn marker file parses as garbage, never as a wrong payload."""
        target = tmp_path / "marker.json"
        payload = json.dumps({"fingerprint": "f" * 64, "ok": True}) + "\n"
        with faults.injected_plan(forced("queue.mark_done", 1, "torn_write")):
            with pytest.raises(OSError):
                atomic_write_text(
                    target, payload, failpoint_site="queue.mark_done"
                )
        torn = target.read_text(encoding="utf-8")
        assert torn == payload[: len(payload) // 2]
        with pytest.raises(ValueError):
            json.loads(torn)

    def test_io_error_leaves_the_previous_content_intact(self, tmp_path):
        target = tmp_path / "marker.json"
        atomic_write_text(target, "old\n", failpoint_site="queue.mark_done")
        with faults.injected_plan(forced("queue.mark_done", 1, "io_error")):
            atomic_write_text(
                target, "old\n", failpoint_site="other.site"
            )  # other sites keep their own crossing counters
            with pytest.raises(OSError):
                atomic_write_text(
                    target, "new\n", failpoint_site="queue.mark_done"
                )
        assert target.read_text(encoding="utf-8") == "old\n"

    def test_stranded_temp_files_do_not_pollute_marker_globs(self, tmp_path):
        """A ``crash_before_rename`` strands a temp file; directory globs
        (done/failed/checkpoint listings) must never mistake it for a marker.
        """
        queue_dir = tmp_path / "queue"
        queue = WorkQueue.create(queue_dir, SWEEP)
        fingerprint = queue.entries()[0].fingerprint
        queue.mark_done(
            fingerprint, worker_id="w0", run_id="r0", wall_seconds=0.0
        )
        # The exact temp-name shape atomic_write_text uses, stranded by a
        # crash between the temp write and os.replace.
        stranded = queue.done_dir / ".something.json.tmp-4242-1"
        stranded.write_text("{}", encoding="utf-8")
        (queue.checkpoints_dir / ".x.jsonl.tmp-4242-1").write_text(
            "{}", encoding="utf-8"
        )
        assert queue.done_fingerprints() == [fingerprint]
        assert queue.worker_store_paths() == []
        assert CheckpointStore(queue.checkpoints_dir).fingerprints() == []


class TestLeaseFaults:
    def test_torn_claim_degrades_to_an_mtime_lease(self, tmp_path):
        claim = tmp_path / "claim.json"
        with faults.injected_plan(forced("lease.try_claim", 1, "torn_write")):
            with pytest.raises(OSError):
                try_claim(claim, "w0")
        lease = read_lease(claim)
        assert lease is not None and lease.torn
        assert not lease.expired(lease_seconds=60.0)

    def test_clock_skew_offsets_the_heartbeat(self, tmp_path):
        claim = tmp_path / "claim.json"
        plan = FaultPlan(0, rates={"clock_skew": 1.0}, max_skew=3600.0)
        with faults.injected_plan(plan):
            skew = plan.decide("lease.clock").skew  # crossing 1: pin the draw
        with faults.injected_plan(
            FaultPlan(0, rates={"clock_skew": 1.0}, max_skew=3600.0)
        ):
            refresh_lease(claim, "w0", claimed_at=time.time())
        lease = read_lease(claim)
        assert lease.heartbeat_at == pytest.approx(time.time() + skew, abs=5.0)

    def test_checkpoint_save_torn_write_falls_back_a_cycle(self, tmp_path):
        """An injected torn checkpoint loses the newest line, not the run.

        The second save appends, so the tear persists half of the cycle-2
        line.  (Its payload is made much larger than cycle 1's so that even
        a tear of the whole rewritten ladder would land inside line 2.)"""
        from repro.core.protocols import CampaignState

        store = CheckpointStore(tmp_path / "checkpoints")
        state1 = CampaignState("im-rp", seed=3, cycle=1, payload={"x": 1})
        state2 = CampaignState(
            "im-rp", seed=3, cycle=2, payload={"x": "y" * 2048}
        )
        store.save("f" * 8, state1, run_id="r", worker="w")
        with faults.injected_plan(forced("checkpoint.save", 1, "torn_write")):
            with pytest.raises(OSError):
                store.save("f" * 8, state2, run_id="r", worker="w")
        latest = store.latest_restorable("f" * 8)
        assert latest is not None and latest.cycle == 1


#: Saves ``sys.argv[2:]`` cycles with a fresh store in a fresh process,
#: so a forced crash kind really kills a process (``REPRO_FAULTS`` plan).
SAVE_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.protocols import CampaignState
from repro.store.checkpoint import CheckpointStore

store = CheckpointStore(sys.argv[1])
for cycle in map(int, sys.argv[2:]):
    payload = {{"x": "y" * 4096 * cycle}}
    state = CampaignState("cont-v", seed=3, cycle=cycle, payload=payload)
    store.save("f" * 8, state, run_id="r", worker="w")
"""

CRASH_KINDS = ("crash_before_rename", "crash_after_write")


def _checkpoint_state(cycle):
    # Each cycle's payload outweighs every earlier line together, so a tear
    # at the midpoint of a rewrite always lands inside the newest line.
    from repro.core.protocols import CampaignState

    return CampaignState(
        "cont-v", seed=3, cycle=cycle, payload={"x": "y" * 4096 * cycle}
    )


class TestCheckpointSaveFaults:
    """Every kind the ``checkpoint.save`` site expresses, forced once on a
    rewrite crossing (a fresh store's first save of a run) and once on an
    append crossing (its second)."""

    @pytest.mark.parametrize("at", [1, 2], ids=["rewrite", "append"])
    @pytest.mark.parametrize("kind", faults.SITE_KINDS["checkpoint.save"])
    def test_fault_keeps_a_resumable_cycle(self, tmp_path, kind, at):
        directory = tmp_path / "checkpoints"
        # A previous owner of the run left cycle 1 behind.
        CheckpointStore(directory).save(
            "f" * 8, _checkpoint_state(1), run_id="r", worker="w"
        )
        cycles = [2, 3][:at]
        plan = forced("checkpoint.save", at, kind)
        if kind in CRASH_KINDS:
            src = str(Path(repro.__file__).resolve().parent.parent)
            proc = subprocess.run(
                [sys.executable, "-c", SAVE_SCRIPT.format(src=src),
                 str(directory), *map(str, cycles)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, faults.FAULTS_ENV: plan.to_env()},
            )
            assert proc.returncode == -signal.SIGKILL, proc.stderr
        else:
            store = CheckpointStore(directory)

            def save_cycles():
                for cycle in cycles:
                    store.save("f" * 8, _checkpoint_state(cycle), run_id="r", worker="w")

            with faults.injected_plan(plan):
                if kind == "slow_io":
                    save_cycles()
                else:
                    with pytest.raises(OSError):
                        save_cycles()
        landed = kind in ("crash_after_write", "slow_io")
        expected = cycles[-1] if landed else cycles[-1] - 1
        latest = CheckpointStore(directory).latest_restorable("f" * 8)
        assert latest == _checkpoint_state(expected)


class TestRegistryLifecycle:
    def test_disabled_failpoint_is_none(self):
        faults.deactivate()
        assert faults.failpoint("store.append") is None

    def test_injected_plan_restores_the_previous_state(self):
        faults.deactivate()
        with faults.injected_plan(forced("store.append", 1, "io_error")):
            assert faults.active_plan() is not None
        assert faults.active_plan() is None

    def test_fired_events_are_logged_per_pid(self, tmp_path):
        """Fired faults land as telemetry-schema events, one file per pid."""
        import os

        plan = FaultPlan(
            0,
            force=[ForcedFault("store.append", 1, "io_error")],
            log_dir=str(tmp_path / "events"),
        )
        with faults.injected_plan(plan):
            event = faults.failpoint("store.append")
        assert event is not None
        log = tmp_path / "events" / f"{os.getpid()}.jsonl"
        [line] = log.read_text(encoding="utf-8").splitlines()
        logged = json.loads(line)
        assert logged["kind"] == "event"
        assert logged["name"] == "fault"
        assert logged["pid"] == os.getpid()
        assert logged["attrs"]["site"] == "store.append"
        assert logged["attrs"]["kind"] == "io_error"
        assert logged["attrs"]["index"] == 1

    def test_fired_events_ride_an_active_telemetry_stream(self, tmp_path):
        """With tracing on, faults skip the log_dir and join the one stream."""
        from repro import telemetry

        plan = FaultPlan(
            0,
            force=[ForcedFault("store.append", 1, "io_error")],
            log_dir=str(tmp_path / "events"),
        )
        with telemetry.scoped(tmp_path / "telemetry", "w0"):
            with faults.injected_plan(plan):
                assert faults.failpoint("store.append") is not None
        assert not (tmp_path / "events").exists()
        [record] = telemetry.read_telemetry_dir(tmp_path / "telemetry")
        assert record["name"] == "fault"
        assert record["worker"] == "w0"
        assert record["attrs"]["site"] == "store.append"
