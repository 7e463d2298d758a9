"""Fingerprint-keyed campaign checkpoints: the suspend/resume persistence.

A :class:`CheckpointStore` is a directory holding one JSONL file per run
(keyed by the run's :func:`~repro.store.fingerprint.run_fingerprint`), one
schema-version-stamped line per completed cycle::

    checkpoints/<fingerprint>.jsonl
      {"schema_version": 2, "fingerprint": "…", "run_id": "cont-v-s0",
       "worker": "node1-4242", "cycle": 3, "cycles_total": 12,
       "restorable": true, "state": {…CampaignState…}, "written_at": …}

Durability contract:

* **append, with a periodic rewrite** — a save serialises its record once
  and appends it to the run's file as a single ``os.write`` of one line
  (``O_APPEND``), so a cycle's checkpoint costs one line, not a rewrite of
  the ladder.  A store's first save of a run, and every save after
  :data:`LADDER_DEPTH` appends, instead rewrites the file through a temp
  file + ``os.replace`` keeping only the newest ``LADDER_DEPTH - 1`` lines
  plus the new one.  A file therefore never holds more than
  ``2 · LADDER_DEPTH`` lines, and always ends with the newest checkpoint.
* **torn-line fallback** — a crash can tear the newest line (mid-append,
  or mid-rewrite on a filesystem whose rename is not atomic); unparseable
  lines are skipped and the run resumes from the **previous cycle's**
  checkpoint (at most one cycle is re-executed — exactly, by the
  determinism contract).  An append that finds a torn tail first writes
  the newline that terminates it, so the new line always parses.
* **versioned** — every line carries ``schema_version``; this build writes
  version 2 (backbone coordinates by reference to the target, see
  :mod:`repro.core.snapshot`) and reads 1 and 2.  A line written by an
  unknown (future) layout is rejected with a clear error, never
  half-parsed into a silently wrong resume.

Checkpoints are transient by design: the orchestration worker discards a
run's file once its finished record lands in the :class:`~repro.store.
runstore.RunStore` and the done marker is published.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import faults
from repro.core.protocols import CampaignState
from repro.exceptions import StoreError
from repro.utils.serialization import atomic_write_text

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointRecord",
    "CheckpointStore",
    "SavedCheckpoint",
]

#: Layout version stamped on every checkpoint line.  Version 2 encodes a
#: pipeline's unchanged backbone coordinates as ``null`` (by reference to
#: its target); version 1 lines carry them in full.
CHECKPOINT_SCHEMA_VERSION = 2

#: Every layout this build reads.
READABLE_SCHEMA_VERSIONS = (1, 2)

#: How many trailing ladder records a rewrite keeps, and how many appends
#: a store makes between rewrites.  The torn-line fallback only ever needs
#: the *previous* cycle; keeping a couple more is cheap insurance, while an
#: unbounded ladder would grow without limit (every line carries a full
#: campaign snapshot).
LADDER_DEPTH = 3


@dataclass(frozen=True)
class SavedCheckpoint:
    """Where a :meth:`CheckpointStore.save` landed and what it cost.

    Path-like (``os.fspath`` gives the run's checkpoint file), so callers
    that only need the file can treat the result as its path.
    """

    path: Path
    #: Size of the new checkpoint line, newline included.
    nbytes: int

    def __fspath__(self) -> str:
        return os.fspath(self.path)


@dataclass(frozen=True)
class CheckpointRecord:
    """One decoded checkpoint line."""

    schema_version: int
    fingerprint: str
    run_id: str
    worker: str
    cycle: int
    cycles_total: Optional[int]
    restorable: bool
    #: JSON rendering of the :class:`CampaignState` (``None`` for pure
    #: progress reports, e.g. pilot-protocol mid-run cycle counts).
    state: Optional[Dict[str, Any]]
    written_at: float

    def campaign_state(self) -> CampaignState:
        """Decode the embedded state (only for restorable records)."""
        if not self.restorable or self.state is None:
            raise StoreError(
                f"checkpoint for run {self.run_id!r} at cycle {self.cycle} "
                "is a progress report, not a restorable state"
            )
        return CampaignState.from_dict(self.state)


class CheckpointStore:
    """Per-run cycle-checkpoint files under one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self._directory = Path(directory)
        #: Appends since this store last rewrote each run's file; a run
        #: missing here gets a rewrite on its next save.  Unlocked: a run
        #: has one writer at a time (its lease holder), and each worker
        #: owns its store.
        self._appends: Dict[str, int] = {}

    @property
    def directory(self) -> Path:
        return self._directory

    def path(self, fingerprint: str) -> Path:
        return self._directory / f"{fingerprint}.jsonl"

    def fingerprints(self) -> List[str]:
        """Runs with a checkpoint file, sorted."""
        if not self._directory.is_dir():
            return []
        return sorted(path.stem for path in self._directory.glob("*.jsonl"))

    # -- writes ---------------------------------------------------------------- #

    def save(
        self,
        fingerprint: str,
        state: CampaignState,
        *,
        run_id: str,
        worker: str,
    ) -> SavedCheckpoint:
        """Record ``state`` as the run's newest checkpoint.

        The record is serialised once.  Usually it is then appended to the
        run's file as one line (:meth:`_append`).  A store's first save of
        a run, and every save after :data:`LADDER_DEPTH` appends, rewrites
        the file instead: the newest ``LADDER_DEPTH - 1`` complete lines are
        carried forward, the new one added, and the result replaces the file
        atomically.  So the file never exceeds ``2 · LADDER_DEPTH`` lines,
        and the previous-cycle fallback always has something to fall back
        to.

        No per-cycle fsync: checkpoints accelerate recovery, they do not
        gate correctness — a checkpoint lost to a power cut only costs
        re-execution, while an fsync per cycle would dominate the runtime
        of short campaigns.  Either path is one ``checkpoint.save``
        failpoint crossing; an injected tear loses at most the newest
        line(s), which the previous-cycle fallback absorbs.
        """
        restorable = bool(state.restorable and state.payload is not None)
        record = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "run_id": run_id,
            "worker": worker,
            "cycle": state.cycle,
            "cycles_total": state.cycles_total,
            "restorable": restorable,
            "state": state.as_dict() if restorable else None,
            "written_at": time.time(),
        }
        line = json.dumps(record, sort_keys=True)
        path = self.path(fingerprint)
        appends = self._appends.get(fingerprint)
        if appends is None or appends >= LADDER_DEPTH:
            lines = self._raw_lines(path)[-(LADDER_DEPTH - 1):] if LADDER_DEPTH > 1 else []
            lines.append(line)
            atomic_write_text(
                path, "\n".join(lines) + "\n", fsync=False,
                failpoint_site="checkpoint.save",
            )
            self._appends[fingerprint] = 0
        else:
            # Counted before the write: a torn append still adds a line.
            self._appends[fingerprint] = appends + 1
            self._append(path, line)
        # json.dumps escapes non-ASCII, so characters are bytes here.
        return SavedCheckpoint(path, len(line) + 1)

    @staticmethod
    def _append(path: Path, line: str) -> None:
        """Append ``line`` to ``path`` with one ``os.write`` (``O_APPEND``).

        A file whose last byte is not a newline ends in a torn line; a
        newline is written first so the torn bytes stay one skippable line
        and the new one parses.  The write is the ``checkpoint.save``
        failpoint: ``io_error``/``enospc`` raise before the file is touched,
        ``crash_before_rename`` dies before the write (the append's commit
        point), ``torn_write`` persists half the line and raises, and
        ``crash_after_write`` dies once the line has landed.
        """
        event = faults.failpoint("checkpoint.save")
        if event is not None:
            if event.kind in ("io_error", "enospc"):
                faults.raise_error(event)
            if event.kind == "crash_before_rename":
                faults.crash(event)
        data = (line + "\n").encode("utf-8")
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                os.write(fd, b"\n")
            if event is not None and event.kind == "torn_write":
                os.write(fd, data[: max(1, len(data) // 2)])
                faults.raise_error(event)
            if os.write(fd, data) != len(data):
                raise OSError(f"short write appending a checkpoint to {path}")
        finally:
            os.close(fd)
        if event is not None and event.kind == "crash_after_write":
            faults.crash(event)

    def discard(self, fingerprint: str) -> None:
        """Drop a run's checkpoints (after its finished record is stored)."""
        self._appends.pop(fingerprint, None)
        try:
            self.path(fingerprint).unlink()
        except FileNotFoundError:
            pass

    @staticmethod
    def _raw_lines(path: Path) -> List[str]:
        """Complete (newline-terminated, non-blank) lines of ``path``."""
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        lines = text.split("\n")
        if lines and lines[-1] != "":
            lines.pop()  # truncated tail from a torn write: drop it
        return [line for line in lines if line.strip()]

    # -- reads ----------------------------------------------------------------- #

    def records(self, fingerprint: str) -> List[CheckpointRecord]:
        """Every parseable checkpoint of a run, oldest first.

        Torn/garbled lines are skipped (that is the previous-cycle
        fallback); a line stamped with an unknown ``schema_version`` raises
        :class:`StoreError` — a wrong-schema resume must fail loudly, not
        fall through to a silently stale cycle.
        """
        path = self.path(fingerprint)
        records: List[CheckpointRecord] = []
        for line in self._raw_lines(path):
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line: fall back to neighbours
            if not isinstance(payload, dict):
                continue
            version = payload.get("schema_version")
            if version not in READABLE_SCHEMA_VERSIONS:
                raise StoreError(
                    f"checkpoint {path} has schema_version {version!r}; this "
                    f"build reads versions {READABLE_SCHEMA_VERSIONS}. Discard "
                    "the checkpoint (the run re-executes from the start) or "
                    "resume it with a matching build."
                )
            try:
                records.append(
                    CheckpointRecord(
                        schema_version=version,
                        fingerprint=payload["fingerprint"],
                        run_id=payload["run_id"],
                        worker=payload["worker"],
                        cycle=payload["cycle"],
                        cycles_total=payload["cycles_total"],
                        restorable=payload["restorable"],
                        state=payload["state"],
                        written_at=payload["written_at"],
                    )
                )
            except KeyError:
                continue  # structurally incomplete line: skip like a torn one
        return records

    def latest(self, fingerprint: str) -> Optional[CheckpointRecord]:
        """The newest parseable checkpoint of a run, if any."""
        records = self.records(fingerprint)
        return records[-1] if records else None

    def latest_restorable(self, fingerprint: str) -> Optional[CampaignState]:
        """The newest checkpoint a fresh process can actually resume from.

        Walks the ladder newest-first past progress-only and torn entries;
        returns ``None`` when the run must start from the beginning.
        """
        for record in reversed(self.records(fingerprint)):
            if record.restorable and record.state is not None:
                return record.campaign_state()
        return None
