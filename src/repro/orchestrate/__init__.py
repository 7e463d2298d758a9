"""Fault-tolerant multi-worker sweep orchestration with dynamic work stealing.

Where :mod:`repro.experiments` executes a sweep inside one process and
:mod:`repro.store` makes the results durable, this package coordinates *many
worker processes* — on one machine or many nodes sharing a filesystem — so
uneven run times stop costing wall-clock: the pilot-style pattern of the
paper's IM-RP runtime, applied to the reproduction's own campaign sweeps.

* :mod:`repro.orchestrate.queue` — the shared queue directory: an expanded
  sweep manifest plus fingerprint-keyed claim/done marker files, all mutated
  with atomic filesystem primitives (``O_EXCL`` create, temp + rename).  No
  network, no server.
* :mod:`repro.orchestrate.lease` — heartbeat leases over claim files: live
  workers keep their claims fresh; claims of crashed or stalled workers
  expire and are *stolen* by survivors, so no run is ever lost.
* :mod:`repro.orchestrate.worker` — the claim/execute/stream/mark-done loop
  (``python -m repro.orchestrate worker``), streaming finished runs into a
  per-worker :class:`~repro.store.RunStore`.
* :mod:`repro.orchestrate.coordinator` — ``status`` progress snapshots and
  ``finalize``, which merges the per-worker stores into one canonical,
  fingerprint-sorted store feeding
  :func:`repro.analysis.comparison.protocol_matrix_from_store`.
* :mod:`repro.orchestrate.chaos` — the soak harness
  (``python -m repro.orchestrate chaos``): a real multi-worker sweep under a
  seeded :class:`~repro.faults.FaultPlan` plus adversary SIGKILLs, verified
  byte-for-byte against a clean serial run.
* :mod:`repro.orchestrate.scaling` — the scaling-study harness
  (``python -m repro.orchestrate scale``): the same sweep at each requested
  fleet size under tracing, byte-compared across sizes and reduced to the
  paper-style speedup/utilization table.

Determinism contract, extended to distributed execution: for a fixed sweep
the finalized store's science bytes are independent of worker count, claim
interleaving and steal history, and (timing stripped) byte-identical to a
canonicalised serial ``CampaignSuite.run(store=...)`` store.

The two harnesses drive workers but are not part of one, so their names
resolve lazily (PEP 562, :mod:`repro._lazy`); the queue, lease, worker and
coordinator modules every drain runs are imported eagerly.
"""

from repro.orchestrate.coordinator import finalize_queue, queue_progress
from repro.orchestrate.lease import (
    ClaimLease,
    Heartbeat,
    HeartbeatError,
    read_lease,
    release_claim,
    try_claim,
    try_steal,
)
from repro.orchestrate.queue import QueueEntry, WorkQueue, validate_worker_id
from repro.orchestrate.worker import (
    RunTimeout,
    WorkerOutcome,
    default_worker_id,
    run_worker,
)
from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.orchestrate.chaos": ("ChaosReport", "run_chaos"),
        "repro.orchestrate.scaling": ("ScalingRun", "run_scaling_study"),
    },
)

__all__ = [
    "ChaosReport",
    "ClaimLease",
    "Heartbeat",
    "HeartbeatError",
    "QueueEntry",
    "RunTimeout",
    "ScalingRun",
    "WorkQueue",
    "WorkerOutcome",
    "run_scaling_study",
    "default_worker_id",
    "finalize_queue",
    "queue_progress",
    "read_lease",
    "release_claim",
    "run_chaos",
    "run_worker",
    "try_claim",
    "try_steal",
    "validate_worker_id",
]
