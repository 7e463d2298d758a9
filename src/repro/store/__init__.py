"""Persistent run store: streaming results, RunSpec-keyed caching, sharding.

Where :mod:`repro.experiments` *executes* scenario matrices, this package
makes them durable artifacts:

* :mod:`repro.store.fingerprint` — canonical JSON + sha256 content identity
  for :class:`~repro.experiments.spec.RunSpec` (stable across processes,
  hash seeds and knob-dict ordering).
* :mod:`repro.store.runstore` — :class:`RunStore`, an append-only JSONL file
  of finished runs keyed by fingerprint, with lazy loads, crash-safe appends
  and :func:`merge_stores` for combining shards.
* :mod:`repro.store.checkpoint` — :class:`CheckpointStore`, fingerprint-keyed
  per-cycle campaign checkpoints (atomic replace, torn-line fallback to the
  previous cycle, schema-versioned) backing mid-run suspend/resume and
  preemptive work stealing.
* :mod:`repro.store.migrate` — the schema-version migration registry and
  ``migrate`` rewriter for run stores.
* :mod:`repro.store.shard` — the deterministic ``runs[i::n]`` cross-machine
  partition of an expanded sweep.
* :mod:`repro.store.cli` — ``python -m repro.store`` (``inspect`` / ``merge``
  / ``report`` / ``prune`` / ``migrate``).

Runs read and write stores but never migrate or shard them, so the
:mod:`~repro.store.migrate` and :mod:`~repro.store.shard` names resolve
lazily (PEP 562, :mod:`repro._lazy`); the run-path modules (run store,
checkpoints, codec, fingerprint) are imported eagerly.

Resumable sweep in four lines::

    from repro.experiments import CampaignSuite, SweepSpec
    from repro.store import RunStore

    store = RunStore("sweep.jsonl")
    outcome = CampaignSuite(SweepSpec(seeds=(0, 1, 2))).run(store=store)
    # edit the sweep, re-run: only the new cells execute
    outcome = CampaignSuite(SweepSpec(seeds=(0, 1, 2, 3))).run(store=store)
"""

from repro.store.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointRecord,
    CheckpointStore,
)
from repro.store.codec import decode_run_spec, encode_run_spec
from repro.store.fingerprint import canonical_json, run_fingerprint
from repro.store.runstore import (
    STORE_SCHEMA_VERSION,
    RunStore,
    StoredCampaignResult,
    StoredRun,
    merge_stores,
    prune_store,
)
from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.store.migrate": ("migrate_payload", "migrate_store", "register_migration"),
        "repro.store.shard": ("parse_shard", "shard_runs"),
    },
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "CheckpointRecord",
    "CheckpointStore",
    "RunStore",
    "StoredCampaignResult",
    "StoredRun",
    "canonical_json",
    "decode_run_spec",
    "encode_run_spec",
    "merge_stores",
    "migrate_payload",
    "migrate_store",
    "parse_shard",
    "prune_store",
    "register_migration",
    "run_fingerprint",
    "shard_runs",
]
