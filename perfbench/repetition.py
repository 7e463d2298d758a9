"""One repetition of one workload, in a fresh interpreter.

Run by ``perfbench/run.py``; not meant to be run by hand.  Prints one JSON
object as its last stdout line: the monotonic instants that bound set-up and
the timed region, per-run latencies, the canonical store's sha256, failure
counts, peak RSS and, with ``--trace 1``, the per-layer totals.

The timed region starts when the sweep is handed to its engine
(``CampaignSuite.run`` or the first ``run_worker``) and ends when the
canonical, timing-stripped store is on disk.  Everything before it
(interpreter start, imports, sweep expansion, store or queue creation) is
set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# The program is reached through module attributes only, never names bound
# here, so the traced repetition's wrappers sit on every call it makes.
import repro.orchestrate as orchestrate  # noqa: E402
import repro.store as store_api  # noqa: E402
from repro import faults  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec  # noqa: E402
from repro.experiments import suite as suite_module  # noqa: E402
from repro.store import RunStore  # noqa: E402
from repro.store.fingerprint import run_fingerprint  # noqa: E402
from repro.telemetry import api as telemetry  # noqa: E402

#: Stream label of the repetition's own thread in program telemetry.
HARNESS_STREAM = "perfbench"


def sweep_for(workload: Workload, sweep_seed: int) -> SweepSpec:
    """The sweep the program receives for ``workload`` at ``sweep_seed``."""
    return SweepSpec(
        protocols=workload.protocols,
        seeds=workload.campaign_seeds(sweep_seed),
        targets=TargetSpec(
            kind=workload.target_kind, seed=sweep_seed, n_targets=workload.n_targets
        ),
        base=dict(workload.base),
    )


class _DurableTimes:
    """A ``RunStore`` stand-in that notes when each append is on disk."""

    def __init__(self, store: RunStore) -> None:
        self._store = store
        self.durable_at: List[float] = []

    def fingerprint(self, spec):
        return self._store.fingerprint(spec)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._store

    def get(self, fingerprint: str):
        return self._store.get(fingerprint)

    def append(self, record, **kwargs) -> str:
        fingerprint = self._store.append(record, **kwargs)
        self.durable_at.append(time.monotonic())
        return fingerprint


def run_suite(workload: Workload, sweep: SweepSpec, workdir: Path) -> dict:
    """Serial ``CampaignSuite`` into a ``RunStore``, then the canonical prune."""
    store = _DurableTimes(RunStore(workdir / "suite.jsonl"))
    suite = CampaignSuite(sweep, executor="serial")
    canonical = workdir / "canonical.jsonl"
    dispatched = time.monotonic()
    error = None
    try:
        outcome = suite.run(store=store)
        store_api.prune_store(workdir / "suite.jsonl", canonical, strip_timing=True)
        finished = time.monotonic()
    except ReproError as caught:
        finished, error = time.monotonic(), caught
    starts = [dispatched] + store.durable_at[:-1]
    return {
        "dispatched": dispatched,
        "finished": finished,
        "canonical": canonical,
        "latencies": [end - start for start, end in zip(starts, store.durable_at)],
        "execute_s": 0.0 if error else outcome.total_run_seconds,
        "worker_wall_s": 0.0 if error else outcome.wall_seconds,
        "error": error,
    }


def run_queue(workload: Workload, sweep: SweepSpec, workdir: Path) -> dict:
    """``WorkQueue.create`` -> threaded ``run_worker`` drain -> ``finalize_queue``."""
    queue = orchestrate.WorkQueue.create(workdir / "queue", sweep)
    canonical = workdir / "canonical.jsonl"
    claimed: Dict[str, float] = {}
    done: Dict[str, float] = {}

    def on_progress(event: str, entry) -> None:
        if event in ("claim", "steal"):
            claimed[entry.fingerprint] = time.monotonic()
        elif event == "done":
            done[entry.fingerprint] = time.monotonic()

    def worker(index: int):
        return orchestrate.run_worker(
            queue,
            worker_id=f"w{index}",
            execute=suite_module.execute_run,
            checkpoint_seconds=workload.checkpoint_seconds,
            wait=False,
            on_progress=on_progress,
        )

    dispatched = time.monotonic()
    error = None
    outcomes = []
    try:
        if workload.telemetry:
            with telemetry.scoped(queue.path / "telemetry", HARNESS_STREAM):
                outcomes = _drain(worker, workload.workers)
        else:
            outcomes = _drain(worker, workload.workers)
        orchestrate.finalize_queue(queue, canonical, strip_timing=True)
        finished = time.monotonic()
    except ReproError as caught:
        finished, error = time.monotonic(), caught
    execute_s = 0.0
    for path in queue.worker_store_paths():
        execute_s += sum(
            payload["wall_seconds"] for payload in RunStore(path).iter_payloads()
        )
    return {
        "dispatched": dispatched,
        "finished": finished,
        "canonical": canonical,
        "latencies": [done[fp] - claimed[fp] for fp in done if fp in claimed],
        "execute_s": execute_s,
        "worker_wall_s": sum(outcome.wall_seconds for outcome in outcomes),
        "error": error,
        "telemetry_bytes": _tree_bytes(queue.path / "telemetry"),
    }


def _drain(worker, n_workers: int) -> list:
    if n_workers == 1:
        return [worker(0)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(worker, index) for index in range(n_workers)]
        return [future.result() for future in futures]


def _tree_bytes(directory: Path) -> int:
    if not directory.is_dir():
        return 0
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def check_environment() -> None:
    """Refuse to measure under an active fault plan or inherited tracing."""
    if faults.active_plan() is not None:
        raise SystemExit("perfbench: refusing to run while a fault plan is active")
    if telemetry.enabled():
        raise SystemExit("perfbench: refusing to run with program telemetry inherited")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--sweep-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    check_environment()

    workload = WORKLOADS[args.workload]
    sweep = sweep_for(workload, args.sweep_seed)
    expected = {run_fingerprint(spec) for spec in sweep.expand()}
    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = patcher = None
    if args.trace:
        tracer, patcher = spans.Tracer(), spans.Patcher()
        spans.install(tracer, patcher)
    try:
        engine = run_suite if workload.engine == "suite" else run_queue
        outcome = engine(workload, sweep, args.workdir)
    finally:
        if patcher is not None:
            patcher.restore()

    canonical: Path = outcome["canonical"]
    payload = canonical.read_bytes() if canonical.exists() else b""
    records = RunStore(canonical).records() if payload else []
    stored = {record.fingerprint for record in records}
    designs = sum(record.result.n_trajectories for record in records)
    wall = outcome["finished"] - outcome["dispatched"]
    report = {
        "sweep_seed": args.sweep_seed,
        "dispatched": outcome["dispatched"],
        "wall_s": wall,
        "designs": designs,
        "runs": len(expected),
        "missing": len(expected - stored),
        "unexpected": len(stored - expected),
        "error": None if outcome["error"] is None else str(outcome["error"]),
        "digest": hashlib.sha256(payload).hexdigest() if payload else None,
        "latencies": outcome["latencies"],
        "execute_s": outcome["execute_s"],
        "workers": workload.workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        totals = tracer.totals()
        layers = spans.layer_metrics(totals)
        layers["telemetry.write.bytes"] = float(outcome.get("telemetry_bytes", 0))
        layers["orchestrate.worker_idle_s"] = max(
            0.0, outcome["worker_wall_s"] - layers["experiments.execute_run.s"]
        )
        covered = sum(layer.self_seconds for layer in totals.values())
        layers["trace.coverage"] = covered / (workload.workers * wall) if wall else 0.0
        report["layers"] = layers
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
