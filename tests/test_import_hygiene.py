"""A process imports only the modules its runs execute.

Every fresh worker process pays ``repro``'s cold start, so the package
namespaces resolve off-path names lazily (:mod:`repro._lazy`) and the run
path stays eager.  Each check runs in a fresh interpreter, since this test
process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: Modules no run executes, each with the reason it is off every run path.
OFF_RUN_PATH = {
    "repro.analysis.comparison": "Table I / protocol matrix: CLI and example reports",
    "repro.analysis.reporting": "plain-text tables for CLIs, examples and benches",
    "repro.analysis.makespan": "Fig 5 phase breakdown, read after a campaign",
    "repro.analysis.utilization": "Figs 4/5 utilization reports, read after a campaign",
    "repro.analysis.scaling": "reduces `orchestrate scale` telemetry after the drains",
    "repro.analysis.timeline": "reads telemetry streams for `status`/`report`",
    "repro.orchestrate.chaos": "the soak harness drives workers, it is not one",
    "repro.orchestrate.scaling": "the scaling harness drives workers, it is not one",
    "repro.core.genetic": "no registered protocol runs the genetic optimizer",
    "repro.protein.mutation": "used only by the genetic optimizer",
    "repro.store.migrate": "rewrites old stores offline (`store migrate`)",
    "repro.store.shard": "partitions a sweep before the suite runs (`--shard`)",
    "repro.utils.logging": "no run logs",
    "concurrent.futures.process": "only a process-pool suite starts a pool",
}


def _fresh_report(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    env.pop("REPRO_TELEMETRY", None)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_run_path_imports_load_no_off_path_module():
    loaded = _fresh_report(
        """
        import json, sys
        import repro.experiments.suite, repro.orchestrate.worker, repro.store
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert sorted(set(OFF_RUN_PATH) & set(loaded)) == []


def test_bare_import_loads_no_subpackage():
    loaded = _fresh_report(
        """
        import json, sys
        import repro
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert "repro.analysis" not in loaded
    assert sorted(name for name in loaded if name.startswith("repro")) == [
        "repro",
        "repro._lazy",
    ]


def test_runs_import_nothing_new_once_started(tmp_path):
    """A serial suite into a store and a traced, checkpointing queue drain
    import no ``repro`` module and not ``numpy.ma`` once they have started:
    the whole run path is paid for before the engine is handed the sweep."""
    report = _fresh_report(
        """
        import json, sys
        from pathlib import Path
        from repro import telemetry
        from repro.experiments import CampaignSuite, SweepSpec, TargetSpec
        from repro.orchestrate import WorkQueue, finalize_queue, run_worker
        from repro.store import RunStore

        work = Path(sys.argv[1])
        sweep = SweepSpec(
            protocols=("im-rp", "cont-v"),
            seeds=(0,),
            targets=TargetSpec(kind="named-pdz", seed=0),
            base={"n_cycles": 2, "n_sequences": 2},
        )
        queue = WorkQueue.create(work / "queue", sweep)
        before = set(sys.modules)
        CampaignSuite(sweep, executor="serial").run(store=RunStore(work / "suite.jsonl"))
        with telemetry.scoped(queue.path / "telemetry", "w0"):
            outcome = run_worker(queue, worker_id="w0", wait=False, checkpoint_seconds=0.0)
        finalize_queue(queue, work / "final.jsonl", strip_timing=True)
        print(json.dumps({
            "executed": outcome.n_executed,
            "new": sorted(set(sys.modules) - before),
        }))
        """,
        str(tmp_path),
    )
    assert report["executed"] == 2
    late = [name for name in report["new"] if name.startswith("repro") or name == "numpy.ma"]
    assert late == []
