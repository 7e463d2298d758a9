"""Benchmark entry point: time one workload end to end, or trace it by layer.

    python3 perfbench/run.py --workload ref-sweep --seed 0 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``repetition.py``), because a
CLI sweep pays its per-process cold costs every time.  With ``--trace 0``
repetitions repeat until ``--seconds`` have passed, and
``summary.end_to_end`` reduces them to the end-to-end metrics: timings
scaled by a speed probe taken around each repetition, then the median per
sweep, averaged over the seed's sweeps.  With ``--trace 1`` untraced
repetitions fill half the time and one traced repetition follows; the
per-layer metrics come from it, and ``trace.overhead_ratio`` compares its
probe-scaled wall time with the untraced repetitions' of the same sweep.
Every repetition of a sweep must hash its canonical store to the same
sha256, and at the default seed to the digest pinned in ``workloads.py``.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero,
printing no result, when a repetition cannot run at all (for example when
the program's sources are absent).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import summary  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, sweep_seeds  # noqa: E402

#: Program switches a repetition must not inherit.
STRIPPED_ENV = ("REPRO_TELEMETRY", "REPRO_FAULTS", "REPRO_LOG_LEVEL")

#: Hard limit on one invocation, under the 180 s the contract allows.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A repetition could not run or did not report."""


def _child_env(workdir: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def _spawn(args: List[str], workdir: Path, deadline: float) -> str:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=_child_env(workdir),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from error
    if proc.returncode != 0:
        raise BenchError(
            f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return proc.stdout


def repetition(
    workload: str, sweep_seed: int, trace: int, workdir: Path, deadline: float
) -> Tuple[dict, float]:
    """One fresh-interpreter repetition: ``(report, monotonic spawn instant)``."""
    workdir.mkdir(parents=True)
    probe_before = summary.probe_seconds()
    spawned = time.monotonic()
    stdout = _spawn(
        [
            str(HERE / "repetition.py"),
            "--workload", workload,
            "--sweep-seed", str(sweep_seed),
            "--trace", str(trace),
            "--workdir", str(workdir),
        ],
        workdir,
        deadline,
    )
    probe_after = summary.probe_seconds()
    shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("repetition printed no report")
    report = json.loads(lines[-1])
    report["probe_s"] = (probe_before + probe_after) / 2
    return report, spawned


def measure(args: argparse.Namespace, work_root: Path) -> Tuple[List[dict], List[float], dict]:
    """Untraced repetitions (and the traced one, with ``--trace 1``)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    # Compile bytecode and fill the page cache before anything is timed.
    _spawn(["-c", "import repro.orchestrate, repro.experiments"], work_root, deadline)
    budget = args.seconds / 2 if args.trace else args.seconds
    sweeps = sweep_seeds(args.seed)
    reports: List[dict] = []
    spawned: List[float] = []
    # Rotate through the seed's sweeps; every sweep runs at least once.
    while len(reports) < len(sweeps) or time.monotonic() - start < budget:
        report, at = repetition(
            args.workload,
            sweeps[len(reports) % len(sweeps)],
            0,
            work_root / f"rep-{len(reports)}",
            deadline,
        )
        reports.append(report)
        spawned.append(at)
    traced = None
    if args.trace:
        traced, _ = repetition(args.workload, sweeps[0], 1, work_root / "traced", deadline)
    return reports, spawned, traced


def _print_environment(args: argparse.Namespace, reports: List[dict]) -> None:
    first = reports[0]
    print(
        f"perfbench {args.workload}: seed={args.seed} repetitions={len(reports)} "
        f"nproc={os.cpu_count()} python={first['python']} numpy={first['numpy']} "
        f"unset={','.join(STRIPPED_ENV)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_root = HERE / ".work" / str(os.getpid())
    work_root.mkdir(parents=True, exist_ok=True)
    try:
        reports, spawned, traced = measure(args, work_root)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    pinned = (
        dict(zip(sweep_seeds(args.seed), workload.pinned_digests))
        if args.seed == DEFAULT_SEED
        else {}
    )
    checked = reports + ([traced] if traced else [])
    attempted, failed, problems = summary.check_outputs(checked, pinned)
    e2e = summary.end_to_end(reports, spawned)

    _print_environment(args, reports)
    for name, unit in summary.END_TO_END_UNITS.items():
        print(f"  {name:<18} {e2e[name]:.6g} {unit}")
    walls = sorted(report["wall_s"] for report in reports)
    probes = sorted(report["probe_s"] for report in reports)
    print(
        f"  {'unscaled wall_s':<18} fastest {walls[0]:.6g} s, median "
        f"{statistics.median(walls):.6g} s; probe median {statistics.median(probes):.6g} s "
        f"(nominal {summary.NOMINAL_PROBE_S} s)"
    )
    latencies = [sample for report in reports for sample in report["latencies"]]
    p90, beyond = summary.reportable_percentile(latencies, 0.9)
    print(
        f"  {'run_p90_s':<18} "
        + (f"{p90:.6g} s" if p90 is not None else "not reported")
        + f" (n={len(latencies)}, {beyond} beyond p90)"
    )
    print(f"  {'fail_ratio':<18} {failed / attempted:.6g} ratio ({failed}/{attempted} runs)")
    for sweep_seed in sweep_seeds(args.seed):
        digests = {r["digest"] for r in checked if r["sweep_seed"] == sweep_seed}
        state = "pinned" if sweep_seed in pinned else "not pinned at this seed"
        print(f"  sweep {sweep_seed} digest {' '.join(map(str, digests))} ({state})")
    for problem in problems:
        print(f"  problem: {problem}")

    if traced is None:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in summary.END_TO_END_UNITS.items()
        }
    else:
        values = dict(traced["layers"])
        untraced = summary.by_sweep(reports)[traced["sweep_seed"]]
        values["trace.overhead_ratio"] = summary.median_wall([traced]) / summary.median_wall(
            untraced
        )
        metrics = {}
        last_moves = None
        for name, unit, _, moves in spans.catalog():
            metrics[name] = {"value": values[name], "unit": unit}
            note = f"should move {moves}" if moves != last_moves else ""
            print(f"  {name:<36} {values[name]:<12.6g} {unit:<6} {note}")
            last_moves = moves
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
