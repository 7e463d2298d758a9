"""Reducing repetitions to the benchmark's metrics.

Apart from the speed probe, these are pure functions over the JSON reports
that ``repetition.py`` prints, so the rules (how timings are scaled and
combined, which percentile may be reported, what counts as a failed run,
how the output digests are checked) are testable without running a sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Metric and workload names, as the benchmark contract spells them.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: ``name -> unit`` for every end-to-end metric, in report order.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "designs_per_s": "1/s",
    "run_p50_s": "s",
    "fleet_efficiency": "ratio",
    "peak_rss_mb": "MB",
}


#: What :func:`probe_seconds` takes at this host's typical speed (x86-64,
#: 2 vCPUs, Python 3.11, NumPy 2.4).  Only a scale: timings are reported in
#: seconds at that speed, whatever the host's speed while they were measured.
NOMINAL_PROBE_S = 0.016


def _probe_once() -> float:
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    records = {}
    total = 0.0
    for index in range(600):
        values = rng.random(20)
        total += float(np.clip(values, 0.1, 0.9).mean()) + float(np.linalg.norm(values))
        records[str(index)] = {
            "head": [float(value) for value in values[:5]],
            "key": hashlib.sha256(str(index).encode()).hexdigest(),
        }
    json.dumps(records, sort_keys=True)
    return time.perf_counter() - start


def probe_seconds() -> float:
    """Time a fixed mix of the program's kinds of work (small NumPy calls,
    dicts, hashing, JSON) that no change to the program can move.

    Co-tenants on a shared host slow this process down for stretches of
    seconds to minutes.  The mean of the probes taken just before and just
    after a repetition describes the speed that repetition ran at, so
    ``NOMINAL_PROBE_S / probe`` converts its timings to the host's typical
    speed.
    """
    return statistics.median(_probe_once() for _ in range(5))


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reportable_percentile(
    samples: Sequence[float], q: float
) -> Tuple[Optional[float], int]:
    """``(value, n_beyond)``; ``value`` is ``None`` when fewer than
    :data:`MIN_SAMPLES_BEYOND` samples lie strictly beyond the percentile."""
    if not samples:
        return None, 0
    value = nearest_rank(samples, q)
    beyond = sum(1 for sample in samples if sample > value)
    return (value if beyond >= MIN_SAMPLES_BEYOND else None), beyond


def scale(report: dict) -> float:
    """Factor converting ``report``'s timings to the host's typical speed."""
    return NOMINAL_PROBE_S / report["probe_s"]


def by_sweep(reports: Sequence[dict]) -> Dict[int, List[dict]]:
    """Repetitions grouped by the sweep they ran, in first-run order."""
    groups: Dict[int, List[dict]] = {}
    for report in reports:
        groups.setdefault(report["sweep_seed"], []).append(report)
    return groups


def median_wall(reports: Sequence[dict]) -> float:
    """The median probe-scaled wall time of ``reports``."""
    return statistics.median(report["wall_s"] * scale(report) for report in reports)


def end_to_end(reports: Sequence[dict], spawned: Sequence[float]) -> Dict[str, float]:
    """End-to-end metrics over untraced repetitions of a seed's sweeps.

    Every timing is first scaled to the host's typical speed by the probes
    taken around its repetition.  Each sweep contributes the median of its
    repetitions, and timings are averaged over the sweeps, so one
    measurement averages the cost of several inputs.  ``spawned[i]`` is the
    monotonic instant repetition ``i`` was started, so set-up covers
    interpreter start, imports and sweep/queue creation.
    """
    sweeps = list(by_sweep(reports).values())
    walls = [median_wall(group) for group in sweeps]
    designs = [group[0]["designs"] for group in sweeps]
    return {
        "setup_s": statistics.median(
            (report["dispatched"] - start) * scale(report)
            for report, start in zip(reports, spawned)
        ),
        "wall_s": statistics.mean(walls),
        "designs_per_s": sum(designs) / sum(walls),
        "run_p50_s": statistics.mean(
            statistics.median(
                statistics.median(report["latencies"]) * scale(report) for report in group
            )
            for group in sweeps
        ),
        "fleet_efficiency": statistics.median(
            report["execute_s"] / (report["workers"] * report["wall_s"])
            for report in reports
        ),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in reports),
    }


def check_outputs(
    reports: Sequence[dict], pinned: Dict[int, str]
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every repetition of a workload.

    A run fails when its repetition raised, lost or quarantined it (it then
    has no canonical record), or when the canonical store holds a record
    nobody asked for.  Every repetition of one sweep must produce the same
    digest, equal to ``pinned[sweep_seed]`` where one is pinned; on a
    mismatch every run of that sweep counts as failed.
    """
    attempted = failed = 0
    problems = [report["error"] for report in reports if report["error"] is not None]
    for sweep_seed, group in by_sweep(reports).items():
        runs = sum(report["runs"] for report in group)
        attempted += runs
        digests = {report["digest"] for report in group}
        mismatch = None
        if len(digests) != 1 or None in digests:
            mismatch = f"repetitions disagree on the output digest: {sorted(map(str, digests))}"
        elif sweep_seed in pinned and digests != {pinned[sweep_seed]}:
            mismatch = f"output digest {next(iter(digests))} != pinned {pinned[sweep_seed]}"
        if mismatch is None:
            failed += sum(report["missing"] + report["unexpected"] for report in group)
        else:
            problems.append(f"sweep {sweep_seed}: {mismatch}")
            failed += runs
    return attempted, min(failed, attempted), problems
