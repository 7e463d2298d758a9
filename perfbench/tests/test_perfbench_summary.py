"""Reporting rules and the benchmark definition's names."""

import json
from pathlib import Path

import spans
import summary
from workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_percentile_needs_ten_samples_beyond_it():
    value, beyond = summary.reportable_percentile(list(range(1, 100)), 0.9)
    assert (value, beyond) == (None, 9)
    value, beyond = summary.reportable_percentile(list(range(1, 101)), 0.9)
    assert (value, beyond) == (90, 10)
    assert summary.reportable_percentile([], 0.9) == (None, 0)


def test_percentile_counts_ties_as_not_beyond():
    samples = [1.0] * 95 + [2.0] * 5
    assert summary.reportable_percentile(samples, 0.9) == (None, 5)


def _report(sweep_seed=0, digest="a" * 64, missing=0, error=None):
    return {
        "sweep_seed": sweep_seed,
        "runs": 4,
        "missing": missing,
        "unexpected": 0,
        "digest": digest,
        "error": error,
    }


def test_digest_mismatch_fails_every_run_of_that_sweep():
    attempted, failed, problems = summary.check_outputs(
        [_report(), _report(digest="b" * 64), _report(sweep_seed=1)], {}
    )
    assert (attempted, failed) == (12, 8)
    assert len(problems) == 1


def test_pinned_digest_applies_per_sweep():
    reports = [_report(), _report(sweep_seed=1, digest="b" * 64)]
    assert summary.check_outputs(reports, {0: "a" * 64, 1: "b" * 64}) == (8, 0, [])
    attempted, failed, problems = summary.check_outputs(reports, {0: "c" * 64})
    assert (attempted, failed) == (8, 4)


def test_missing_runs_count_as_failed():
    assert summary.check_outputs([_report(missing=1), _report()], {})[:2] == (8, 1)


def _timed(sweep_seed, wall, probe, dispatched=0.5):
    return {
        "sweep_seed": sweep_seed,
        "wall_s": wall,
        "probe_s": probe,
        "dispatched": dispatched,
        "designs": 100,
        "latencies": [wall / 2, wall],
        "execute_s": wall,
        "workers": 1,
        "peak_rss_mb": 50.0,
    }


def test_timings_are_probe_scaled_median_per_sweep_then_averaged():
    nominal = summary.NOMINAL_PROBE_S
    reports = [
        _timed(0, 2.0, nominal),
        _timed(1, 4.0, nominal),
        # Ran at half speed: the probe took twice as long, so it scales to 2.0.
        _timed(0, 4.0, 2 * nominal),
        _timed(1, 6.0, nominal),
    ]
    metrics = summary.end_to_end(reports, spawned=[0.0] * 4)
    assert metrics["wall_s"] == (2.0 + 5.0) / 2
    assert metrics["designs_per_s"] == 200 / 7.0
    assert metrics["setup_s"] == 0.5
    assert metrics["run_p50_s"] == (1.5 + 3.75) / 2


def test_names_follow_the_contract():
    names = [workload for workload in WORKLOADS]
    names += [name for name, *_ in spans.catalog()]
    names += list(summary.END_TO_END_UNITS)
    for section in ("workloads", "end_to_end", "per_layer"):
        names += [entry["name"] for entry in BENCHMARK[section]]
    for name in names:
        assert summary.NAME_RE.match(name), name


def test_benchmark_json_matches_what_run_py_reports():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]} == (
        summary.END_TO_END_UNITS
    )
    assert [
        (entry["name"], entry["unit"], entry["better"]) for entry in BENCHMARK["per_layer"]
    ] == [(name, unit, better) for name, unit, better, _ in spans.catalog()]
