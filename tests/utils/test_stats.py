"""Tests for summary statistics and net-delta computations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    bootstrap_ci,
    linear_quantile,
    median_and_spread,
    net_delta_percent,
    relative_change,
    sorted_median,
    summarize,
)


class TestSummarize:
    def test_basic_moments(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0

    def test_half_std_is_half(self):
        stats = summarize([1.0, 5.0, 9.0])
        assert stats.half_std == pytest.approx(stats.std / 2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_single_value(self):
        stats = summarize([3.0])
        assert stats.std == 0.0
        assert stats.median == 3.0

    def test_as_dict_keys(self):
        keys = set(summarize([1.0, 2.0]).as_dict())
        assert {"count", "mean", "median", "std", "half_std", "min", "max"} <= keys

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_median_within_range(self, values):
        stats = summarize(values)
        assert stats.minimum - 1e-9 <= stats.median <= stats.maximum + 1e-9


class TestMedianAndSpread:
    def test_matches_numpy(self):
        values = [3.0, 1.0, 2.0, 10.0]
        median, half_std = median_and_spread(values)
        assert median == pytest.approx(np.median(values))
        assert half_std == pytest.approx(np.std(values) / 2.0)


class TestRelativeChange:
    def test_positive_change(self):
        assert relative_change(10.0, 15.0) == pytest.approx(0.5)

    def test_negative_change(self):
        assert relative_change(10.0, 5.0) == pytest.approx(-0.5)

    def test_zero_to_zero(self):
        assert relative_change(0.0, 0.0) == 0.0

    def test_zero_initial_positive_final(self):
        assert relative_change(0.0, 1.0) == np.inf

    def test_negative_initial_uses_absolute(self):
        # pAE-style improvements (from -6.7 to -6.61) stay interpretable.
        assert relative_change(-10.0, -5.0) == pytest.approx(0.5)


class TestNetDeltaPercent:
    def test_simple_percentage(self):
        assert net_delta_percent(0.28, 0.32) == pytest.approx(14.2857, rel=1e-3)

    def test_matches_paper_plddt_style(self):
        # A 5.8 -> 7.7 style change expressed in percent of the start.
        assert net_delta_percent(100.0, 107.7) == pytest.approx(7.7)


class TestBootstrapCI:
    def test_contains_true_median_for_tight_sample(self):
        values = [5.0] * 30
        low, high = bootstrap_ci(values, seed=1)
        assert low == pytest.approx(5.0)
        assert high == pytest.approx(5.0)

    def test_interval_ordering(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100)
        low, high = bootstrap_ci(values, seed=2)
        assert low <= high

    def test_deterministic_for_fixed_seed(self):
        values = list(range(20))
        assert bootstrap_ci(values, seed=3) == bootstrap_ci(values, seed=3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_bad_alpha_raises(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], alpha=1.5)


def _random_samples(seed: int, count: int):
    """``count`` random finite float64 arrays of length 1-200: wide-range
    normals, small-integer samples full of ties, and uniform metric-like
    values."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        length = int(rng.integers(1, 201))
        kind = index % 3
        if kind == 0:
            yield rng.normal(size=length) * 10.0 ** rng.integers(-6, 7)
        elif kind == 1:
            yield rng.integers(-3, 4, size=length).astype(float)
        else:
            yield rng.uniform(0.0, 100.0, size=length)


class TestNumpyFreeOrderStatistics:
    """``sorted_median`` / ``linear_quantile`` stand in for ``np.median`` /
    ``np.quantile`` on the run path, so they must match them bit for bit."""

    def test_median_is_bit_equal_to_numpy(self):
        for sample in _random_samples(seed=0, count=600):
            expected = float(np.median(sample)).hex()
            assert sorted_median(sample.tolist()).hex() == expected

    def test_quantile_is_bit_equal_to_numpy(self):
        rng = np.random.default_rng(1)
        for sample in _random_samples(seed=2, count=600):
            for q in (0.0, 0.25, 0.5, 0.75, 1.0, float(rng.uniform())):
                expected = float(np.quantile(sample, q)).hex()
                assert linear_quantile(sample.tolist(), q).hex() == expected, q

    def test_signed_zeros_and_infinities_match_numpy(self):
        for sample in ([-0.0], [-0.0, -0.0], [-0.0, 0.0, 1.0], [np.inf, 1.0, np.inf, 2.0]):
            expected = float(np.median(np.array(sample))).hex()
            assert sorted_median(sample).hex() == expected
        for sample in ([-0.0], [-0.0, -0.0], [-0.0] * 4, [-0.0] * 5):
            for q in (0.0, 0.75, 1.0):
                expected = float(np.quantile(np.array(sample), q)).hex()
                assert linear_quantile(sample, q).hex() == expected

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            sorted_median([])
        with pytest.raises(ValueError):
            linear_quantile([], 0.5)
        with pytest.raises(ValueError):
            linear_quantile([1.0], 1.5)
