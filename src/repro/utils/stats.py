"""Summary statistics used throughout the evaluation.

The paper reports medians with error bars of half a standard deviation
(Figs 2 and 3) and "net delta" percentages between the first and last design
cycles (Table I).  This module centralises those computations so tests,
benchmarks and the analysis layer all agree on their definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SummaryStats",
    "summarize",
    "median_and_spread",
    "sorted_median",
    "linear_quantile",
    "net_delta_percent",
    "bootstrap_ci",
    "relative_change",
]


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate statistics of a sample of metric values.

    Attributes
    ----------
    count:
        Number of observations.
    mean, median, std, minimum, maximum:
        The usual moments and extrema.  ``std`` uses the population
        convention (``ddof=0``) to match a plain "standard deviation of the
        reported values" reading of the paper's error bars.
    half_std:
        ``std / 2`` — the error-bar half-width used in Figs 2 and 3.
    """

    count: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float

    @property
    def half_std(self) -> float:
        return self.std / 2.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "std": self.std,
            "half_std": self.half_std,
            "min": self.minimum,
            "max": self.maximum,
        }


def summarize(values: Iterable[float]) -> SummaryStats:
    """Compute :class:`SummaryStats` over ``values``.

    Raises
    ------
    ValueError
        If ``values`` is empty.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        std=float(arr.std(ddof=0)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def median_and_spread(values: Iterable[float]) -> tuple[float, float]:
    """Return ``(median, std/2)`` — the quantities plotted in Figs 2 and 3."""
    stats = summarize(values)
    return stats.median, stats.half_std


def sorted_median(values: Iterable[float]) -> float:
    """The median of NaN-free ``values``, bit-equal to ``np.median``.

    A ``sorted()`` middle pick; for an even count, ``(a + b) / 2`` of the
    middle pair.  NumPy averages the middle element or pair with a sum that
    starts from ``+0.0``, so the sum here does too (a lone ``-0.0`` comes
    back as ``+0.0`` in both).  Unlike ``np.median`` this never imports
    ``numpy.ma`` (NumPy's NaN check does), which a fresh process would
    otherwise pay for inside its first run.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot take the median of an empty sample")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(0.0 + ordered[middle])
    return float((0.0 + ordered[middle - 1] + ordered[middle]) / 2)


def linear_quantile(values: Iterable[float], q: float) -> float:
    """The ``q`` quantile (``0 <= q <= 1``) of NaN-free ``values``, bit-equal
    to ``np.quantile`` with its default ``method="linear"``.

    NumPy's formula, step for step: the virtual index ``(n - 1) * q``, its
    floor and the next index (both clamped to the last element at the top),
    and the two-sided lerp that interpolates from whichever neighbour is
    nearer.  Like :func:`sorted_median` it never imports ``numpy.ma``.  The
    one exception to bit equality is a sample holding both ``-0.0`` and
    ``0.0``: they tie, ``sorted()`` may order them unlike NumPy's partition,
    and a zero result's sign can differ.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot take a quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q!r}")
    position = (len(ordered) - 1) * q
    below = math.floor(position)
    above = below + 1
    if position >= len(ordered) - 1:
        below = above = -1
    weight = position - below
    low, high = ordered[below], ordered[above]
    step = high - low
    if weight >= 0.5:
        return float(high - step * (1 - weight))
    return float(low + step * weight)


def relative_change(initial: float, final: float) -> float:
    """Relative change ``(final - initial) / |initial|``.

    Returns ``0.0`` when ``initial`` is zero and ``final`` equals it, and
    ``inf``/``-inf`` when ``initial`` is zero but ``final`` differs, mirroring
    the IEEE behaviour users expect from NumPy.
    """
    if initial == 0.0:
        if final == 0.0:
            return 0.0
        return float(np.inf) if final > 0 else float(-np.inf)
    return (final - initial) / abs(initial)


def net_delta_percent(initial: float, final: float) -> float:
    """Net improvement of a metric between the first and last cycle, in %.

    Table I reports "Net Δ (%)" per metric: the change of the cohort median
    from the starting structures to the final design cycle, expressed as a
    percentage of the starting value.
    """
    return 100.0 * relative_change(initial, final)


def bootstrap_ci(
    values: Sequence[float],
    *,
    statistic=np.median,
    n_boot: int = 2000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for an arbitrary statistic.

    Used by the extended analysis (not by the paper itself) to attach
    uncertainty to the median quality metrics.

    Parameters
    ----------
    values:
        Sample to resample.
    statistic:
        Callable reducing a 1-D array to a scalar (default: median).
    n_boot:
        Number of bootstrap resamples.
    alpha:
        Two-sided miscoverage; the interval covers ``1 - alpha``.
    seed:
        Seed for the resampling generator.

    Returns
    -------
    (low, high):
        The percentile interval bounds.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    samples = arr[idx]
    stats = np.apply_along_axis(statistic, 1, samples)
    low = float(np.percentile(stats, 100.0 * (alpha / 2.0)))
    high = float(np.percentile(stats, 100.0 * (1.0 - alpha / 2.0)))
    return low, high
