"""The cached plain-float composite score.

``composite_score`` clamps each normalised metric with ``min(max(...))`` and
caches the default-weight value on each ``QualityMetrics`` instance.  The
reference here is the NumPy scalar formula (``float(np.clip(...))``) that the
stored goldens were produced with: the composite must match it bit for bit
over the whole valid domain.  The cache must never leak into the dataclass
surface, and NaN pAE is rejected at construction.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ProteinError
from repro.protein import metrics as metrics_module
from repro.protein.metrics import QualityMetrics, composite_score, is_improvement
from repro.utils.serialization import to_jsonable

_PLDDT_RANGE = (30.0, 100.0)
_PTM_RANGE = (0.0, 1.0)
_PAE_RANGE = (0.0, 32.0)


def _numpy_normalise(value, bounds, invert=False):
    """Reference normalisation: a scalar ``np.clip`` round-trip."""
    low, high = bounds
    scaled = (value - low) / (high - low)
    scaled = float(np.clip(scaled, 0.0, 1.0))
    return 1.0 - scaled if invert else scaled


def _numpy_composite(metrics, weights=(0.4, 0.35, 0.25)):
    """Reference composite over :func:`_numpy_normalise`."""
    w_plddt, w_ptm, w_pae = (weight / sum(weights) for weight in weights)
    return (
        w_plddt * _numpy_normalise(metrics.plddt, _PLDDT_RANGE)
        + w_ptm * _numpy_normalise(metrics.ptm, _PTM_RANGE)
        + w_pae * _numpy_normalise(metrics.interchain_pae, _PAE_RANGE, invert=True)
    )


def _bounded(low, high, *edges):
    """Floats in ``[low, high]`` with the exact edges drawn often."""
    return st.one_of(
        st.sampled_from((low, high, *edges)),
        st.floats(min_value=low, max_value=high),
    )


_plddt = _bounded(-0.0, 100.0, 0.0, 30.0, 100.0)
_ptm = _bounded(-0.0, 1.0, 0.0, 1.0)
_pae = st.one_of(
    st.sampled_from((-0.0, 0.0, 32.0, 1e300, math.inf)),
    st.floats(min_value=-0.0, max_value=64.0),
    st.floats(min_value=-0.0, allow_infinity=True),
)
_any_metrics = st.builds(QualityMetrics, plddt=_plddt, ptm=_ptm, interchain_pae=_pae)
_weights = st.tuples(*[st.floats(min_value=0.0, max_value=1e6)] * 3).filter(
    lambda weights: sum(weights) > 0
)


def _assert_bit_identical(got, want):
    assert type(got) is float
    assert got == want
    assert got.hex() == want.hex()


class TestBitIdentity:
    @given(_any_metrics)
    @settings(max_examples=500, deadline=None)
    @example(QualityMetrics(plddt=-0.0, ptm=-0.0, interchain_pae=-0.0))
    @example(QualityMetrics(plddt=100.0, ptm=1.0, interchain_pae=math.inf))
    @example(QualityMetrics(plddt=30.0, ptm=0.0, interchain_pae=32.0))
    @example(QualityMetrics(plddt=29.999999999999996, ptm=0.5, interchain_pae=32.000000000000004))
    def test_default_weights_match_numpy_clip(self, metrics):
        want = _numpy_composite(metrics)
        _assert_bit_identical(composite_score(metrics), want)
        _assert_bit_identical(metrics.composite(), want)

    @given(_any_metrics, _weights)
    @settings(max_examples=300, deadline=None)
    @example(QualityMetrics(plddt=-0.0, ptm=-0.0, interchain_pae=32.0), (0.0, 1.0, 0.0))
    @example(QualityMetrics(plddt=70.0, ptm=0.6, interchain_pae=12.0), (5e-324, 0.0, 0.0))
    def test_custom_weights_match_numpy_clip(self, metrics, weights):
        _assert_bit_identical(composite_score(metrics, weights), _numpy_composite(metrics, weights))

    @given(st.floats(allow_nan=True, allow_infinity=True), st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(math.nan, False)
    @example(-0.0, False)
    def test_clamp_matches_numpy_clip_on_every_float(self, value, invert):
        got = metrics_module._normalise(value, _PTM_RANGE, invert=invert)
        want = _numpy_normalise(value, _PTM_RANGE, invert=invert)
        assert type(got) is float
        assert got.hex() == want.hex()  # float.hex(nan) == "nan"

    def test_default_tuple_passed_explicitly_matches_cache(self):
        metrics = QualityMetrics(plddt=71.3, ptm=0.62, interchain_pae=11.8)
        _assert_bit_identical(composite_score(metrics, (0.4, 0.35, 0.25)), metrics.composite())
        _assert_bit_identical(composite_score(metrics, [0.4, 0.35, 0.25]), metrics.composite())


class TestCacheIsInvisible:
    def test_not_a_dataclass_field(self):
        metrics = QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=9.0)
        assert [f.name for f in dataclasses.fields(metrics)] == [
            "plddt",
            "ptm",
            "interchain_pae",
        ]
        assert repr(metrics) == "QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=9.0)"
        assert to_jsonable(metrics) == metrics.as_dict()
        assert dataclasses.asdict(metrics) == metrics.as_dict()

    def test_copies_carry_a_consistent_composite(self):
        metrics = QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=9.0)
        assert pickle.loads(pickle.dumps(metrics)).composite() == metrics.composite()
        replaced = dataclasses.replace(metrics, plddt=40.0)
        assert replaced.composite() == _numpy_composite(replaced)
        assert replaced.composite() < metrics.composite()


class TestNaNPae:
    def test_nan_pae_rejected(self):
        with pytest.raises(ProteinError, match="pAE"):
            QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=math.nan)
        with pytest.raises(ProteinError, match="pAE"):
            QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=np.float64("nan"))

    def test_infinite_pae_allowed_and_normalises_to_zero(self):
        metrics = QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=math.inf)
        worst_pae = QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=32.0)
        assert metrics.composite() == worst_pae.composite()
        assert not math.isnan(metrics.composite())
        assert is_improvement(QualityMetrics(plddt=80.0, ptm=0.7, interchain_pae=8.0), metrics)
