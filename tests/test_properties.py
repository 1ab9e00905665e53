"""Property tests for the kernels the estimator and the oracle share."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouploss.binning import jensen_gap_by_bin
from grouploss.glestim import RegionStats, gl_explained_debiased
from grouploss.scoring import (
    BRIER,
    BRIER_SCALAR,
    LOG_LOSS,
    WeightedProbSample,
    binary_divergence,
    divergence,
    h_variance,
)

each_rule = pytest.mark.parametrize(
    "rule", [BRIER_SCALAR, BRIER, LOG_LOSS], ids=["brier-scalar", "brier-vector", "logloss"]
)
probs = st.floats(0.0, 1.0)


@each_rule
@settings(deadline=None)
@given(s=probs, c=probs)
def test_binary_divergence_matches_divergence(rule, s, c):
    got = float(binary_divergence(rule, np.array([s]), np.array([c]))[0])
    if rule.kind == "brier" and not rule.is_scalar:
        args = (np.array([1.0 - s, s]), np.array([1.0 - c, c]))
    else:
        args = (s, c)
    try:
        with np.errstate(over="ignore"):
            want = divergence(rule, *args)
    except ValueError:
        # log-loss: a zero forecast where the reference has mass
        assert rule.kind == "logloss" and got == math.inf
        return
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@st.composite
def binned_values(draw):
    n_bins = draw(st.integers(1, 6))
    m = draw(st.integers(1, 40))
    bin_of = np.array(draw(st.lists(st.integers(0, n_bins - 1), min_size=m, max_size=m)))
    values = np.array(draw(st.lists(probs, min_size=m, max_size=m)))
    return n_bins, bin_of, values


@each_rule
@settings(deadline=None)
@given(data=binned_values())
def test_jensen_gap_by_bin_matches_h_variance(rule, data):
    n_bins, bin_of, values = data
    counts, gaps = jensen_gap_by_bin(rule, bin_of, values, n_bins)
    np.testing.assert_array_equal(counts, np.bincount(bin_of, minlength=n_bins))
    for b in range(n_bins):
        v = values[bin_of == b]
        if v.size == 0:
            assert math.isnan(gaps[b])
            continue
        vector_brier = rule.kind == "brier" and not rule.is_scalar
        points = np.column_stack([1.0 - v, v]) if vector_brier else v
        sample = WeightedProbSample(points, np.full(v.size, 1.0 / v.size))
        assert gaps[b] == pytest.approx(h_variance(rule, sample), abs=1e-12)


@st.composite
def region_tables(draw):
    """RegionStats over random (count, positives) regions per bin."""
    n_entries = draw(st.integers(1, 5))
    ids, counts, pos = [], [], []
    for _ in range(n_entries):
        n_regions = draw(st.integers(1, 6))
        c = np.array(draw(st.lists(st.integers(1, 30), min_size=n_regions, max_size=n_regions)))
        p = np.array([draw(st.integers(0, int(k))) for k in c], dtype=np.float64)
        ids.append(np.arange(n_regions, dtype=np.int64))
        counts.append(c.astype(np.int64))
        pos.append(p)
    bin_counts = np.array([c.sum() for c in counts], dtype=np.int64)
    return RegionStats(
        n_bins=n_entries,
        bins=np.arange(n_entries, dtype=np.int64),
        bin_counts=bin_counts,
        bin_pos_fraction=np.array([p.sum() for p in pos]) / bin_counts,
        region_ids=tuple(ids),
        region_counts=tuple(counts),
        region_pos=tuple(pos),
    )


@each_rule
@settings(deadline=None)
@given(stats=region_tables())
def test_explained_is_plugin_minus_bias(rule, stats):
    glx = gl_explained_debiased(stats, rule)
    ok = glx.estimable
    np.testing.assert_array_equal(
        glx.per_bin_explained[ok], glx.per_bin_plugin[ok] - glx.per_bin_bias[ok]
    )
    assert np.isnan(glx.per_bin_explained[~ok]).all()
    if glx.n_used == 0:
        assert math.isnan(glx.explained)
    else:
        # totals are separate weighted sums, so they agree to rounding only
        assert glx.explained == pytest.approx(glx.plugin - glx.bias, rel=0, abs=1e-14)
