"""Calibration curves, isotonic recalibration, binned calibration loss."""

import numpy as np
import pytest

from grouploss import kernels
from grouploss.binning import make_bins
from grouploss.calibration import (
    MAX_SUPPORT_POINTS,
    calibration_loss_binned,
    fit_calibration_curve,
    isotonic_fit,
)
from grouploss.data import BinaryView
from grouploss.scoring import BRIER_SCALAR, LOG_LOSS


def _lowess_oracle(scores, labels, g, k):
    """Direct weighted least squares at one point (reference path)."""
    d = np.abs(scores - g)
    idx = np.argsort(d, kind="stable")[:k]
    bw = d[idx].max()
    if bw == 0:
        return labels[idx].mean()
    w = np.clip((1 - (d[idx] / bw) ** 3) ** 3, 0, None)
    coeffs = np.polyfit(scores[idx] - g, labels[idx], 1, w=np.sqrt(w))
    return coeffs[1]


class TestCalibrationCurve:
    def test_all_positive_labels(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=200)
        curve = fit_calibration_curve(scores, np.ones(200))
        grid = np.linspace(0, 1, 50)
        np.testing.assert_allclose(curve(grid), 1.0, atol=1e-12)

    def test_degenerate_constant_scores(self):
        curve = fit_calibration_curve(np.full(10, 0.4), np.array([1, 1, 1] + [0] * 7))
        assert curve(np.array([0.1, 0.4, 0.9])) == pytest.approx([0.3, 0.3, 0.3])

    def test_matches_pointwise_weighted_least_squares(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=80)
        labels = rng.integers(0, 2, size=80).astype(float)
        frac = 0.4
        curve = fit_calibration_curve(scores, labels, frac)
        k = int(np.ceil(frac * 80))
        for g in curve.support[::7]:
            expected = np.clip(_lowess_oracle(scores, labels, g, k), 0, 1)
            assert curve(np.array([g]))[0] == pytest.approx(expected, abs=1e-8)

    def test_recovers_identity_on_calibrated_data(self):
        rng = np.random.default_rng(2)
        n = 100_000
        scores = rng.uniform(size=n)
        labels = (rng.uniform(size=n) < scores).astype(float)
        curve = fit_calibration_curve(scores, labels, 0.3)
        grid = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(curve(grid) - grid)) < 0.02

    def test_outputs_clamped(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=500)
        labels = (rng.uniform(size=500) < scores).astype(float)
        curve = fit_calibration_curve(scores, labels, 0.1)
        vals = curve(np.linspace(0, 1, 300))
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_constant_extension_outside_range(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0.4, 0.6, size=100)
        labels = (rng.uniform(size=100) < scores).astype(float)
        curve = fit_calibration_curve(scores, labels)
        lo, hi = curve(np.array([0.0, 1.0]))
        assert lo == curve.values[0] and hi == curve.values[-1]

    def test_minimum_points(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_calibration_curve(np.linspace(0, 1, 9), np.zeros(9))

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="bandwidth_fraction"):
            fit_calibration_curve(np.linspace(0, 1, 20), np.zeros(20), 1.5)

    @pytest.mark.parametrize("case", ["tied", "many-distinct", "signed-zeros"])
    def test_support_agrees_with_np_unique(self, case):
        # the support is found on the sorted scores; the curve it gives, and
        # so everything a report reads of it, matches one fitted on np.unique
        rng = np.random.default_rng(5)
        n = 3000
        if case == "tied":
            scores = rng.choice(np.linspace(0.0, 1.0, 37), size=n)
        elif case == "many-distinct":
            scores = rng.uniform(size=n)
        else:
            scores = rng.choice(np.array([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0]), size=n)
        labels = (rng.uniform(size=n) < np.abs(scores)).astype(float)
        curve = fit_calibration_curve(scores, labels, 0.3)

        s = np.sort(scores, kind="stable")
        y = labels[np.argsort(scores, kind="stable")]
        unique = np.unique(s)
        if unique.size > MAX_SUPPORT_POINTS:
            unique = np.linspace(s[0], s[-1], MAX_SUPPORT_POINTS)
        # np.unique keeps whichever zero its own sort puts first: the curve
        # is the same with either
        for support in (unique, np.where(unique == 0, -0.0, unique),
                        np.where(unique == 0, 0.0, unique)):
            values = np.clip(kernels.lowess_grid(s, y, support, int(np.ceil(0.3 * n))), 0, 1)
            assert np.array_equal(curve.support, support)
            assert curve.values.tobytes() == values.tobytes()
            assert curve(scores).tobytes() == np.interp(scores, support, values).tobytes()


class TestIsotonic:
    def test_monotone_input_is_identity_on_knots(self):
        scores = np.array([0.1, 0.3, 0.5, 0.9])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        mapping = isotonic_fit(scores, labels)
        np.testing.assert_allclose(mapping(scores), labels, atol=1e-15)

    def test_three_point_pooling(self):
        mapping = isotonic_fit(np.array([0.1, 0.2, 0.3]), np.array([1, 0, 0]))
        np.testing.assert_allclose(
            mapping(np.array([0.1, 0.2, 0.3])), 1 / 3, atol=1e-15
        )

    def test_values_nondecreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 200))
            mapping = isotonic_fit(rng.uniform(size=n), rng.integers(0, 2, n))
            assert np.all(np.diff(mapping.values) >= -1e-15)

    def test_ties_pooled_before_fitting(self):
        scores = np.array([0.2, 0.2, 0.2, 0.8])
        labels = np.array([1, 0, 0, 1])
        mapping = isotonic_fit(scores, labels)
        assert mapping(np.array([0.2]))[0] == pytest.approx(1 / 3)

    def test_order_preserving(self):
        rng = np.random.default_rng(6)
        mapping = isotonic_fit(rng.uniform(size=300), rng.integers(0, 2, 300))
        grid = np.sort(rng.uniform(size=100))
        assert np.all(np.diff(mapping(grid)) >= -1e-12)

    def test_refit_on_self_never_increases_binned_loss(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = 400
            scores = rng.uniform(size=n)
            labels = (rng.uniform(size=n) < scores**2).astype(int)
            before = calibration_loss_binned(
                make_bins(BinaryView(np.zeros((n, 1)), scores, labels), 10),
                BRIER_SCALAR,
            )
            mapping = isotonic_fit(scores, labels)
            after = calibration_loss_binned(
                make_bins(
                    BinaryView(np.zeros((n, 1)), mapping(scores), labels), 10
                ),
                BRIER_SCALAR,
            )
            assert after <= before + 1e-12

    def test_least_squares_optimality_against_brute_force(self):
        # PAV must beat every monotone step candidate on a tiny instance
        from itertools import product

        scores = np.array([0.1, 0.25, 0.4, 0.6, 0.8])
        labels = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        mapping = isotonic_fit(scores, labels)
        best = np.sum((mapping(scores) - labels) ** 2)
        grid = np.linspace(0, 1, 21)
        for cand in product(grid, repeat=5):
            if all(a <= b for a, b in zip(cand, cand[1:])):
                sse = np.sum((np.array(cand) - labels) ** 2)
                assert best <= sse + 1e-9


class TestBinnedCalibrationLoss:
    def _bview(self, scores, labels, n_bins):
        return make_bins(
            BinaryView(np.zeros((len(scores), 1)), np.asarray(scores), np.asarray(labels)),
            n_bins,
        )

    def test_perfectly_matched_bins(self):
        # mean score equals positive fraction in every bin
        bview = self._bview([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], 1)
        assert calibration_loss_binned(bview, BRIER_SCALAR) == pytest.approx(0.0, abs=1e-15)

    def test_single_bin_value(self):
        scores = np.full(10, 0.7)
        labels = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
        bview = self._bview(scores, labels, 1)
        assert calibration_loss_binned(bview, BRIER_SCALAR) == pytest.approx(0.01, abs=1e-12)

    def test_two_bin_value(self):
        scores = np.concatenate([np.full(10, 0.3), np.full(10, 0.8)])
        labels = np.concatenate([np.repeat([1, 0], [4, 6]), np.repeat([1, 0], [8, 2])])
        bview = self._bview(scores, labels, 2)
        assert calibration_loss_binned(bview, BRIER_SCALAR) == pytest.approx(0.005, abs=1e-12)

    def test_logloss_infinite_sentinel(self):
        scores = np.array([1.0, 1.0, 1.0, 1.0])
        labels = np.array([1, 1, 0, 1])
        bview = self._bview(scores, labels, 2)
        assert calibration_loss_binned(bview, LOG_LOSS) == np.inf

    def test_logloss_finite_on_interior(self):
        scores = np.full(4, 0.8)
        labels = np.array([1, 1, 1, 1])
        bview = self._bview(scores, labels, 2)
        expected = -np.log(0.8)
        assert calibration_loss_binned(bview, LOG_LOSS) == pytest.approx(expected, rel=1e-12)
