"""Continuous calibration curves and isotonic post-hoc recalibration.

The continuous curve is a locally weighted linear regression (tricube
kernel over the nearest ``ceil(fraction * n)`` neighbours, no robustness
iterations) of the 0/1 labels on the scores.  For speed it is evaluated
exactly at a grid of support points and interpolated linearly in
between; outside the fitted score range the nearest endpoint extends
constantly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .binning import BinnedView
from .scoring import ScoringRule, binary_divergence

MAX_SUPPORT_POINTS = 1024


@dataclass(frozen=True)
class CalibrationCurve:
    """Score -> estimated calibrated score, clamped to [0, 1]."""

    support: np.ndarray
    values: np.ndarray
    bandwidth_fraction: float
    n_fit: int

    def __call__(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64)
        return np.interp(scores, self.support, self.values)


@dataclass(frozen=True)
class IsotonicMap:
    """Nondecreasing score map from pool-adjacent-violators regression."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __call__(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64)
        return np.interp(scores, self.breakpoints, self.values)


def fit_calibration_curve(
    scores, labels, bandwidth_fraction: float = 0.3
) -> CalibrationCurve:
    """Fit the locally weighted calibration curve.

    Requires at least 10 points and a fraction in (0, 1].  When all
    scores coincide the curve degenerates to the constant mean label.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = scores.shape[0]
    if n < 10:
        raise ValueError("calibration curve needs at least 10 points")
    if not 0.0 < bandwidth_fraction <= 1.0:
        raise ValueError("bandwidth_fraction must lie in (0, 1]")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    y = labels[order]
    if s[0] == s[-1]:
        support = np.array([s[0]])
        values = np.array([float(np.clip(y.mean(), 0.0, 1.0))])
        return CalibrationCurve(support, values, bandwidth_fraction, n)
    # s is sorted: a value is new where it differs from its left neighbour
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    if np.count_nonzero(new) <= MAX_SUPPORT_POINTS:
        support = s[new]
    else:
        support = np.linspace(s[0], s[-1], MAX_SUPPORT_POINTS)
    k = min(max(math.ceil(bandwidth_fraction * n), 2), n)
    values = kernels.lowess_grid(s, y, support, k)
    values = np.clip(values, 0.0, 1.0)
    return CalibrationCurve(support, values, bandwidth_fraction, n)


def isotonic_fit(scores, labels) -> IsotonicMap:
    """Least-squares nondecreasing fit of labels on scores.

    Ties in score are pooled (replaced by their mean label with the tied
    count as weight) before running pool-adjacent-violators.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape[0] < 2:
        raise ValueError("isotonic fit needs at least 2 points")
    uniq, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=labels, minlength=uniq.size)
    means = sums / counts
    fitted = kernels.pav(means, counts.astype(np.float64))
    return IsotonicMap(uniq, np.clip(fitted, 0.0, 1.0))


def calibration_loss_binned(bview: BinnedView, rule: ScoringRule) -> float:
    """Binned calibration loss ``sum_s (n_s / n) d(S_B(s), c_hat(s))``.

    For the scalar Brier convention this is the l2-style binned
    calibration error.  Under log-loss a bin whose mean score sits on
    the boundary while its positive fraction does not yields ``inf``.
    """
    if bview.bins.size == 0:
        return 0.0
    per_bin = binary_divergence(rule, bview.mean_score, bview.pos_fraction)
    return float(np.dot(bview.counts / bview.n, per_bin))
