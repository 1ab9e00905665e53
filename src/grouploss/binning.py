"""Equal-width confidence binning and per-bin sufficient statistics."""

from dataclasses import dataclass

import numpy as np

from .data import BinaryView, bin_index_of
from .scoring import ScoringRule, binary_negative_entropy


@dataclass(frozen=True)
class BinnedView:
    """Equal-width binning of scores with per-bin statistics.

    A score ``s`` maps to bin ``floor(s * n_bins)``; ``s == 1.0`` falls
    in the last (closed) bin.  Statistics cover the rows in ``rows``
    (all rows by default); ``bin_of`` is the full-length assignment.
    Empty bins carry count 0 and NaN statistics, and every weighted sum
    downstream skips them.
    """

    n_bins: int
    edges: np.ndarray
    bin_of: np.ndarray
    rows: np.ndarray
    counts: np.ndarray
    mean_score: np.ndarray
    pos_fraction: np.ndarray
    score_variance: np.ndarray

    @property
    def n(self) -> int:
        """Number of rows covered by the statistics."""
        return int(self.counts.sum())

    def occupied(self) -> np.ndarray:
        return np.flatnonzero(self.counts > 0)


def make_bins(bv: BinaryView, n_bins: int, rows=None) -> BinnedView:
    """Bin a binary view and compute exact per-bin statistics.

    ``rows`` restricts the statistics (not the assignment) to a subset,
    e.g. the test half of a split.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    bin_of = bin_index_of(bv.score, n_bins)
    if rows is None:
        rows = np.arange(bv.n, dtype=np.int64)
    else:
        rows = np.asarray(rows, dtype=np.int64)
    sel = bin_of[rows]
    scores = bv.score[rows]
    labels = bv.label[rows]
    counts = np.bincount(sel, minlength=n_bins).astype(np.int64)
    sums = np.bincount(sel, weights=scores, minlength=n_bins)
    pos = np.bincount(sel, weights=labels, minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_score = sums / counts
        pos_fraction = pos / counts
        # two-pass variance: exactly zero for bins with constant scores
        centered = scores - mean_score[sel]
        sq_sums = np.bincount(sel, weights=centered * centered, minlength=n_bins)
        variance = sq_sums / counts
    variance = np.where(counts > 0, variance, np.nan)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    return BinnedView(
        n_bins=n_bins,
        edges=edges,
        bin_of=bin_of,
        rows=rows,
        counts=counts,
        mean_score=mean_score,
        pos_fraction=pos_fraction,
        score_variance=variance,
    )


def within_bin_score_variance(bview: BinnedView):
    """Per-bin population score variance and its weighted total.

    The total is ``sum_s (n_s / n) Var[S | bin s]`` over occupied bins.
    With ``N`` equal-width bins it never exceeds ``1 / (4 N^2)``, and
    approaches ``1 / (12 N^2)`` under uniform scores.
    """
    per_bin = np.where(bview.counts > 0, bview.score_variance, 0.0)
    n = bview.n
    if n == 0:
        return per_bin, 0.0
    total = float(np.dot(bview.counts / n, per_bin))
    return per_bin, total


def jensen_gap_by_bin(rule: ScoringRule, bin_of: np.ndarray, values: np.ndarray,
                      n_bins: int):
    """Per-bin Jensen gap ``mean h(v) - h(mean v)`` of the rule's ``h``.

    ``values`` are positive-class probabilities aligned with ``bin_of``.
    Returns ``(counts, gaps)`` over all ``n_bins`` bins; empty bins have
    NaN gaps.
    """
    counts = np.bincount(bin_of, minlength=n_bins)
    sums = np.bincount(bin_of, weights=values, minlength=n_bins)
    h_sums = np.bincount(bin_of, weights=binary_negative_entropy(rule, values),
                         minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        gaps = h_sums / counts - binary_negative_entropy(rule, sums / counts)
    return counts, gaps
