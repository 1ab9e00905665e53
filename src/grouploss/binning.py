"""Equal-width confidence binning and per-bin sufficient statistics."""

from dataclasses import dataclass

import numpy as np

from .data import BinaryView, bin_index_of, group_by_bin
from .scoring import ScoringRule, binary_negative_entropy


@dataclass(frozen=True)
class BinnedView:
    """Equal-width binning of scores with per-bin statistics.

    A score ``s`` maps to bin ``floor(s * n_bins)``; ``s == 1.0`` falls
    in the last (closed) bin.  Statistics cover the rows in ``rows``
    (all rows by default); ``bin_of`` is the full-length assignment.
    The per-bin arrays hold one entry per bin that a row of ``rows``
    occupies, in ascending order: bin ``bins[i]`` has edges ``s_lo[i]``
    and ``s_hi[i]`` and holds ``counts[i] >= 1`` rows, and ``slot[j]`` is
    the entry of row ``rows[j]``.  Their size is bounded by the rows,
    whatever ``n_bins``.
    """

    n_bins: int
    bin_of: np.ndarray
    rows: np.ndarray
    slot: np.ndarray
    bins: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    counts: np.ndarray
    mean_score: np.ndarray
    pos_fraction: np.ndarray
    score_variance: np.ndarray

    @property
    def n(self) -> int:
        """Number of rows covered by the statistics."""
        return int(self.counts.sum())


def bin_table(bin_of: np.ndarray, n_bins: int):
    """The bins ``bin_of`` occupies in ascending order, each one's count,
    and each entry's index among them: ``(bins, counts, slot)``."""
    bins, order, offsets = group_by_bin(bin_of, n_bins)
    # in sorted order, a mark at each bin's start but the first, summed in place
    marks = np.zeros(order.shape[0], dtype=np.intp)
    marks[offsets[1:-1]] = 1
    slot = np.empty_like(marks)
    slot[order] = np.cumsum(marks, out=marks)
    return bins, np.diff(offsets), slot


def make_bins(bv: BinaryView, n_bins: int, rows=None) -> BinnedView:
    """Bin a binary view and compute exact per-bin statistics.

    ``rows`` restricts the statistics (not the assignment) to a subset,
    e.g. the test half of a split.  Each bin's sums run over its rows in
    the order of ``rows``.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    bin_of = bin_index_of(bv.score, n_bins)
    rows = np.arange(bv.n, dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    scores = bv.score[rows]
    bins, counts, slot = bin_table(bin_of[rows], n_bins)
    mean_score = np.bincount(slot, weights=scores) / counts
    pos_fraction = np.bincount(slot, weights=bv.label[rows]) / counts
    # two-pass variance: exactly zero for bins with constant scores
    centered = scores - mean_score[slot]
    variance = np.bincount(slot, weights=centered * centered) / counts
    # the edges np.linspace(0, 1, n_bins + 1) has at bins and bins + 1
    step = 1.0 / n_bins
    s_hi = np.where(bins + 1 == n_bins, 1.0, (bins + 1) * step)
    return BinnedView(n_bins, bin_of, rows, slot, bins, bins * step, s_hi, counts, mean_score,
                      pos_fraction, variance)


def within_bin_score_variance(bview: BinnedView):
    """Per-bin population score variance and its weighted total.

    The total is ``sum_s (n_s / n) Var[S | bin s]`` over occupied bins.
    With ``N`` equal-width bins it never exceeds ``1 / (4 N^2)``, and
    approaches ``1 / (12 N^2)`` under uniform scores.
    """
    n = bview.n
    total = float(np.dot(bview.counts / n, bview.score_variance)) if n else 0.0
    return bview.score_variance, total


def jensen_gap_by_bin(rule: ScoringRule, slot: np.ndarray, values: np.ndarray,
                      counts: np.ndarray) -> np.ndarray:
    """Per-bin Jensen gap ``mean h(v) - h(mean v)`` of the rule's ``h``.

    ``values`` are positive-class probabilities; value ``i`` lies in bin
    ``slot[i]`` and bin ``j`` holds ``counts[j] >= 1`` of them, as
    ``bin_table`` numbers them.
    """
    # in place: with about as many bins as values, each per-bin temporary is as large as values
    means = np.bincount(slot, weights=values)
    means /= counts
    gaps = np.bincount(slot, weights=binary_negative_entropy(rule, values))
    gaps /= counts
    gaps -= binary_negative_entropy(rule, means)
    return gaps
