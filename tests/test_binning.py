"""Equal-width binning rules and within-bin variance behaviour."""

import numpy as np
import pytest

from grouploss.binning import bin_index_of, make_bins, within_bin_score_variance
from grouploss.data import BinaryView
from grouploss.scoring import BRIER_SCALAR, WeightedProbSample, h_variance


def _view(scores, labels=None):
    scores = np.asarray(scores, dtype=float)
    if labels is None:
        labels = np.zeros(scores.size, dtype=int)
    return BinaryView(np.zeros((scores.size, 1)), scores, np.asarray(labels))


class TestBinAssignment:
    def test_floor_rule(self):
        assert bin_index_of(np.array([0.75]), 10)[0] == 7

    def test_last_bin_closed(self):
        assert bin_index_of(np.array([1.0]), 10)[0] == 9

    @pytest.mark.parametrize("n_bins", [2**53 + 1, 2**63 - 1])
    def test_huge_bin_counts_stay_in_range(self, n_bins):
        # float(n_bins) is not n_bins here: 2**53 + 1 rounds down to 2**53,
        # and 2**63 - 1 up to 2**63, which an int64 cast wraps to -2**63
        scores = np.array([0.0, 0.25, 0.5, 1.0 - 2.0**-53, 1.0])
        bins = bin_index_of(scores, n_bins)
        assert ((bins >= 0) & (bins < n_bins)).all()
        assert bins[-1] == n_bins - 1
        assert (np.diff(bins) >= 0).all()

    def test_out_of_range_rejected(self):
        for score in (1.2, np.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                bin_index_of(np.array([0.5, score]), 10)

    def test_counts_partition_rows(self):
        rng = np.random.default_rng(0)
        bview = make_bins(_view(rng.uniform(size=1000)), 15)
        assert bview.counts.sum() == 1000
        assert (bview.bin_of >= 0).all() and (bview.bin_of < 15).all()

    def test_mean_score_within_edges(self):
        rng = np.random.default_rng(1)
        bview = make_bins(_view(rng.uniform(size=2000)), 15)
        assert (bview.s_lo <= bview.mean_score).all()
        assert (bview.mean_score <= bview.s_hi).all()

    def test_merged_upper_half_mean(self):
        # uniform mass on [0.5, 1] merged into the upper of two bins has
        # mean score 0.75 in the infinite-sample limit; a symmetric grid
        # realizes it exactly
        m = 100_000
        scores = 0.5 + (np.arange(m) + 0.5) / (2 * m)
        bview = make_bins(_view(scores), 2)
        # the empty lower bin has no entry
        assert bview.bins.tolist() == [1]
        assert bview.counts.tolist() == [m]
        assert bview.mean_score[0] == pytest.approx(0.75, abs=1e-12)

    def test_rows_subset(self):
        scores = np.array([0.1, 0.1, 0.9, 0.9])
        labels = np.array([1, 0, 1, 1])
        bview = make_bins(_view(scores, labels), 2, rows=np.array([0, 2]))
        assert bview.counts.tolist() == [1, 1]
        assert bview.pos_fraction[0] == 1.0


class TestWithinBinVariance:
    def test_scores_at_centers_give_zero(self):
        centers = (np.arange(10) + 0.5) / 10
        bview = make_bins(_view(np.repeat(centers, 5)), 10)
        per_bin, total = within_bin_score_variance(bview)
        assert total == 0.0
        assert np.all(per_bin == 0.0)

    def test_uniform_grid_matches_twelfth_law(self):
        # m evenly spaced scores per bin have variance w^2 (1 - 1/m^2) / 12
        n, n_bins = 150_000, 15
        scores = (np.arange(n) + 0.5) / n
        bview = make_bins(_view(scores), n_bins)
        _, total = within_bin_score_variance(bview)
        m = n // n_bins
        expected = (1.0 / n_bins) ** 2 * (1 - 1 / m**2) / 12
        assert total == pytest.approx(expected, rel=1e-9)
        assert total == pytest.approx(1 / (12 * n_bins**2), rel=1e-4)

    def test_two_point_bin_approaches_quarter_bound(self):
        n_bins = 8
        eps = 1e-9
        scores = np.array([0.0, 1.0 / n_bins - eps])
        bview = make_bins(_view(scores), n_bins)
        _, total = within_bin_score_variance(bview)
        bound = 1.0 / (4 * n_bins**2)
        assert total <= bound
        assert total == pytest.approx(bound, rel=1e-6)

    def test_bound_never_exceeded_on_random_data(self):
        rng = np.random.default_rng(9)
        for n_bins in (3, 7, 15):
            scores = rng.uniform(size=777)
            _, total = within_bin_score_variance(make_bins(_view(scores), n_bins))
            assert total <= 1.0 / (4 * n_bins**2) + 1e-15

    def test_single_sample_bins_count_zero_variance(self):
        bview = make_bins(_view(np.array([0.05, 0.55])), 10)
        per_bin, total = within_bin_score_variance(bview)
        assert per_bin.tolist() == [0.0, 0.0]
        assert total == 0.0


class TestLawOfTotalVariance:
    def test_within_plus_between_equals_total(self):
        # binning decomposes the overall score variance exactly, for any
        # bin count; merging bins shifts mass between the two terms only
        rng = np.random.default_rng(11)
        scores = rng.uniform(size=4096)
        total_var = float(np.var(scores))
        for n_bins in (2, 4, 16, 64):
            bview = make_bins(_view(scores), n_bins)
            _, within = within_bin_score_variance(bview)
            between = h_variance(
                BRIER_SCALAR, WeightedProbSample(bview.mean_score, bview.counts / bview.n)
            )
            assert within + between == pytest.approx(total_var, abs=1e-12)

    def test_coarsening_moves_variance_within(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(size=2048)
        withins = []
        for n_bins in (64, 16, 4, 2):
            bview = make_bins(_view(scores), n_bins)
            withins.append(within_bin_score_variance(bview)[1])
        assert all(a <= b + 1e-15 for a, b in zip(withins, withins[1:]))

    def test_empirical_bin_mean_converges_to_center(self):
        rng = np.random.default_rng(13)
        n, n_bins = 100_000, 15
        bview = make_bins(_view(rng.uniform(size=n)), n_bins)
        w = 1.0 / n_bins
        assert bview.bins.tolist() == list(range(n_bins))
        for b in range(n_bins):
            center = (b + 0.5) * w
            sigma = w / np.sqrt(12 * bview.counts[b])
            assert abs(bview.mean_score[b] - center) < 3 * sigma + 1e-12
