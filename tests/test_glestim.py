"""Estimator arithmetic: region stats, debiasing, induced term, bounds."""

import json
import pathlib

import jsonschema
import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from grouploss.binning import make_bins
from grouploss.calibration import CalibrationCurve, calibration_loss_binned
from grouploss.cli import RunConfig
from grouploss.data import BinaryView
from grouploss.glestim import (
    binning_bounds,
    build_report,
    clopper_pearson,
    gl_explained_debiased,
    gl_induced_estimate,
    gl_lower_bound,
    region_stats,
)
from grouploss.scoring import BRIER, BRIER_SCALAR, LOG_LOSS, WeightedProbSample, h_variance


def _stats(scores, labels, regions, n_bins=1, test_rows=None):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    bv = BinaryView(np.zeros((scores.size, 1)), scores, labels)
    bview = make_bins(bv, n_bins, rows=test_rows)
    # regions holds one id per dataset row; region_stats takes the view's
    return region_stats(np.asarray(regions)[bview.rows], bview, labels), bview


def _bin_rows(stats, i):
    """Table rows of the i-th occupied bin."""
    return slice(stats.offsets[i], stats.offsets[i + 1])


class TestRegionStats:
    def test_mixed_regions(self):
        stats, bview = _stats([0.5] * 4, [1, 0, 1, 0], [0, 0, 1, 1])
        np.testing.assert_allclose(stats.region_means[_bin_rows(stats, 0)], [0.5, 0.5])
        assert bview.pos_fraction[0] == 0.5

    def test_pure_regions(self):
        stats, bview = _stats([0.5] * 4, [1, 1, 0, 0], [0, 0, 1, 1])
        np.testing.assert_allclose(stats.region_means[_bin_rows(stats, 0)], [1.0, 0.0])
        assert bview.pos_fraction[0] == 0.5

    def test_test_rows_only(self):
        stats, _ = _stats(
            [0.5] * 6, [1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], test_rows=np.array([0, 3])
        )
        assert stats.n_test == 2
        np.testing.assert_allclose(stats.region_means[_bin_rows(stats, 0)], [1.0, 0.0])

    def test_ids_not_one_per_view_row_rejected(self):
        # the view covers rows 1 and 3 of four: it takes exactly two ids
        bv = BinaryView(np.zeros((4, 1)), np.full(4, 0.5), np.array([1, 0, 1, 0]))
        bview = make_bins(bv, 1, rows=np.array([1, 3]))
        assert region_stats(np.array([0, 1]), bview, bv.label).n_test == 2
        for regions in ([0, 1, 0, 1], [0], [[0, 1]]):
            with pytest.raises(ValueError, match="shape"):
                region_stats(np.array(regions), bview, bv.label)
        with pytest.raises(ValueError, match="negative region id"):
            region_stats(np.array([0, -1]), bview, bv.label)

    def test_weighted_mean_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(10, 200))
            scores = rng.uniform(size=n)
            labels = rng.integers(0, 2, n)
            regions = rng.integers(0, 4, n)
            stats, bview = _stats(scores, labels, regions, n_bins=5)
            for i in range(bview.bins.size):
                rows = _bin_rows(stats, i)
                w = stats.region_counts[rows] / bview.counts[i]
                assert np.dot(w, stats.region_means[rows]) == pytest.approx(
                    bview.pos_fraction[i], abs=1e-12
                )

    def test_empty_regions_dropped(self):
        stats, _ = _stats([0.5] * 4, [1, 0, 1, 0], [0, 0, 5, 5])
        np.testing.assert_array_equal(stats.region_ids[_bin_rows(stats, 0)], [0, 5])

    def test_table_layout(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            regions = rng.integers(0, 7, n)
            test_rows = np.flatnonzero(rng.uniform(size=n) < 0.6)
            scores, labels = rng.uniform(size=n), rng.integers(0, 2, n)
            stats, bview = _stats(scores, labels, regions, n_bins=6, test_rows=test_rows)
            # offsets partition the table rows, one nonempty run per bin
            offsets = stats.offsets
            assert offsets[0] == 0 and offsets[-1] == stats.region_ids.size
            assert offsets.size == bview.bins.size + 1
            assert (np.diff(offsets) > 0).all()
            # keys (bin, region id) strictly increase down the table
            region_bin = np.repeat(bview.bins, np.diff(offsets))
            keys = region_bin * 7 + stats.region_ids
            assert (np.diff(keys) > 0).all()
            # exactly the (bin, region) pairs that hold test rows, with their counts
            seen = bview.bin_of[test_rows] * 7 + regions[test_rows]
            want_keys, want_counts = np.unique(seen, return_counts=True)
            np.testing.assert_array_equal(keys, want_keys)
            np.testing.assert_array_equal(stats.region_counts, want_counts)
            # each bin's run holds its test rows and their positives
            test_bins = bview.bin_of[test_rows]
            for i, b in enumerate(bview.bins.tolist()):
                in_bin = test_rows[test_bins == b]
                assert stats.region_counts[_bin_rows(stats, i)].sum() == in_bin.size
                assert stats.region_pos[_bin_rows(stats, i)].sum() == labels[in_bin].sum()

    def test_no_test_rows_gives_empty_table_and_valid_report(self):
        n = 20
        scores = np.linspace(0.0, 1.0, n)
        labels = np.arange(n) % 2
        stats, bview = _stats(
            scores, labels, np.arange(n) % 3, n_bins=4, test_rows=np.array([], dtype=np.int64)
        )
        assert bview.bins.size == stats.region_ids.size == stats.n_test == 0
        np.testing.assert_array_equal(stats.offsets, [0])
        glx = gl_explained_debiased(stats, BRIER_SCALAR)
        assert glx.n_used == 0 and np.isnan(glx.explained)
        bview_test = make_bins(
            BinaryView(np.zeros((n, 1)), scores, labels), 4, rows=np.array([], dtype=np.int64)
        )
        report = build_report(
            RunConfig().to_dict(), stats, glx, 0.0,
            calibration_loss_binned(bview_test, BRIER_SCALAR), bview_test,
            binning_bounds(bview_test, BRIER_SCALAR), n_rows=n, n_train=n,
        )
        assert report.bins == () and report.n_test == 0
        schema = json.loads(
            (pathlib.Path(__file__).resolve().parents[1] / "docs" / "report_schema.json")
            .read_text()
        )
        jsonschema.validate(json.loads(report.to_json()), schema)


class TestGlExplainedDebiased:
    def test_balanced_noise_regions(self):
        stats, _ = _stats([0.5] * 4, [1, 0, 1, 0], [0, 0, 1, 1])
        res = gl_explained_debiased(stats, BRIER_SCALAR)
        assert res.plugin == pytest.approx(0.0, abs=1e-15)
        assert res.bias == pytest.approx(0.25 - 0.25 / 3, abs=1e-12)
        assert res.explained == pytest.approx(-(0.25 - 0.25 / 3), abs=1e-12)

    def test_pure_split_regions(self):
        stats, _ = _stats([0.5] * 4, [1, 1, 0, 0], [0, 0, 1, 1])
        res = gl_explained_debiased(stats, BRIER_SCALAR)
        assert res.plugin == pytest.approx(0.25, abs=1e-15)
        assert res.bias == pytest.approx(-0.25 / 3, abs=1e-12)
        assert res.explained == pytest.approx(0.25 + 0.25 / 3, abs=1e-12)

    def test_single_region_cancels_exactly(self):
        stats, _ = _stats([0.5] * 8, [1, 0, 1, 1, 0, 1, 0, 0], [0] * 8)
        res = gl_explained_debiased(stats, BRIER_SCALAR)
        assert res.plugin == 0.0
        assert res.bias == pytest.approx(0.0, abs=1e-15)
        assert res.explained == pytest.approx(0.0, abs=1e-15)

    def test_singleton_regions_dropped_from_bin(self):
        # the lone region 2 row cannot feed a Bessel term; it is dropped
        # and the bin re-weights over the surviving regions
        stats, _ = _stats([0.5] * 5, [1, 0, 1, 0, 1], [0, 0, 1, 1, 2])
        res = gl_explained_debiased(stats, BRIER_SCALAR)
        assert res.estimable[0]
        assert res.n_used == 4
        assert res.dropped_fraction == pytest.approx(0.2)
        assert res.plugin == pytest.approx(0.0, abs=1e-15)
        assert res.explained == pytest.approx(-(0.25 - 0.25 / 3), abs=1e-12)

    def test_all_singleton_bin_is_unestimable(self):
        stats, _ = _stats([0.5] * 3, [1, 0, 1], [0, 1, 2])
        res = gl_explained_debiased(stats, BRIER_SCALAR)
        assert not res.estimable[0]
        assert np.isnan(res.explained)
        assert res.dropped_fraction == 1.0

    def test_identity_explained_is_plugin_minus_bias(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = 40
            stats, _ = _stats(
                rng.uniform(size=n),
                rng.integers(0, 2, n),
                rng.integers(0, 3, n),
                n_bins=4,
            )
            res = gl_explained_debiased(stats, BRIER_SCALAR)
            np.testing.assert_allclose(
                res.per_bin_explained, res.per_bin_plugin - res.per_bin_bias, atol=0
            )
            if res.n_used:
                assert res.explained == pytest.approx(res.plugin - res.bias, abs=1e-15)

    def test_vector_convention_doubles(self):
        stats, _ = _stats([0.5] * 4, [1, 1, 0, 0], [0, 0, 1, 1])
        scalar = gl_explained_debiased(stats, BRIER_SCALAR)
        vector = gl_explained_debiased(stats, BRIER)
        assert vector.explained == pytest.approx(2 * scalar.explained, abs=1e-12)

    def test_logloss_returns_plugin_without_debiasing(self):
        stats, _ = _stats([0.5] * 8, [1, 1, 1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1])
        res = gl_explained_debiased(stats, LOG_LOSS)
        assert not res.debiased
        assert res.bias == 0.0
        expected = h_variance(
            LOG_LOSS, WeightedProbSample(np.array([0.75, 0.25]), np.array([0.5, 0.5]))
        )
        assert res.plugin == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_debiasing(self):
        # fixed two-region partition, redrawn labels: the plugin mean sits
        # above the population value, the debiased mean straddles it
        rng = np.random.default_rng(2)
        mu = np.array([0.6, 0.8])
        n_per_region = 60
        population = 0.01
        plugins, debiased = [], []
        regions = np.repeat([0, 1], n_per_region)
        scores = np.full(2 * n_per_region, 0.7)
        for _ in range(400):
            labels = (rng.uniform(size=2 * n_per_region) < mu[regions]).astype(int)
            stats, _ = _stats(scores, labels, regions)
            res = gl_explained_debiased(stats, BRIER_SCALAR)
            plugins.append(res.plugin)
            debiased.append(res.explained)
        se = np.std(debiased) / np.sqrt(len(debiased))
        assert np.mean(plugins) - population > 3 * se
        assert abs(np.mean(debiased) - population) < 3 * se


class TestGlInduced:
    def _bview(self, scores, n_bins):
        scores = np.asarray(scores, dtype=float)
        bv = BinaryView(np.zeros((scores.size, 1)), scores, np.zeros(scores.size, dtype=int))
        return make_bins(bv, n_bins)

    def test_constant_curve_per_bin_gives_zero(self):
        scores = np.array([0.1, 0.2, 0.6, 0.9])
        curve = CalibrationCurve(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.3, 4)
        bview = self._bview(scores, 2)
        assert gl_induced_estimate(curve, bview, scores, BRIER_SCALAR) == pytest.approx(0.0, abs=1e-15)

    def test_identity_curve_matches_twelfth_law(self):
        n, n_bins = 150_000, 15
        scores = (np.arange(n) + 0.5) / n
        curve = CalibrationCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.3, n)
        bview = self._bview(scores, n_bins)
        got = gl_induced_estimate(curve, bview, scores, BRIER_SCALAR)
        assert got == pytest.approx(1 / (12 * n_bins**2), rel=1e-4)

    def test_step_curve_contribution(self):
        scores = np.concatenate([np.full(50, 0.2), np.full(50, 0.8)])
        curve = CalibrationCurve(
            np.array([0.0, 0.45, 0.55, 1.0]), np.array([0.4, 0.4, 0.8, 0.8]), 0.3, 100
        )
        bview = self._bview(scores, 1)
        got = gl_induced_estimate(curve, bview, scores, BRIER_SCALAR)
        assert got == pytest.approx(0.04, abs=1e-12)

    def test_reads_every_row_whatever_the_view_covers(self):
        rng = np.random.default_rng(5)
        n = 500
        scores = rng.uniform(size=n)
        curve = CalibrationCurve(np.sort(rng.uniform(size=8)), rng.uniform(size=8), 0.3, n)
        bv = BinaryView(np.zeros((n, 1)), scores, np.zeros(n, dtype=int))
        test_view = make_bins(bv, 7, rows=np.arange(1, n, 2))
        for rule in (BRIER_SCALAR, LOG_LOSS):
            assert gl_induced_estimate(curve, test_view, scores, rule) == gl_induced_estimate(
                curve, self._bview(scores, 7), scores, rule
            )

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(20, 300))
            scores = rng.uniform(size=n)
            support = np.sort(rng.uniform(size=8))
            values = rng.uniform(size=8)
            curve = CalibrationCurve(support, values, 0.3, n)
            bview = self._bview(scores, int(rng.integers(1, 10)))
            for rule in (BRIER_SCALAR, LOG_LOSS):
                assert gl_induced_estimate(curve, bview, scores, rule) >= -1e-12

    def test_coarsening_bins_never_decreases_population_binned_gl(self):
        # merging level sets adds between-set variance (induced term >= 0)
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=4096)
        q = np.clip(scores + rng.normal(0, 0.1, size=4096), 0, 1)
        values = []
        for n_bins in (64, 16, 4, 2):
            sel = np.minimum((scores * n_bins).astype(int), n_bins - 1)
            total = 0.0
            for b in np.unique(sel):
                mask = sel == b
                w = mask.mean()
                total += w * h_variance(
                    BRIER_SCALAR,
                    WeightedProbSample(q[mask], np.full(mask.sum(), 1.0 / mask.sum())),
                )
            values.append(total)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestGlLowerBound:
    def test_subtraction(self):
        assert gl_lower_bound(0.02, 0.005) == pytest.approx(0.015, abs=1e-18)

    def test_nan_propagates(self):
        assert np.isnan(gl_lower_bound(float("nan"), 0.01))


class TestBinningBounds:
    def _bview(self, scores, labels, n_bins):
        scores = np.asarray(scores, dtype=float)
        bv = BinaryView(np.zeros((scores.size, 1)), scores, np.asarray(labels))
        return make_bins(bv, n_bins)

    def test_centered_scores_collapse_endpoints(self):
        n_bins = 10
        centers = np.repeat((np.arange(n_bins) + 0.5) / n_bins, 4)
        labels = (np.arange(centers.size) % 2).astype(int)
        bounds = binning_bounds(self._bview(centers, labels, n_bins), BRIER_SCALAR)
        assert bounds.lower == 0.0
        assert bounds.upper == 0.0

    def test_uniform_upper_endpoint(self):
        rng = np.random.default_rng(5)
        n = 30_000
        scores = rng.uniform(size=n)
        labels = rng.integers(0, 2, n)
        bounds = binning_bounds(self._bview(scores, labels, 15), BRIER_SCALAR)
        assert bounds.upper_equal_width <= (1 / 15) * 0.5 + 1e-12
        assert bounds.upper <= bounds.upper_equal_width + 1e-12
        assert bounds.lower >= bounds.lower_equal_width - 1e-12

    def test_quarter_term_constant(self):
        n_bins = 15
        scores = np.array([0.5, 0.6])
        bounds = binning_bounds(self._bview(scores, [0, 1], n_bins), BRIER_SCALAR)
        assert bounds.lower_equal_width == pytest.approx(
            -bounds.mean_sqrt_c_var / 15 - 1.111e-3, abs=2e-6
        )

    def test_requires_scalar_brier(self):
        bview = self._bview([0.2, 0.8], [0, 1], 2)
        with pytest.raises(ValueError, match="scalar Brier"):
            binning_bounds(bview, LOG_LOSS)


class TestClopperPearson:
    def test_zero_successes_closed_form(self):
        lo, hi = clopper_pearson(0, 10)
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.025 ** (1 / 10), rel=1e-12)
        # independent Beta-quantile oracle
        assert hi == pytest.approx(float(beta_dist.ppf(0.975, 1, 10)), rel=1e-12)

    def test_all_successes_hits_one(self):
        lo, hi = clopper_pearson(10, 10)
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1 / 10), rel=1e-12)

    def test_symmetry_at_half(self):
        lo, hi = clopper_pearson(5, 10)
        assert lo == pytest.approx(1 - hi, abs=1e-12)

    def test_coverage_monotone_in_n(self):
        widths = [np.diff(clopper_pearson(n // 2, n))[0] for n in (10, 100, 1000)]
        assert widths[0] > widths[1] > widths[2]

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_matches_beta_ppf_exactly(self, alpha):
        for n in (1, 2, 3, 7, 20, 59, 1000, 20000):
            for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
                lo, hi = clopper_pearson(k, n, alpha)
                want_lo = 0.0 if k == 0 else float(beta_dist.ppf(alpha / 2, k, n - k + 1))
                want_hi = 1.0 if k == n else float(beta_dist.ppf(1 - alpha / 2, k + 1, n - k))
                assert (lo, hi) == (want_lo, want_hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)
        with pytest.raises(ValueError):
            clopper_pearson(0, 0)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_array_call_matches_scalar_calls(self, alpha):
        n = np.concatenate([np.full(m + 1, m) for m in range(1, 80)])
        k = np.concatenate([np.arange(m + 1) for m in range(1, 80)])
        lo, hi = clopper_pearson(k, n, alpha)
        pairs = [clopper_pearson(int(a), int(b), alpha) for a, b in zip(k, n)]
        assert lo.tobytes() == np.array([p[0] for p in pairs]).tobytes()
        assert hi.tobytes() == np.array([p[1] for p in pairs]).tobytes()

    @pytest.mark.parametrize(
        "k, n",
        [([0, 3, 5], [4, 4, 4]), ([1, -1], [2, 2]), ([1, 0, 2], [3, 0, 5])],
        ids=["k-above-n", "negative-k", "zero-n"],
    )
    def test_array_validation(self, k, n):
        with pytest.raises(ValueError, match="need 0 <= k <= n"):
            clopper_pearson(np.array(k), np.array(n))


class TestBuildReport:
    def _report(self, scores, labels, regions, n_bins=1):
        stats, bview = _stats(scores, labels, regions, n_bins)
        glx = gl_explained_debiased(stats, BRIER_SCALAR)
        curve = CalibrationCurve(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.3, len(scores))
        induced = gl_induced_estimate(curve, bview, np.asarray(scores, float), BRIER_SCALAR)
        bounds = binning_bounds(bview, BRIER_SCALAR)
        from grouploss.calibration import calibration_loss_binned

        cl = calibration_loss_binned(bview, BRIER_SCALAR)
        return build_report(
            {"seed": 0},
            stats,
            glx,
            induced,
            cl,
            bview,
            bounds,
            n_rows=len(scores),
            n_train=0,
        )

    def test_identities_hold_exactly(self):
        rng = np.random.default_rng(6)
        n = 200
        report = self._report(
            rng.uniform(size=n), rng.integers(0, 2, n), rng.integers(0, 2, n), n_bins=5
        )
        assert report.gl_lower_bound == report.gl_explained - report.gl_induced
        assert report.gl_explained == pytest.approx(
            report.gl_plugin - report.gl_bias, abs=1e-15
        )
        for b in report.bins:
            w = np.array([r.n_region for r in b.regions], dtype=float)
            mu = np.array([r.mu_hat for r in b.regions])
            assert np.dot(w / w.sum(), mu) == pytest.approx(b.c_hat, abs=1e-12)

    def test_noise_regions_mostly_grayed(self):
        rng = np.random.default_rng(7)
        n = 2000  # 10 bins x 2 regions x ~100 rows
        scores = rng.uniform(size=n)
        labels = rng.integers(0, 2, n)
        regions = rng.integers(0, 2, n)
        report = self._report(scores, labels, regions, n_bins=10)
        flags = [r.grayed for b in report.bins for r in b.regions]
        assert np.mean(flags) >= 0.9

    def test_separated_regions_not_grayed(self):
        rng = np.random.default_rng(8)
        n = 1000
        regions = np.repeat([0, 1], n // 2)
        labels = np.concatenate(
            [
                (rng.uniform(size=n // 2) < 0.6).astype(int),
                (rng.uniform(size=n // 2) < 0.8).astype(int),
            ]
        )
        report = self._report(np.full(n, 0.7), labels, regions)
        flags = [r.grayed for b in report.bins for r in b.regions]
        assert flags == [False, False]

    def test_json_round_trip_and_nan_handling(self):
        import json

        report = self._report([0.5] * 3, [1, 0, 1], [0, 1, 2])
        payload = json.loads(report.to_json())
        assert payload["gl_explained"] is None  # only singleton regions
        assert payload["unestimable_bins"] == [0]
        assert payload["dropped_test_fraction"] == 1.0

    def test_dropped_mass_reported(self):
        import json

        report = self._report([0.5] * 5, [1, 0, 1, 0, 1], [0, 0, 1, 1, 2])
        payload = json.loads(report.to_json())
        assert payload["gl_explained"] is not None
        assert payload["unestimable_bins"] == []
        assert payload["dropped_test_fraction"] == pytest.approx(0.2)

    def test_diagram_csv_columns(self):
        report = self._report([0.5] * 4, [1, 0, 1, 0], [0, 0, 1, 1])
        lines = report.diagram_csv().strip().split("\n")
        header = lines[0].split(",")
        assert header == [
            "bin_index", "s_lo", "s_hi", "S_B", "c_hat", "n_bin",
            "region_index", "mu_hat", "n_region", "cp_lo", "cp_hi", "grayed",
        ]
        assert len(lines) == 3
