"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one ``criterion <id>: PASS/FAIL`` line (visible
with ``pytest -s tests/test_acceptance.py``).  The heavy simulation runs
are shared between criteria through module-scoped fixtures.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from grouploss.binning import make_bins, within_bin_score_variance
from grouploss.calibration import CalibrationCurve
from grouploss.cli import RunConfig, main, run_pipeline
from grouploss.data import BinaryView, LabeledDataset, write_dataset_csv
from grouploss.glestim import (
    gl_explained_debiased,
    gl_induced_estimate,
    gl_lower_bound,
    region_stats,
)
from grouploss.scoring import (
    BRIER,
    BRIER_SCALAR,
    LOG_LOSS,
    WeightedProbSample,
    finite_decomposition,
    finite_decomposition_classwise,
    h_variance,
)
from grouploss.simulate import (
    LinkSimulator1D,
    default_realistic,
    sample_realistic,
    true_gl_monte_carlo,
)

N_SEEDS = 10
N_ROWS = 100_000


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"criterion {label}: FAIL")
        raise
    print(f"criterion {label}: PASS")


@pytest.fixture(scope="module")
def tightness_runs():
    """Ten seeded estimation runs at region ratios 30 and 10, timed."""
    sim = default_realistic()
    t0 = time.monotonic()
    rows = {30: [], 10: []}
    for seed in range(N_SEEDS):
        ds, _ = sample_realistic(sim, N_ROWS, seed=seed)
        for ratio in (30, 10):
            report = run_pipeline(ds, RunConfig(seed=seed, region_ratio=ratio))
            rows[ratio].append(report)
    elapsed = time.monotonic() - t0
    oracle = true_gl_monte_carlo(sim, BRIER_SCALAR, 400_000, seed=12345)
    return rows, oracle, elapsed


def test_criterion_1_simulation_tightness(tightness_runs):
    rows, oracle, elapsed = tightness_runs
    with criterion("1 (simulation tightness at ratio 30)"):
        lbs = np.array([r.gl_lower_bound for r in rows[30]])
        plugins = np.array([r.gl_plugin for r in rows[30]])
        assert np.all(np.isfinite(lbs))
        sd = lbs.std(ddof=1)
        mean_lb = lbs.mean()
        assert mean_lb >= 0.7 * oracle.value
        assert mean_lb <= oracle.value + 2 * sd
        assert plugins.mean() > oracle.value
        assert elapsed < 60.0


def test_criterion_2_plugin_overestimates(tightness_runs):
    rows, oracle, _ = tightness_runs
    with criterion("2 (plugin overshoot at ratio 10)"):
        lbs = np.array([r.gl_lower_bound for r in rows[10]])
        plugins = np.array([r.gl_plugin for r in rows[10]])
        gap = plugins.mean() - lbs.mean()
        assert gap > 3.0 * lbs.std(ddof=1)


def test_criterion_3_binning_law():
    with criterion("3 (within-bin variance law)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(33)
        scores = rng.uniform(size=1_000_000)
        labels = np.zeros(scores.size, dtype=int)
        bv = BinaryView(np.zeros((scores.size, 1)), scores, labels)
        for n_bins in (5, 15, 50):
            _, total = within_bin_score_variance(make_bins(bv, n_bins))
            target = 1.0 / (12.0 * n_bins**2)
            assert abs(total - target) < 0.02 * target
            assert total <= 1.0 / (4.0 * n_bins**2)
        assert time.monotonic() - t0 < 10.0


def test_criterion_4_debiasing_unbiasedness():
    with criterion("4 (debiased estimator is unbiased)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(44)
        mu = np.array([0.6, 0.8])
        population = 0.01  # 0.5 (0.6 - 0.7)^2 + 0.5 (0.8 - 0.7)^2
        n_bin = 200
        regions = np.repeat([0, 1], n_bin // 2)
        scores = np.full(n_bin, 0.7)
        plugins, debiased = [], []
        for _ in range(1000):
            labels = (rng.uniform(size=n_bin) < mu[regions]).astype(int)
            bview = make_bins(BinaryView(np.zeros((n_bin, 1)), scores, labels), 1)
            stats = region_stats(regions, bview, labels)
            res = gl_explained_debiased(stats, BRIER_SCALAR)
            plugins.append(res.plugin)
            debiased.append(res.explained)
        plugins = np.array(plugins)
        debiased = np.array(debiased)
        se_deb = debiased.std(ddof=1) / np.sqrt(debiased.size)
        se_plg = plugins.std(ddof=1) / np.sqrt(plugins.size)
        assert abs(debiased.mean() - population) < 3.0 * se_deb
        assert plugins.mean() - population > 3.0 * se_plg
        assert time.monotonic() - t0 < 30.0


def _random_small_instance(rng):
    n = int(rng.integers(8, 65))
    base = rng.dirichlet(np.ones(2), size=max(2, n // 4))
    scores = base[rng.integers(0, base.shape[0], size=n)]
    posteriors = rng.dirichlet(np.ones(2), size=n)
    weights = rng.dirichlet(np.ones(n))
    return weights, scores, posteriors


def test_criterion_5_exact_identities():
    with criterion("5 (exact finite-distribution identities)"):
        rng = np.random.default_rng(55)
        for _ in range(100):
            # law of total h-variance under an arbitrary grouping
            m = int(rng.integers(4, 12))
            pts = rng.uniform(0.02, 0.98, size=m)
            w = rng.dirichlet(np.ones(m))
            groups = rng.integers(0, 3, size=m)
            total = h_variance(BRIER_SCALAR, WeightedProbSample(pts, w))
            within, means, gw = 0.0, [], []
            for g in np.unique(groups):
                sel = groups == g
                wg = w[sel].sum()
                within += wg * h_variance(
                    BRIER_SCALAR, WeightedProbSample(pts[sel], w[sel] / wg)
                )
                means.append(np.average(pts[sel], weights=w[sel]))
                gw.append(wg)
            between = h_variance(
                BRIER_SCALAR, WeightedProbSample(np.array(means), np.array(gw))
            )
            assert abs(total - (within + between)) < 1e-10

            # three-term decomposition with known posteriors
            weights, scores, posteriors = _random_small_instance(rng)
            parts = finite_decomposition(BRIER, weights, scores, posteriors)
            assert abs(parts["total"] - (parts["cl"] + parts["gl"] + parts["il"])) < 1e-10

            # estimator arithmetic identities on a small random run
            n = int(rng.integers(16, 65))
            s = rng.uniform(size=n)
            y = rng.integers(0, 2, n)
            r = rng.integers(0, 2, n)
            bv = BinaryView(np.zeros((n, 1)), s, y)
            bview = make_bins(bv, 3)
            stats = region_stats(r, bview, y)
            glx = gl_explained_debiased(stats, BRIER_SCALAR)
            curve = CalibrationCurve(np.array([0.0, 1.0]), np.array([0.2, 0.9]), 0.3, n)
            induced = gl_induced_estimate(curve, bview, s, BRIER_SCALAR)
            if np.isfinite(glx.explained):
                assert gl_lower_bound(glx.explained, induced) == glx.explained - induced
                assert abs(glx.explained - (glx.plugin - glx.bias)) < 1e-10


def test_criterion_6_classwise_decomposition():
    with criterion("6 (classwise decomposition, both rules)"):
        rng = np.random.default_rng(66)
        for _ in range(100):
            m = int(rng.integers(6, 40))
            base = rng.dirichlet(np.ones(3), size=max(2, m // 3))
            scores = base[rng.integers(0, base.shape[0], size=m)]
            posteriors = rng.dirichlet(np.ones(3), size=m)
            weights = rng.dirichlet(np.ones(m))
            for rule in (BRIER, LOG_LOSS):
                parts = finite_decomposition_classwise(rule, weights, scores, posteriors)
                assert abs(
                    parts["total"] - (parts["cl"] + parts["gl"] + parts["il"])
                ) < 1e-10


def test_criterion_7_calibrated_constructions():
    with criterion("7 (calibrated-by-construction oracles)"):
        sims = [
            default_realistic(),
            LinkSimulator1D("min2s"),
            default_realistic(accuracy_preserving=True),
            LinkSimulator1D("accuracy", accuracy_preserving=True),
        ]
        for sim in sims:
            s, q = sim.sample_sq(1_000_000, seed=77)
            sel = np.minimum((s * 15).astype(int), 14)
            sup = 0.0
            for b in range(15):
                mask = sel == b
                if mask.sum() >= 50:
                    sup = max(sup, abs(q[mask].mean() - s[mask].mean()))
            assert sup < 0.01
        for sim in sims[2:]:
            s, q = sim.sample_sq(200_000, seed=78)
            same = (np.sign(q - 0.5) == np.sign(s - 0.5)) | (q == 0.5)
            assert same.all()


def test_criterion_8_recalibration_neutrality():
    with criterion("8 (recalibration leaves the bound unchanged)"):
        sim = default_realistic(distortion="overconfident")
        lbs_plain, lbs_iso, cl_plain, cl_iso = [], [], [], []
        for seed in range(8):
            ds, _ = sample_realistic(sim, 20_000, seed=800 + seed)
            plain = run_pipeline(ds, RunConfig(seed=seed))
            iso = run_pipeline(ds, RunConfig(seed=seed, recalibrate="isotonic"))
            lbs_plain.append(plain.gl_lower_bound)
            lbs_iso.append(iso.gl_lower_bound)
            cl_plain.append(plain.cl_binned)
            cl_iso.append(iso.cl_binned)
        lbs_plain = np.array(lbs_plain)
        lbs_iso = np.array(lbs_iso)
        seed_sd = lbs_plain.std(ddof=1)
        assert abs(lbs_iso.mean() - lbs_plain.mean()) < 2.0 * seed_sd
        assert np.mean(cl_plain) >= 5.0 * np.mean(cl_iso)


def test_criterion_9_determinism(tmp_path, monkeypatch):
    with criterion("9 (byte-identical reruns across thread counts)"):
        rng = np.random.default_rng(99)
        n = 2000
        x = rng.standard_normal((n, 2))
        s = 1 / (1 + np.exp(-x[:, 0]))
        labels = (rng.uniform(size=n) < s).astype(int)
        ds = LabeledDataset(x, np.column_stack([1 - s, s]), labels)
        csv = tmp_path / "data.csv"
        write_dataset_csv(csv, ds)
        outputs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("GROUPLOSS_THREADS", threads)
            for run in range(2):
                out = tmp_path / f"rep_{threads}_{run}.json"
                diagram = tmp_path / f"dia_{threads}_{run}.csv"
                code = main([
                    "estimate", str(csv), "--seed", "5",
                    "--out", str(out), "--diagram-out", str(diagram),
                ])
                assert code == 0
                outputs.append(out.read_bytes() + diagram.read_bytes())
        assert len(set(outputs)) == 1
