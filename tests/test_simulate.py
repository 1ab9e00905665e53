"""Oracle simulators: calibration by construction, reference values."""

import json
from dataclasses import fields

import numpy as np
import pytest

from grouploss.scoring import BRIER_SCALAR, LOG_LOSS
from grouploss.simulate import (
    LinkSimulator1D,
    RealisticSimulator,
    default_realistic,
    sample_link_1d,
    sample_realistic,
    simulator_from_spec,
    simulator_to_spec,
    true_gl_monte_carlo,
    true_losses_monte_carlo,
)


def _binned_calibration_gap(scores, q, n_bins=15):
    sel = np.minimum((scores * n_bins).astype(int), n_bins - 1)
    gaps = []
    for b in range(n_bins):
        mask = sel == b
        if mask.sum() >= 50:
            gaps.append(abs(q[mask].mean() - scores[mask].mean()))
    return max(gaps)


class TestRealisticSimulator:
    def test_zero_perturbation_means_posterior_equals_score(self):
        sim = RealisticSimulator(psi="zero")
        ds, q = sample_realistic(sim, 5000, seed=0)
        np.testing.assert_allclose(ds.scores[:, 1], q, atol=1e-12)

    def test_calibrated_by_construction(self):
        sim = default_realistic()
        s, q = sim.sample_sq(200_000, seed=1)
        assert _binned_calibration_gap(s, q) < 0.02

    def test_same_side_assertion_with_accuracy_flag(self):
        for psi in ("sigmoid", "sign"):
            sim = RealisticSimulator(psi=psi, accuracy_preserving=True)
            s, q = sim.sample_sq(50_000, seed=2)
            same = (np.sign(q - 0.5) == np.sign(s - 0.5)) | (q == 0.5)
            assert same.all()

    def test_perturbation_mean_vanishes(self):
        sim = default_realistic()
        rng = np.random.default_rng(3)
        x = sim._sample_x(100_000, rng)
        z = x @ np.asarray(sim.omega_perp)
        vals = 2.0 / (1.0 + np.exp(-z)) - 1.0
        assert abs(vals.mean()) < 3 * vals.std() / np.sqrt(vals.size)

    def test_labels_follow_posterior(self):
        sim = default_realistic()
        ds, q = sample_realistic(sim, 100_000, seed=4)
        resid = ds.labels - q
        assert abs(resid.mean()) < 3 * np.sqrt(0.25 / ds.n)

    def test_covariance_eigenvalue_scaling(self):
        sim = RealisticSimulator(sigma_eigenvalues=(4.0, 0.25))
        rng = np.random.default_rng(5)
        x = sim._sample_x(200_000, rng)
        assert np.var(x[:, 0]) == pytest.approx(4.0, rel=0.05)
        assert np.var(x[:, 1]) == pytest.approx(0.25, rel=0.05)

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            RealisticSimulator(omega=(1.0, 0.1), omega_perp=(0.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            RealisticSimulator(sigma_eigenvalues=(1.0, -1.0))
        with pytest.raises(ValueError, match="odd"):
            RealisticSimulator(psi=lambda z: np.abs(z) / (1 + np.abs(z)))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            RealisticSimulator(psi=lambda z: 2.0 * np.tanh(z))

    def test_block_size_invariance_of_seeding(self):
        sim = default_realistic()
        a = sim.sample_sq(1000, seed=6)
        b = sim.sample_sq(1000, seed=6)
        np.testing.assert_array_equal(a[0], b[0])


class TestLinkSimulator1D:
    def test_identity_link_is_exact(self):
        ds, q = sample_link_1d(LinkSimulator1D("identity"), 2000, seed=7)
        np.testing.assert_allclose(ds.scores[:, 1], q, atol=1e-12)

    def test_saturating_link_calibrated(self):
        sim = LinkSimulator1D("min2s")
        s, q = sim.sample_sq(200_000, seed=8)
        assert _binned_calibration_gap(s, q) < 0.02

    def test_saturating_link_branches(self):
        sim = LinkSimulator1D("min2s")
        ds, q = sample_link_1d(sim, 20_000, seed=9)
        x = ds.features[:, 0]
        s = ds.scores[:, 1]
        np.testing.assert_allclose(q[x > 0], np.minimum(2 * s[x > 0], 1.0), atol=1e-12)
        np.testing.assert_allclose(q[x < 0], np.maximum(2 * s[x < 0] - 1.0, 0.0), atol=1e-12)

    def test_accuracy_link_same_side(self):
        sim = LinkSimulator1D("accuracy", accuracy_preserving=True)
        s, q = sim.sample_sq(50_000, seed=10)
        same = (np.sign(q - 0.5) == np.sign(s - 0.5)) | (q == 0.5)
        assert same.all()

    def test_band_violation_rejected(self):
        sim = LinkSimulator1D(lambda s: 2.2 * s)
        with pytest.raises(ValueError, match="band"):
            sim.sample_sq(100, seed=11)

    def test_non_accuracy_link_rejected_under_flag(self):
        sim = LinkSimulator1D("min2s", accuracy_preserving=True)
        with pytest.raises(ValueError, match="accuracy-preserving"):
            sim.sample_sq(1000, seed=12)


class _TwoRegionOracle:
    """S fixed at 0.7; Q is 0.6 or 0.8 with equal probability."""

    def sample_sq(self, n, seed, block_size=None):
        rng = np.random.default_rng(seed)
        q = np.where(rng.uniform(size=n) < 0.5, 0.6, 0.8)
        return np.full(n, 0.7), q


class TestMonteCarloOracles:
    def test_zero_heterogeneity(self):
        est = true_gl_monte_carlo(RealisticSimulator(psi="zero"), BRIER_SCALAR, 100_000, seed=13)
        assert abs(est.value) <= max(2 * est.se, 1e-6)

    def test_two_region_value(self):
        est = true_gl_monte_carlo(_TwoRegionOracle(), BRIER_SCALAR, 200_000, seed=14)
        assert est.value == pytest.approx(0.01, abs=3 * est.se + 1e-4)

    def test_refinement_stability(self):
        est = true_gl_monte_carlo(default_realistic(), BRIER_SCALAR, 200_000, seed=15)
        assert est.value > 0
        assert abs(est.value - est.value_refined) < max(est.se, 1e-4)

    def test_deterministic(self):
        a = true_gl_monte_carlo(default_realistic(), BRIER_SCALAR, 20_000, seed=16)
        b = true_gl_monte_carlo(default_realistic(), BRIER_SCALAR, 20_000, seed=16)
        assert a.value == b.value and a.se == b.se

    def test_logloss_oracle_positive(self):
        est = true_gl_monte_carlo(default_realistic(), LOG_LOSS, 100_000, seed=17)
        assert est.value > 0

    def test_cl_near_zero_for_construction(self):
        _, est = true_losses_monte_carlo(default_realistic(), BRIER_SCALAR, 200_000, seed=18)
        assert est.value < 5e-4

    def test_distortion_shifts_cl_not_gl(self):
        base = default_realistic()
        warped = default_realistic(distortion="overconfident")
        gl_base = true_gl_monte_carlo(base, BRIER_SCALAR, 200_000, seed=19)
        gl_warp = true_gl_monte_carlo(warped, BRIER_SCALAR, 200_000, seed=19)
        assert gl_warp.value == pytest.approx(gl_base.value, abs=3 * (gl_base.se + gl_warp.se))
        _, cl_warp = true_losses_monte_carlo(warped, BRIER_SCALAR, 200_000, seed=19)
        _, cl_base = true_losses_monte_carlo(base, BRIER_SCALAR, 200_000, seed=19)
        assert cl_warp.value > 20 * cl_base.value


class TestSpecRoundTrip:
    def test_realistic_round_trip(self):
        sim = RealisticSimulator(
            d=3,
            omega=(1.0, 0.0, 0.0),
            omega_perp=(0.0, 1.0, 0.0),
            psi="sign",
            accuracy_preserving=True,
            sigma_eigenvalues=(1.0, 2.0, 3.0),
            distortion="square",
        )
        again = simulator_from_spec(simulator_to_spec(sim))
        assert again == sim

    def test_link_round_trip(self):
        sim = LinkSimulator1D("accuracy", accuracy_preserving=True)
        assert simulator_from_spec(simulator_to_spec(sim)) == sim

    @pytest.mark.parametrize("kind, cls", [("realistic", RealisticSimulator),
                                           ("link1d", LinkSimulator1D)])
    def test_spec_keys_are_the_dataclass_fields(self, kind, cls):
        # every field is accepted as a spec key, and nothing else is
        full = simulator_to_spec(cls())
        assert set(full) == {"kind", *(f.name for f in fields(cls))}
        for key, value in full.items():
            assert simulator_from_spec({"kind": kind, key: value}) == cls()
        every_field = {f.name for c in (RealisticSimulator, LinkSimulator1D) for f in fields(c)}
        for key in every_field - set(full) | {"bogus"}:
            with pytest.raises(ValueError, match=f"unknown {kind} simulator spec key.*: {key}"):
                simulator_from_spec({"kind": kind, key: None})

    def test_defaults_that_depend_on_d(self):
        sim = simulator_from_spec({"kind": "realistic", "d": 3})
        assert sim.omega == (1.0, 0.0, 0.0)
        assert sim.omega_perp == (0.0, 1.0, 0.0)
        assert sim.sigma_eigenvalues == (1.0, 1.0, 1.0)
        spec = simulator_to_spec(sim)
        assert spec["omega"] == [1.0, 0.0, 0.0]
        assert spec["omega_perp"] == [0.0, 1.0, 0.0]
        assert spec["sigma_eigenvalues"] == [1.0, 1.0, 1.0]

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            simulator_from_spec({"kind": "unknown"})
        with pytest.raises(ValueError):
            simulator_from_spec([])
        with pytest.raises(ValueError, match="key.*: distorsion, psy"):
            simulator_from_spec({"kind": "realistic", "psy": "sign", "distorsion": "square"})
        with pytest.raises(ValueError, match="key.*: psi"):
            simulator_from_spec({"kind": "link1d", "psi": "sign"})
        with pytest.raises(ValueError, match="'accuracy_preserving' must be true or false"):
            simulator_from_spec({"kind": "realistic", "accuracy_preserving": "false"})
        with pytest.raises(ValueError, match="'accuracy_preserving' must be true or false"):
            simulator_from_spec({"kind": "link1d", "accuracy_preserving": 0})
        # wrong JSON types raise ValueError, never TypeError
        for key, value in [("psi", ["sign"]), ("d", "3"), ("d", 2.0), ("omega", 1.0),
                           ("omega_perp", ["0", "1"]), ("sigma_eigenvalues", [True, 1.0]),
                           ("distortion", 2)]:
            with pytest.raises(ValueError, match=f"'{key}' must be"):
                simulator_from_spec({"kind": "realistic", key: value})
        with pytest.raises(ValueError, match="'link' must be a string"):
            simulator_from_spec({"kind": "link1d", "link": {"name": "poly"}})
        with pytest.raises(ValueError, match="kind"):
            simulator_from_spec({"kind": ["realistic"]})
        for key in ("omega", "omega_perp"):
            with pytest.raises(ValueError, match=f"^{key} must not be the zero vector"):
                simulator_from_spec({"kind": "realistic", key: [0, 0]})
        # json reads the NaN and Infinity literals
        for key, value in [("omega", "[NaN, 0]"), ("omega_perp", "[0, Infinity]"),
                           ("sigma_eigenvalues", "[1, Infinity]"),
                           ("sigma_eigenvalues", "[NaN, 1]")]:
            spec = json.loads(f'{{"kind": "realistic", "{key}": {value}}}')
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                simulator_from_spec(spec)
