"""Scoring-rule primitives: divergences, entropies, h-variances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouploss.scoring import (
    BRIER,
    BRIER_SCALAR,
    LOG_LOSS,
    ScoringRule,
    WeightedProbSample,
    binary_divergence,
    binary_negative_entropy,
    divergence,
    finite_decomposition,
    finite_decomposition_classwise,
    h_variance,
    negative_entropy,
)


class TestDivergence:
    def test_identity_is_zero(self):
        assert divergence(BRIER, (0.7, 0.3), (0.7, 0.3)) == 0.0
        assert divergence(LOG_LOSS, (0.7, 0.3), (0.7, 0.3)) == 0.0

    def test_brier_vector_and_scalar(self):
        assert divergence(BRIER, (0.7, 0.3), (0.6, 0.4)) == pytest.approx(0.02, abs=1e-15)
        assert divergence(BRIER_SCALAR, 0.7, 0.6) == pytest.approx(0.01, abs=1e-15)

    def test_logloss_value(self):
        expected = 0.8 * np.log(0.8 / 0.7) + 0.2 * np.log(0.2 / 0.3)
        assert divergence(LOG_LOSS, (0.7, 0.3), (0.8, 0.2)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.02573, abs=5e-6)

    def test_strict_propriety(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            for rule in (BRIER, LOG_LOSS):
                d = divergence(rule, s, q)
                assert d >= 0.0
            assert divergence(BRIER, s, s) == 0.0

    def test_logloss_domain_error(self):
        with pytest.raises(ValueError, match="infinite"):
            divergence(LOG_LOSS, (0.0, 1.0), (0.5, 0.5))
        # zero forecast mass on a zero-probability class is fine
        assert divergence(LOG_LOSS, (0.0, 1.0), (0.0, 1.0)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            divergence(BRIER, (0.5, 0.5), (0.2, 0.3, 0.5))

    def test_off_simplex_rejected(self):
        for s in ((0.7, 0.7), (np.nan, 0.5)):
            with pytest.raises(ValueError, match="simplex"):
                divergence(BRIER, s, (0.5, 0.5))

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            divergence(BRIER_SCALAR, np.nan, 0.5)


class TestNegativeEntropy:
    def test_brier_scalar(self):
        assert negative_entropy(BRIER_SCALAR, 0.5) == pytest.approx(-0.25, abs=1e-15)

    def test_logloss_degenerate(self):
        assert negative_entropy(LOG_LOSS, (1.0, 0.0)) == 0.0

    def test_brier_vector(self):
        assert negative_entropy(BRIER, (0.6, 0.4)) == pytest.approx(-0.48, abs=1e-15)

    def test_convexity_on_random_triples(self):
        rng = np.random.default_rng(11)
        for rule in (BRIER, LOG_LOSS):
            for _ in range(300):
                p = rng.dirichlet(np.ones(3))
                q = rng.dirichlet(np.ones(3))
                t = rng.uniform()
                mid = t * p + (1 - t) * q
                lhs = negative_entropy(rule, mid)
                rhs = t * negative_entropy(rule, p) + (1 - t) * negative_entropy(rule, q)
                assert lhs <= rhs + 1e-12

    def test_scalar_brier_vectorized(self):
        p = np.array([0.0, 0.25, 0.5, 1.0])
        np.testing.assert_allclose(
            negative_entropy(BRIER_SCALAR, p), -p * (1 - p), atol=1e-15
        )


class TestHVariance:
    def test_constant_sample_is_zero(self):
        sample = WeightedProbSample(np.array([0.3, 0.3, 0.3]), np.full(3, 1 / 3))
        assert h_variance(BRIER_SCALAR, sample) == pytest.approx(0.0, abs=1e-15)
        vec = WeightedProbSample(np.tile([0.2, 0.8], (4, 1)), np.full(4, 0.25))
        assert h_variance(LOG_LOSS, vec) == pytest.approx(0.0, abs=1e-15)

    def test_scalar_brier_is_classical_variance(self):
        sample = WeightedProbSample(np.array([0.6, 0.8]), np.array([0.5, 0.5]))
        assert h_variance(BRIER_SCALAR, sample) == pytest.approx(0.01, abs=1e-15)

    def test_logloss_pair_high_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        h = lambda p: p * mpmath.log(p) + (1 - p) * mpmath.log(1 - p)
        expected = (h(mpmath.mpf("0.6")) + h(mpmath.mpf("0.8"))) / 2 - h(mpmath.mpf("0.7"))
        sample = WeightedProbSample(
            np.array([[0.6, 0.4], [0.8, 0.2]]), np.array([0.5, 0.5])
        )
        got = h_variance(LOG_LOSS, sample)
        assert got == pytest.approx(float(expected), rel=1e-12)
        assert got == pytest.approx(0.02416, abs=5e-6)

    def test_affine_perturbation_invariance(self):
        # perturbing h by a + b*p must not change the Jensen gap
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.05, 0.95, size=6)
        w = rng.dirichlet(np.ones(6))
        a, b = 0.37, -1.21
        base = h_variance(BRIER_SCALAR, WeightedProbSample(pts, w))
        h_pert = lambda p: (p * p - p) + a + b * p
        gap = float(np.dot(w, h_pert(pts)) - h_pert(np.dot(w, pts)))
        assert abs(gap - base) < 1e-12

    def test_vector_is_twice_scalar_on_binary(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.integers(2, 8)
            p = rng.uniform(0, 1, size=m)
            w = rng.dirichlet(np.ones(m))
            scalar = h_variance(BRIER_SCALAR, WeightedProbSample(p, w))
            vec = h_variance(BRIER, WeightedProbSample(np.column_stack([p, 1 - p]), w))
            assert vec == pytest.approx(2.0 * scalar, abs=1e-12)

    def test_law_of_total_h_variance(self):
        # total = E[within-group] + between-group, for arbitrary groupings
        rng = np.random.default_rng(13)
        for rule in (BRIER_SCALAR, BRIER, LOG_LOSS):
            for _ in range(100):
                m = int(rng.integers(4, 16))
                if rule is BRIER_SCALAR:
                    pts = rng.uniform(0.05, 0.95, size=m)
                else:
                    pts = rng.dirichlet(np.ones(3), size=m)
                w = rng.dirichlet(np.ones(m))
                groups = rng.integers(0, 3, size=m)
                total = h_variance(rule, WeightedProbSample(pts, w))
                within = 0.0
                means, gw = [], []
                for g in np.unique(groups):
                    sel = groups == g
                    wg = w[sel].sum()
                    within += wg * h_variance(
                        rule, WeightedProbSample(pts[sel], w[sel] / wg)
                    )
                    means.append(np.average(pts[sel], axis=0, weights=w[sel]))
                    gw.append(wg)
                between = h_variance(
                    rule, WeightedProbSample(np.array(means), np.array(gw))
                )
                assert total == pytest.approx(within + between, abs=1e-10)

    def test_scalar_brier_rejects_vector_points(self):
        sample = WeightedProbSample(np.array([[0.3, 0.7], [0.5, 0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="scalar Brier"):
            h_variance(BRIER_SCALAR, sample)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            WeightedProbSample(np.array([]), np.array([]))

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WeightedProbSample(np.array([0.5, 0.5]), np.array([0.6, 0.6]))

    @pytest.mark.parametrize("points, weights, message", [
        ([0.5, np.nan], [0.5, 0.5], r"\[0, 1\]"),
        ([[0.5, 0.5], [np.nan, 0.5]], [0.5, 0.5], "simplex"),
        ([0.5, 0.5], [np.nan, 1.0], "sum to 1"),
    ], ids=["point", "simplex-row", "weight"])
    def test_nan_rejected(self, points, weights, message):
        with pytest.raises(ValueError, match=message):
            WeightedProbSample(np.array(points), np.array(weights))


def _random_instance(rng, n_classes=3, m=12):
    # a finite law with duplicated score vectors so level sets are nontrivial
    base = rng.dirichlet(np.ones(n_classes), size=max(2, m // 3))
    scores = base[rng.integers(0, base.shape[0], size=m)]
    posteriors = rng.dirichlet(np.ones(n_classes), size=m)
    weights = rng.dirichlet(np.ones(m))
    return weights, scores, posteriors


class TestFiniteDecomposition:
    def test_three_term_identity(self):
        rng = np.random.default_rng(21)
        for rule in (BRIER, LOG_LOSS):
            for _ in range(100):
                w, s, q = _random_instance(rng)
                parts = finite_decomposition(rule, w, s, q)
                assert parts["total"] == pytest.approx(
                    parts["cl"] + parts["gl"] + parts["il"], abs=1e-10
                )
                assert parts["gl"] >= -1e-12
                assert parts["cl"] >= -1e-12

    def test_classwise_identity(self):
        rng = np.random.default_rng(22)
        for rule in (BRIER, LOG_LOSS):
            for _ in range(100):
                w, s, q = _random_instance(rng)
                parts = finite_decomposition_classwise(rule, w, s, q)
                assert parts["total"] == pytest.approx(
                    parts["cl"] + parts["gl"] + parts["il"], abs=1e-10
                )

    def test_perfect_forecaster_has_zero_cl_gl(self):
        rng = np.random.default_rng(23)
        w, s, _ = _random_instance(rng)
        parts = finite_decomposition(BRIER, w, s, s)
        assert parts["cl"] == pytest.approx(0.0, abs=1e-12)
        assert parts["gl"] == pytest.approx(0.0, abs=1e-12)
        assert parts["total"] == pytest.approx(parts["il"], abs=1e-12)


    def test_classwise_logloss_zero_score_with_zero_mean(self):
        # class 0 has score 0 and posterior mean 0 on one level set: its
        # calibration term is 0 log 0 = 0, not nan
        w = [0.5, 0.5]
        s = [[0.0, 0.4, 0.6], [0.2, 0.3, 0.5]]
        q = [[0.0, 0.5, 0.5], [0.3, 0.3, 0.4]]
        classwise = finite_decomposition_classwise(LOG_LOSS, w, s, q)
        standard = finite_decomposition(LOG_LOSS, w, s, q)
        assert np.isfinite(classwise["cl"])
        for key in ("total", "cl", "gl", "il"):
            assert classwise[key] == pytest.approx(standard[key], abs=1e-12)

    def test_logloss_level_set_mean_underflow_stays_finite(self):
        # c_0 = 5e-324 / 6 underflows to 0 under q_0 > 0; the exact GL is finite
        w = np.full(6, 1 / 6)
        s = np.full((6, 2), 0.5)
        q = np.array([[5e-324, 1.0]] + [[0.0, 1.0]] * 5)
        standard = finite_decomposition(LOG_LOSS, w, s, q)
        classwise = finite_decomposition_classwise(LOG_LOSS, w, s, q)
        assert all(np.isfinite(v) for v in standard.values())
        total = standard["cl"] + standard["gl"] + standard["il"]
        assert standard["total"] == pytest.approx(total, abs=1e-12)
        assert classwise == standard

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            finite_decomposition(BRIER, [np.nan, 1.0], [[0.5, 0.5]] * 2, [[0.5, 0.5]] * 2)

    def test_classwise_logloss_domain_error(self):
        with pytest.raises(ValueError, match="infinite"):
            finite_decomposition_classwise(
                LOG_LOSS, [0.5, 0.5], [[0.0, 1.0], [0.5, 0.5]], [[0.2, 0.8], [0.5, 0.5]]
            )


# Multiples of 1/64 are exact and so are their complements: with K = 2 the
# level sets of each score column are then exactly those of the score rows.
_grid_prob = st.integers(1, 63).map(lambda i: i / 64)


@st.composite
def _binary_instances(draw):
    m = draw(st.integers(1, 12))
    p = np.array(draw(st.lists(_grid_prob, min_size=m, max_size=m)))
    c = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    return w / w.sum(), np.column_stack([p, 1.0 - p]), np.column_stack([c, 1.0 - c])


@pytest.mark.parametrize("rule", [BRIER, LOG_LOSS], ids=["brier", "logloss"])
@settings(deadline=None)
@given(instance=_binary_instances())
def test_classwise_equals_standard_on_two_classes(rule, instance):
    w, s, q = instance
    standard = finite_decomposition(rule, w, s, q)
    classwise = finite_decomposition_classwise(rule, w, s, q)
    for key in ("total", "cl", "gl", "il"):
        assert classwise[key] == pytest.approx(standard[key], abs=1e-12)


def _reference_binary_negative_entropy(rule, p):
    # the per-convention formula as first written, kept to pin the shared core
    p = np.asarray(p, dtype=np.float64)
    if rule.kind == "brier":
        out = p * p - p
        if rule.binary_convention == "vector":
            out = 2.0 * out
        return out
    out = np.zeros_like(p)
    for arm in (p, 1.0 - p):
        mask = arm > 0
        out[mask] += arm[mask] * np.log(arm[mask])
    return out


def _reference_binary_divergence(rule, s, c):
    s = np.asarray(s, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if rule.kind == "brier":
        out = (s - c) ** 2
        if rule.binary_convention == "vector":
            out = 2.0 * out
        return out
    out = np.zeros_like(s)
    for arm_c, arm_s in ((c, s), (1.0 - c, 1.0 - s)):
        pos = arm_c > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            term = np.where(pos, arm_c * np.log(np.where(pos, arm_c, 1.0) / arm_s), 0.0)
        out = out + term
    return out


class TestBinaryCore:
    EDGES = np.array([0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53])

    def _values(self):
        rng = np.random.default_rng(29)
        p = np.concatenate([rng.uniform(size=200_000), self.EDGES])
        c = np.concatenate([rng.uniform(size=200_000), self.EDGES[::-1]])
        # every ordered pair of edge values as well
        s_edge, c_edge = (a.ravel() for a in np.meshgrid(self.EDGES, self.EDGES))
        return np.concatenate([p, s_edge]), np.concatenate([c, c_edge])

    @pytest.mark.parametrize("rule", [BRIER_SCALAR, LOG_LOSS], ids=["brier-scalar", "logloss"])
    def test_bitwise_equal_to_reference(self, rule):
        s, c = self._values()
        got = binary_negative_entropy(rule, s)
        assert got.tobytes() == _reference_binary_negative_entropy(rule, s).tobytes()
        got = binary_divergence(rule, s, c)
        assert got.tobytes() == _reference_binary_divergence(rule, s, c).tobytes()

    def test_vector_brier_close_to_reference(self):
        s, c = self._values()
        np.testing.assert_allclose(
            binary_negative_entropy(BRIER, s),
            _reference_binary_negative_entropy(BRIER, s), rtol=0, atol=1e-15,
        )
        np.testing.assert_allclose(
            binary_divergence(BRIER, s, c),
            _reference_binary_divergence(BRIER, s, c), rtol=0, atol=1e-15,
        )


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScoringRule("squared-hinge")

    def test_scalar_rejects_vectors(self):
        with pytest.raises(ValueError, match="scalar"):
            divergence(BRIER_SCALAR, np.array([0.7, 0.3]), np.array([0.6, 0.4]))
