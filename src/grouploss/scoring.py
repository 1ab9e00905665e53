"""Proper scoring rules: divergences, negative entropies, h-variances.

Each rule is given once, by its per-coordinate negative entropy ``h`` and
divergence ``d``:

* Brier:    ``h(p) = p^2 - p``,    ``d(s, q) = (s - q)^2``;
* log-loss: ``h(p) = p log p``,    ``d(s, q) = q log(q / s)``
  (0 where ``q == 0``, ``inf`` where ``s == 0 < q``).

Every entropy, divergence, h-variance and decomposition below sums these
terms over the coordinates its input convention names:

* ``BRIER`` and ``LOG_LOSS`` on a point of the K-simplex, shape ``(K,)``:
  all ``K`` coordinates.
* ``BRIER_SCALAR`` on the positive-class probability ``p`` of a binary
  problem: ``p`` alone, so ``h(p) = -p(1-p)`` and its h-variance is the
  classical variance.
* ``BRIER`` and ``LOG_LOSS`` on a positive-class probability ``p``:
  ``(p, 1 - p)``.  Vector Brier on a binary problem is therefore twice
  scalar Brier, up to rounding.
"""

from dataclasses import dataclass

import numpy as np

_SIMPLEX_ATOL = 1e-9


@dataclass(frozen=True)
class ScoringRule:
    """A proper scoring rule plus the binary input convention.

    ``binary_convention`` is only meaningful for the Brier rule: under
    ``"scalar"`` all inputs are positive-class probabilities, under
    ``"vector"`` they are simplex vectors.
    """

    kind: str
    binary_convention: str = "vector"

    def __post_init__(self):
        if self.kind not in ("brier", "logloss"):
            raise ValueError(f"unknown scoring rule kind: {self.kind!r}")
        if self.binary_convention not in ("scalar", "vector"):
            raise ValueError(
                f"unknown binary convention: {self.binary_convention!r}"
            )

    @property
    def is_scalar(self) -> bool:
        return self.kind == "brier" and self.binary_convention == "scalar"


BRIER = ScoringRule("brier", "vector")
BRIER_SCALAR = ScoringRule("brier", "scalar")
LOG_LOSS = ScoringRule("logloss")


def _as_simplex(p, name="p"):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be a 1-D probability vector")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > _SIMPLEX_ATOL:
        raise ValueError(f"{name} is not on the probability simplex: {p}")
    return np.clip(p, 0.0, None)


def _as_prob(p, name="p"):
    p = float(p)
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return min(max(p, 0.0), 1.0)


def _h(rule: ScoringRule, p):
    """Negative-entropy term of one coordinate, elementwise."""
    if rule.kind == "brier":
        return p * p - p
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log(p[mask])
    return out


def _d(rule: ScoringRule, s, q):
    """Divergence term of one coordinate, forecast ``s`` against ``q``."""
    if rule.kind == "brier":
        return (s - q) ** 2
    pos = q > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(pos, q * np.log(np.where(pos, q, 1.0) / s), 0.0)


def _on_binary(term, rule: ScoringRule, *probs):
    """``term`` summed over the coordinates of positive-class probabilities:
    ``p`` alone under scalar Brier, else ``p`` then ``1 - p``."""
    out = term(rule, *probs)
    if rule.is_scalar:
        return out
    return out + term(rule, *(1.0 - p for p in probs))


def _check_logloss_domain(s, q):
    if np.any((s == 0.0) & (q > 0.0)):
        raise ValueError("log-loss divergence is infinite: s_k = 0 where q_k > 0")


def divergence(rule: ScoringRule, s, q) -> float:
    """Divergence of forecast ``s`` from reference distribution ``q``.

    Nonnegative, zero iff ``s == q`` (both rules are strictly proper).
    For log-loss this is ``KL(q || s)``; a zero forecast coordinate with
    positive reference mass is a domain error rather than a clamped
    finite value.
    """
    if rule.is_scalar:
        if np.ndim(s) != 0 or np.ndim(q) != 0:
            raise ValueError("scalar Brier convention expects scalar inputs")
        return _d(rule, _as_prob(s, "s"), _as_prob(q, "q"))
    if rule.kind == "logloss" and np.ndim(s) == 0:
        s = np.array([_as_prob(s, "s"), 1.0 - _as_prob(s, "s")])
        q = np.array([_as_prob(q, "q"), 1.0 - _as_prob(q, "q")])
    s = _as_simplex(s, "s")
    q = _as_simplex(q, "q")
    if s.shape != q.shape:
        raise ValueError(f"dimension mismatch: {s.shape} vs {q.shape}")
    if rule.kind == "logloss":
        _check_logloss_domain(s, q)
    return float(np.sum(_d(rule, s, q)))


def negative_entropy(rule: ScoringRule, p):
    """Negative entropy ``h(p) = -s_phi(p, p)`` of the rule.

    Convex on its domain.  For the scalar Brier convention ``p`` may be
    an array; the formula applies elementwise.
    """
    if rule.is_scalar or (rule.kind == "logloss" and np.ndim(p) == 0):
        out = _on_binary(_h, rule, np.asarray(p, dtype=np.float64))
        return float(out) if out.ndim == 0 else out
    return float(np.sum(_h(rule, _as_simplex(p))))


@dataclass(frozen=True)
class WeightedProbSample:
    """Finite weighted collection of probability points.

    ``points`` has shape ``(m,)`` (scalar convention) or ``(m, K)``;
    ``weights`` are nonnegative and sum to one within 1e-12.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.shape[0] == 0:
            raise ValueError("empty sample")
        if weights.shape != (points.shape[0],):
            raise ValueError("weights must align with points")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if points.ndim == 1:
            if np.any(points < -1e-12) or np.any(points > 1.0 + 1e-12):
                raise ValueError("scalar points must lie in [0, 1]")
        elif points.ndim == 2:
            if np.any(points < -1e-12) or np.any(
                np.abs(points.sum(axis=1) - 1.0) > 1e-12
            ):
                raise ValueError("points must lie on the probability simplex")
        else:
            raise ValueError("points must be 1-D or 2-D")


def h_variance(rule: ScoringRule, sample: WeightedProbSample) -> float:
    """Jensen gap ``sum_i w_i h(p_i) - h(sum_i w_i p_i)``.

    Nonnegative because ``h`` is convex; generalizes the variance (for
    the scalar Brier convention it *is* the classical variance).
    """
    pts = sample.points
    w = sample.weights
    if pts.ndim == 1:
        if rule.kind == "brier" and not rule.is_scalar:
            raise ValueError("vector Brier convention expects (m, K) points")
        mean = float(np.dot(w, pts))
        h_vals = _on_binary(_h, rule, pts)
    else:
        if rule.is_scalar:
            raise ValueError("scalar Brier convention expects (m,) points")
        mean = pts.T @ w
        h_vals = np.sum(_h(rule, np.clip(pts, 0.0, None)), axis=1)
    return float(np.dot(w, h_vals) - negative_entropy(rule, mean))


def binary_negative_entropy(rule: ScoringRule, p) -> np.ndarray:
    """h on positive-class probabilities, elementwise.

    Honours the rule's binary convention: the vector Brier value is twice
    the scalar one up to rounding; log-loss uses the two-outcome entropy
    with 0 log 0 = 0.
    """
    return _on_binary(_h, rule, np.asarray(p, dtype=np.float64))


def binary_divergence(rule: ScoringRule, s, c) -> np.ndarray:
    """Divergence ``d(s, c)`` on positive-class probabilities, elementwise.

    Honours the rule's binary convention like
    :func:`binary_negative_entropy`.  Under log-loss a forecast on the
    boundary opposite positive reference mass yields ``inf``.
    """
    s = np.asarray(s, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    return _on_binary(_d, rule, s, c)


def _group_keys(rows: np.ndarray) -> np.ndarray:
    """Integer group id per row, grouping exactly equal rows."""
    if rows.ndim == 1:
        rows = rows[:, None]
    view = np.ascontiguousarray(rows).view(
        np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    ).ravel()
    _, inverse = np.unique(view, return_inverse=True)
    return inverse


def _decomposition(rule: ScoringRule, weights, scores, posteriors, classwise):
    w = np.asarray(weights, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    q = np.asarray(posteriors, dtype=np.float64)
    if s.ndim != 2 or s.shape != q.shape or s.shape[0] != w.shape[0]:
        raise ValueError("scores and posteriors must be aligned (m, K) arrays")
    if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
        raise ValueError("weights must be nonnegative and sum to 1")
    # level sets: equal score rows, or equal scores of each class alone
    n_classes = s.shape[1]
    if classwise:
        keys = [_group_keys(s[:, k]) for k in range(n_classes)]
    else:
        keys = [_group_keys(s)] * n_classes
    c = np.empty_like(q)
    for k, groups in enumerate(keys):
        group_w = np.bincount(groups, weights=w)
        c[:, k] = (np.bincount(groups, weights=w * q[:, k]) / group_w)[groups]
    if rule.kind == "logloss":
        _check_logloss_domain(s, c)
        _check_logloss_domain(c, q)
    cl = float(np.dot(w, np.sum(_d(rule, s, c), axis=1)))
    gl = float(np.dot(w, np.sum(_d(rule, c, q), axis=1)))
    il = float(np.dot(w, -np.sum(_h(rule, q), axis=1)))
    # total computed independently by enumerating the label distribution
    if rule.kind == "brier":
        per_label = np.sum(s * s, axis=1, keepdims=True) - 2.0 * s + 1.0
    else:
        with np.errstate(divide="ignore"):
            per_label = -np.log(s)
        per_label[q == 0.0] = 0.0
    total = float(np.dot(w, np.sum(q * per_label, axis=1)))
    return {"total": total, "cl": cl, "gl": gl, "il": il}


def finite_decomposition(rule: ScoringRule, weights, scores, posteriors):
    """Population calibration/grouping/irreducible split on a finite law.

    Rows with exactly equal score vectors form one level set; calibrated
    scores are the weighted posterior means per level set.  Returns a
    dict with ``total`` (expected divergence to sampled labels), ``cl``,
    ``gl`` and ``il``; ``total == cl + gl + il`` up to rounding.
    """
    return _decomposition(rule, weights, scores, posteriors, classwise=False)


def finite_decomposition_classwise(rule: ScoringRule, weights, scores, posteriors):
    """Classwise variant: conditions class ``k`` on the marginal score ``S_k``.

    Valid for Brier and log-loss, whose divergences split into per-class
    terms.  Same return shape as :func:`finite_decomposition`.
    """
    return _decomposition(rule, weights, scores, posteriors, classwise=True)
