"""Proper scoring rules: divergences, negative entropies, h-variances.

Two rules are supported, Brier and log-loss.  Probability inputs come in
two conventions:

* ``vector``  -- a point on the K-simplex, shape ``(K,)``.
* ``scalar``  -- the positive-class probability of a binary problem, a
  plain float.  For the Brier rule this selects the scalar formulas
  (``h(p) = -p(1-p)``), whose h-variance coincides with the classical
  variance; the vector convention on a 2-class problem is exactly twice
  the scalar one.

Log-loss accepts both shapes; a scalar ``p`` is shorthand for the binary
distribution ``(p, 1-p)``.
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


def _xlogx(p):
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log(p[mask])
    return out


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
        return (_as_prob(s, "s") - _as_prob(q, "q")) ** 2
    if rule.kind == "logloss" and np.ndim(s) == 0:
        s = np.array([_as_prob(s, "s"), 1.0 - _as_prob(s, "s")])
        q = np.array([_as_prob(q, "q"), 1.0 - _as_prob(q, "q")])
    s = _as_simplex(s, "s")
    q = _as_simplex(q, "q")
    if s.shape != q.shape:
        raise ValueError(f"dimension mismatch: {s.shape} vs {q.shape}")
    if rule.kind == "brier":
        return float(np.sum((s - q) ** 2))
    support = q > 0
    if np.any(s[support] == 0.0):
        raise ValueError("log-loss divergence is infinite: s_k = 0 where q_k > 0")
    return float(np.sum(q[support] * np.log(q[support] / s[support])))


def negative_entropy(rule: ScoringRule, p):
    """Negative entropy ``h(p) = -s_phi(p, p)`` of the rule.

    Convex on its domain.  For the scalar Brier convention ``p`` may be
    an array; the formula applies elementwise.
    """
    if rule.is_scalar:
        p = np.asarray(p, dtype=np.float64)
        out = p * p - p
        return float(out) if out.ndim == 0 else out
    if rule.kind == "logloss" and np.ndim(p) == 0:
        p = np.asarray(p, dtype=np.float64)
        return float(_xlogx(p) + _xlogx(1.0 - p))
    p = _as_simplex(p)
    if rule.kind == "brier":
        return float(np.sum(p * p) - 1.0)
    return float(np.sum(_xlogx(p)))


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
        h_vals = np.array([negative_entropy(rule, p) for p in pts])
    else:
        mean = pts.T @ w
        h_vals = np.array([negative_entropy(rule, p) for p in pts])
    return float(np.dot(w, h_vals) - negative_entropy(rule, mean))


def binary_negative_entropy(rule: ScoringRule, p) -> np.ndarray:
    """h on positive-class probabilities, elementwise.

    Honours the rule's binary convention: the vector Brier value is twice
    the scalar one; log-loss uses the two-outcome entropy with 0 log 0 = 0.
    """
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


def binary_divergence(rule: ScoringRule, s, c) -> np.ndarray:
    """Divergence ``d(s, c)`` on positive-class probabilities, elementwise.

    Honours the rule's binary convention like
    :func:`binary_negative_entropy`.  Under log-loss a forecast on the
    boundary opposite positive reference mass yields ``inf``.
    """
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


def _entropy_rows(rule: ScoringRule, rows: np.ndarray) -> np.ndarray:
    """h applied to each row of an (m, K) array (vector conventions)."""
    if rule.kind == "brier":
        return np.sum(rows * rows, axis=1) - 1.0
    return np.sum(_xlogx(rows), axis=1)


def _divergence_rows(rule: ScoringRule, s_rows, q_rows) -> np.ndarray:
    if rule.kind == "brier":
        return np.sum((s_rows - q_rows) ** 2, axis=1)
    if np.any((s_rows == 0.0) & (q_rows > 0.0)):
        raise ValueError("log-loss divergence is infinite: s_k = 0 where q_k > 0")
    mask = q_rows > 0
    logratio = np.zeros_like(q_rows)
    logratio[mask] = np.log(q_rows[mask] / s_rows[mask])
    return np.sum(q_rows * logratio, axis=1)


def _group_keys(rows: np.ndarray) -> np.ndarray:
    """Integer group id per row, grouping exactly equal rows."""
    if rows.ndim == 1:
        rows = rows[:, None]
    view = np.ascontiguousarray(rows).view(
        np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    ).ravel()
    _, inverse = np.unique(view, return_inverse=True)
    return inverse


def finite_decomposition(rule: ScoringRule, weights, scores, posteriors):
    """Population calibration/grouping/irreducible split on a finite law.

    Rows with exactly equal score vectors form one level set; calibrated
    scores are the weighted posterior means per level set.  Returns a
    dict with ``total`` (expected divergence to sampled labels), ``cl``,
    ``gl`` and ``il``; ``total == cl + gl + il`` up to rounding.
    """
    w = np.asarray(weights, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    q = np.asarray(posteriors, dtype=np.float64)
    if s.ndim != 2 or s.shape != q.shape or s.shape[0] != w.shape[0]:
        raise ValueError("scores and posteriors must be aligned (m, K) arrays")
    if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
        raise ValueError("weights must be nonnegative and sum to 1")
    groups = _group_keys(s)
    n_groups = groups.max() + 1
    group_w = np.bincount(groups, weights=w, minlength=n_groups)
    c = np.empty_like(q)
    for k in range(q.shape[1]):
        sums = np.bincount(groups, weights=w * q[:, k], minlength=n_groups)
        c[:, k] = (sums / group_w)[groups]
    cl = float(np.dot(w, _divergence_rows(rule, s, c)))
    gl = float(np.dot(w, _divergence_rows(rule, c, q)))
    il = float(np.dot(w, -_entropy_rows(rule, q)))
    # total computed independently by enumerating the label distribution
    if rule.kind == "brier":
        per_label = np.sum(s * s, axis=1, keepdims=True) - 2.0 * s + 1.0
    else:
        with np.errstate(divide="ignore"):
            per_label = -np.log(s)
        per_label[q == 0.0] = 0.0
    total = float(np.dot(w, np.sum(q * per_label, axis=1)))
    return {"total": total, "cl": cl, "gl": gl, "il": il}


def finite_decomposition_classwise(rule: ScoringRule, weights, scores, posteriors):
    """Classwise variant: conditions class ``k`` on the marginal score ``S_k``.

    Valid for Brier and log-loss, whose divergences split into per-class
    terms.  Same return shape as :func:`finite_decomposition`.
    """
    w = np.asarray(weights, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    q = np.asarray(posteriors, dtype=np.float64)
    cl = gl = il = total = 0.0
    for k in range(s.shape[1]):
        sk, qk = s[:, k], q[:, k]
        groups = _group_keys(sk)
        n_groups = groups.max() + 1
        group_w = np.bincount(groups, weights=w, minlength=n_groups)
        sums = np.bincount(groups, weights=w * qk, minlength=n_groups)
        ck = (sums / group_w)[groups]
        if rule.kind == "brier":
            cl += float(np.dot(w, (sk - ck) ** 2))
            gl += float(np.dot(w, (ck - qk) ** 2))
            il += float(np.dot(w, qk * (1.0 - qk)))
            total += float(np.dot(w, qk * (1.0 - sk) ** 2 + (1.0 - qk) * sk * sk))
        else:
            if np.any((sk == 0.0) & (qk > 0.0)) or np.any((ck == 0.0) & (qk > 0.0)):
                raise ValueError("log-loss divergence is infinite on this instance")
            cl += float(np.dot(w, ck * np.log(ck / np.where(sk > 0, sk, 1.0))))
            mask = qk > 0
            gl += float(np.dot(w[mask], qk[mask] * np.log(qk[mask] / ck[mask])))
            il += float(np.dot(w, -_xlogx(qk)))
            total += float(np.dot(w[mask], qk[mask] * -np.log(sk[mask])))
    return {"total": total, "cl": cl, "gl": gl, "il": il}
