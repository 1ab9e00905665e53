"""Oracle simulators: calibrated classifiers with known posteriors.

Two constructions, both binary and calibrated by design:

* a one-dimensional classifier, even in ``x`` with a unique antecedent
  of the central score, whose posterior deviates by a link ``h`` above
  zero and by the mirrored ``g(s) = 2s - h(s)`` below, so the deviations
  average out;
* a higher-dimensional logistic classifier perturbed by an odd function
  of a feature direction orthogonal to its weight vector.

Both expose ``sample_sq`` (scores and true posteriors, for Monte-Carlo
reference values) and a full labelled-sample path.  A monotone score
distortion can be attached to emit miscalibrated variants; it leaves
level sets, and hence the grouping loss, unchanged.
"""

from dataclasses import dataclass, field

import numpy as np

from .binning import jensen_gap_by_bin
from .data import LabeledDataset, bin_index_of
from .scoring import ScoringRule, binary_divergence

DEFAULT_BLOCK_SIZE = 1 << 20


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


PSI_FUNCS = {
    "sigmoid": lambda z: 2.0 * _sigmoid(z) - 1.0,
    "sign": np.sign,
    "zero": lambda z: np.zeros_like(z),
}

LINK_FUNCS = {
    "identity": lambda s: s,
    "poly": lambda s: -s * s + 2.0 * s,
    "min2s": lambda s: np.minimum(2.0 * s, 1.0),
    "accuracy": lambda s: np.maximum(np.minimum(2.0 * s, 0.5), 2.0 * s - 1.0),
}

DISTORTIONS = {
    "overconfident": lambda s: _sigmoid(2.0 * np.log(s / (1.0 - s))),
    "underconfident": lambda s: _sigmoid(0.5 * np.log(s / (1.0 - s))),
    "square": lambda s: s * s,
    "sqrt": np.sqrt,
}


def _resolve(table, value, what):
    if callable(value):
        return value
    try:
        return table[value]
    except KeyError:
        raise ValueError(f"unknown {what}: {value!r}") from None


def _blocks(n, seed, block_size):
    start = 0
    idx = 0
    while start < n:
        size = min(block_size, n - start)
        yield size, np.random.default_rng([seed, idx])
        start += size
        idx += 1


def _sample_sq(sim, n, seed, block_size):
    parts_s, parts_q = [], []
    for size, rng in _blocks(n, seed, block_size):
        _, s, q = sim._draw(size, rng)
        parts_s.append(s)
        parts_q.append(q)
    return np.concatenate(parts_s), np.concatenate(parts_q)


@dataclass(frozen=True)
class LinkSimulator1D:
    """1-D calibrated classifier with an arbitrary score/posterior link.

    ``S(x) = sigmoid(|x|)``, features standard normal.  The link must
    stay inside ``2s - 1 <= h(s) <= 2s`` on the realized score range;
    with ``accuracy_preserving`` both branches are pinned to the same
    side of 1/2 as the score.
    """

    link: object = "identity"
    accuracy_preserving: bool = False
    name: str = field(default="", compare=False)

    def _h(self, s):
        return _resolve(LINK_FUNCS, self.link, "link")(s)

    def _score_posterior(self, x):
        s = _sigmoid(np.abs(x))
        h = self._h(s)
        if np.any(h < 2.0 * s - 1.0 - 1e-12) or np.any(h > 2.0 * s + 1e-12):
            raise ValueError("link leaves the admissible band 2s-1 <= h(s) <= 2s")
        g = 2.0 * s - h
        q = np.where(x > 0, h, np.where(x < 0, g, s))
        if self.accuracy_preserving:
            # both branches must sit on the score's side of 1/2; the clamp
            # below only absorbs last-ulp rounding, never a real violation
            side_ok = np.where(s >= 0.5, np.minimum(h, g) >= 0.5 - 1e-9,
                               np.maximum(h, g) < 0.5 + 1e-9)
            if not side_ok.all():
                raise ValueError("link is not accuracy-preserving on these scores")
            q = np.where(s >= 0.5, np.maximum(q, 0.5), np.minimum(q, 0.5))
        return s, np.clip(q, 0.0, 1.0)

    def _draw(self, size, rng):
        """One block: features (size, 1), emitted scores, posteriors."""
        x = rng.standard_normal(size)
        s, q = self._score_posterior(x)
        return x[:, None], s, q

    def sample_sq(self, n, seed, block_size=DEFAULT_BLOCK_SIZE):
        return _sample_sq(self, n, seed, block_size)


@dataclass(frozen=True)
class RealisticSimulator:
    """Logistic classifier with heterogeneity orthogonal to its weights.

    ``S(x) = sigmoid(omega . x)`` with ``X ~ N(0, Sigma)``; the posterior
    ``Q = S + psi(omega_perp . x) * delta_max`` stays calibrated because
    ``psi`` is odd and ``Sigma`` has ``omega`` and ``omega_perp`` among
    its eigenvectors.  ``delta_max = min(1-S, S)``, additionally capped
    by ``|1/2 - S|`` when ``accuracy_preserving`` is set.
    """

    d: int = 2
    omega: tuple = (1.0, 0.0)
    omega_perp: tuple = (0.0, 1.0)
    psi: object = "sigmoid"
    accuracy_preserving: bool = False
    sigma_eigenvalues: tuple = (1.0, 1.0)
    distortion: object = None

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=np.float64)
        perp = np.asarray(self.omega_perp, dtype=np.float64)
        eig = np.asarray(self.sigma_eigenvalues, dtype=np.float64)
        if omega.shape != (self.d,) or perp.shape != (self.d,):
            raise ValueError("omega and omega_perp must have length d")
        if abs(float(omega @ perp)) > 1e-10 * np.linalg.norm(omega) * np.linalg.norm(perp):
            raise ValueError("omega_perp must be orthogonal to omega")
        if eig.shape != (self.d,) or np.any(eig <= 0):
            raise ValueError("sigma_eigenvalues must be d positive numbers")
        psi = _resolve(PSI_FUNCS, self.psi, "perturbation")
        probe = np.linspace(-6.0, 6.0, 97)
        vals = psi(probe)
        if np.max(np.abs(vals + psi(-probe))) > 1e-9:
            raise ValueError("perturbation must be an odd function")
        if np.any(np.abs(vals) > 1.0 + 1e-12):
            raise ValueError("perturbation must map into [-1, 1]")

    def _basis(self):
        """Orthonormal basis starting with omega-hat and omega_perp-hat."""
        omega = np.asarray(self.omega, dtype=np.float64)
        perp = np.asarray(self.omega_perp, dtype=np.float64)
        cols = [omega / np.linalg.norm(omega), perp / np.linalg.norm(perp)]
        for j in range(self.d):
            if len(cols) == self.d:
                break
            v = np.zeros(self.d)
            v[j] = 1.0
            for c in cols:
                v = v - (v @ c) * c
            norm = np.linalg.norm(v)
            if norm > 1e-9:
                cols.append(v / norm)
        return np.column_stack(cols)

    def _score_posterior(self, x):
        omega = np.asarray(self.omega, dtype=np.float64)
        perp = np.asarray(self.omega_perp, dtype=np.float64)
        s = _sigmoid(x @ omega)
        delta = np.minimum(1.0 - s, s)
        if self.accuracy_preserving:
            delta = np.minimum(delta, np.abs(0.5 - s))
        q = s + _resolve(PSI_FUNCS, self.psi, "perturbation")(x @ perp) * delta
        if self.accuracy_preserving:
            q = np.where(s >= 0.5, np.maximum(q, 0.5), np.minimum(q, 0.5))
        return s, np.clip(q, 0.0, 1.0)

    def _emit(self, s):
        if self.distortion is None:
            return s
        return np.clip(_resolve(DISTORTIONS, self.distortion, "distortion")(s), 0.0, 1.0)

    def _sample_x(self, size, rng):
        z = rng.standard_normal((size, self.d))
        scale = np.sqrt(np.asarray(self.sigma_eigenvalues, dtype=np.float64))
        return (z * scale) @ self._basis().T

    def _draw(self, size, rng):
        """One block: features (size, d), emitted scores, posteriors."""
        x = self._sample_x(size, rng)
        s, q = self._score_posterior(x)
        return x, self._emit(s), q

    def sample_sq(self, n, seed, block_size=DEFAULT_BLOCK_SIZE):
        return _sample_sq(self, n, seed, block_size)


def default_realistic(accuracy_preserving: bool = False, distortion=None) -> RealisticSimulator:
    """The stock 2-D configuration: identity covariance, sigmoid pieces."""
    return RealisticSimulator(
        accuracy_preserving=accuracy_preserving, distortion=distortion
    )


def sample_realistic(sim, n: int, seed: int, block_size: int = DEFAULT_BLOCK_SIZE):
    """Draw a labelled binary dataset plus the oracle posterior per row.

    Serves both simulators: labels are drawn after each block's ``_draw``.
    """
    feats, scores, labels, qs = [], [], [], []
    for size, rng in _blocks(n, seed, block_size):
        x, s, q = sim._draw(size, rng)
        feats.append(x)
        scores.append(s)
        labels.append((rng.uniform(size=size) < q).astype(np.int64))
        qs.append(q)
    s = np.concatenate(scores)
    ds = LabeledDataset(
        np.vstack(feats), np.column_stack([1.0 - s, s]), np.concatenate(labels)
    )
    return ds, np.concatenate(qs)


def sample_link_1d(sim: LinkSimulator1D, n: int, seed: int,
                   block_size: int = DEFAULT_BLOCK_SIZE):
    """Draw from the 1-D construction; features are the raw x values."""
    return sample_realistic(sim, n, seed, block_size)


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    se: float
    value_refined: float
    n: int
    n_strata: int


def _stratified_gl(s, q, rule, n_strata):
    counts, gaps = jensen_gap_by_bin(rule, bin_index_of(s, n_strata), q, n_strata)
    keep = counts >= 2
    if not keep.any():
        return 0.0
    kept = counts[keep]
    # Bessel-style rescale: removes the O(1/count) downward bias of the
    # plug-in Jensen gap (exact for Brier, first-order for log-loss), so
    # the estimate is stable under stratum refinement
    gaps = gaps[keep] * (kept / (kept - 1.0))
    return float(np.dot(kept / kept.sum(), gaps))


def _stratified_cl(s, q, rule, n_strata):
    sel = bin_index_of(s, n_strata)
    counts = np.bincount(sel, minlength=n_strata)
    keep = counts >= 1
    s_mean = np.bincount(sel, weights=s, minlength=n_strata)[keep] / counts[keep]
    q_mean = np.bincount(sel, weights=q, minlength=n_strata)[keep] / counts[keep]
    per = binary_divergence(rule, s_mean, q_mean)
    return float(np.dot(counts[keep] / counts[keep].sum(), per))


def _bootstrap_se(fn, s, q, seed, n_boot=20):
    rng = np.random.default_rng([seed, 0x5E])
    n = s.shape[0]
    reps = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, n, size=n)
        reps[b] = fn(s[idx], q[idx])
    return float(reps.std(ddof=1))


def true_gl_monte_carlo(
    sim,
    rule: ScoringRule,
    n_mc: int,
    seed: int,
    n_strata: int = 1000,
    n_boot: int = 20,
) -> MonteCarloEstimate:
    """Monte-Carlo reference grouping loss from the oracle posterior.

    Scores are stratified into fine equal-width bins and the Jensen gap
    of the posterior is accumulated per stratum (strata with fewer than
    two points are dropped).  The standard error is a bootstrap over
    rows, and ``value_refined`` re-runs with 4x the strata as a
    convergence check.
    """
    s, q = sim.sample_sq(n_mc, seed)
    value = _stratified_gl(s, q, rule, n_strata)
    refined = _stratified_gl(s, q, rule, 4 * n_strata)
    se = _bootstrap_se(lambda a, b: _stratified_gl(a, b, rule, n_strata), s, q, seed, n_boot)
    return MonteCarloEstimate(value, se, refined, n_mc, n_strata)


def true_cl_monte_carlo(
    sim,
    rule: ScoringRule,
    n_mc: int,
    seed: int,
    n_strata: int = 1000,
    n_boot: int = 20,
) -> MonteCarloEstimate:
    """Monte-Carlo reference calibration loss (zero for the constructions)."""
    s, q = sim.sample_sq(n_mc, seed)
    value = _stratified_cl(s, q, rule, n_strata)
    refined = _stratified_cl(s, q, rule, 4 * n_strata)
    se = _bootstrap_se(lambda a, b: _stratified_cl(a, b, rule, n_strata), s, q, seed, n_boot)
    return MonteCarloEstimate(value, se, refined, n_mc, n_strata)


def simulator_to_spec(sim) -> dict:
    if isinstance(sim, RealisticSimulator):
        return {
            "kind": "realistic",
            "d": sim.d,
            "omega": list(sim.omega),
            "omega_perp": list(sim.omega_perp),
            "psi": sim.psi,
            "accuracy_preserving": sim.accuracy_preserving,
            "sigma_eigenvalues": list(sim.sigma_eigenvalues),
            "distortion": sim.distortion,
        }
    if isinstance(sim, LinkSimulator1D):
        return {
            "kind": "link1d",
            "link": sim.link,
            "accuracy_preserving": sim.accuracy_preserving,
        }
    raise TypeError(f"unknown simulator: {sim!r}")


def simulator_from_spec(spec: dict):
    """Build a simulator from its JSON configuration."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("simulator spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "realistic":
        d = int(spec.get("d", 2))
        return RealisticSimulator(
            d=d,
            omega=tuple(spec.get("omega", (1.0,) + (0.0,) * (d - 1))),
            omega_perp=tuple(spec.get("omega_perp", (0.0, 1.0) + (0.0,) * (d - 2))),
            psi=spec.get("psi", "sigmoid"),
            accuracy_preserving=bool(spec.get("accuracy_preserving", False)),
            sigma_eigenvalues=tuple(spec.get("sigma_eigenvalues", (1.0,) * d)),
            distortion=spec.get("distortion"),
        )
    if kind == "link1d":
        return LinkSimulator1D(
            link=spec.get("link", "identity"),
            accuracy_preserving=bool(spec.get("accuracy_preserving", False)),
        )
    raise ValueError(f"unknown simulator kind: {kind!r}")
