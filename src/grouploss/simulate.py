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

from dataclasses import asdict, dataclass, fields

import numpy as np

from .binning import bin_table, jensen_gap_by_bin
from .data import LabeledDataset, bin_index_of
from .scoring import ScoringRule, binary_divergence

# rows per sampler block; each block has its own generator ``(seed, index)``
BLOCK_SIZE = 1 << 20
# Monte-Carlo oracle: score strata and bootstrap replicates of its SE
N_STRATA = 1000
N_BOOT = 20


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


def _blocks(n, seed):
    start = 0
    idx = 0
    while start < n:
        size = min(BLOCK_SIZE, n - start)
        yield size, np.random.default_rng([seed, idx])
        start += size
        idx += 1


def _same_side(s, q):
    """Pin ``q`` to the side of 1/2 that ``s`` is on."""
    return np.where(s >= 0.5, np.maximum(q, 0.5), np.minimum(q, 0.5))


class _Simulator:
    """Shared oracle path: subclasses draw one block with ``_draw``."""

    def sample_sq(self, n, seed):
        parts_s, parts_q = [], []
        for size, rng in _blocks(n, seed):
            _, s, q = self._draw(size, rng)
            parts_s.append(s)
            parts_q.append(q)
        return np.concatenate(parts_s), np.concatenate(parts_q)


@dataclass(frozen=True)
class LinkSimulator1D(_Simulator):
    """1-D calibrated classifier with an arbitrary score/posterior link.

    ``S(x) = sigmoid(|x|)``, features standard normal.  The link must
    stay inside ``2s - 1 <= h(s) <= 2s`` on the realized score range;
    with ``accuracy_preserving`` both branches are pinned to the same
    side of 1/2 as the score.
    """

    link: object = "identity"
    accuracy_preserving: bool = False

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
            q = _same_side(s, q)
        return s, np.clip(q, 0.0, 1.0)

    def _draw(self, size, rng):
        """One block: features (size, 1), emitted scores, posteriors."""
        x = rng.standard_normal(size)
        s, q = self._score_posterior(x)
        return x[:, None], s, q


@dataclass(frozen=True)
class RealisticSimulator(_Simulator):
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
        for key, v in (("omega", omega), ("omega_perp", perp), ("sigma_eigenvalues", eig)):
            if not np.isfinite(v).all():
                raise ValueError(f"{key} must be finite")
        for key, v in (("omega", omega), ("omega_perp", perp)):
            if not np.any(v):
                raise ValueError(f"{key} must not be the zero vector")
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
            q = _same_side(s, q)
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


def default_realistic(accuracy_preserving: bool = False, distortion=None) -> RealisticSimulator:
    """The stock 2-D configuration: identity covariance, sigmoid pieces."""
    return RealisticSimulator(
        accuracy_preserving=accuracy_preserving, distortion=distortion
    )


def sample_realistic(sim, n: int, seed: int):
    """Draw a labelled binary dataset plus the oracle posterior per row.

    Serves both simulators: labels are drawn after each block's ``_draw``.
    """
    feats, scores, labels, qs = [], [], [], []
    for size, rng in _blocks(n, seed):
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


def sample_link_1d(sim: LinkSimulator1D, n: int, seed: int):
    """Draw from the 1-D construction; features are the raw x values."""
    return sample_realistic(sim, n, seed)


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    se: float
    value_refined: float


def _stratified_gl(rule, strata, q, *_):
    # a caller that also asks for the calibration loss passes the scores too
    counts = np.bincount(strata)
    # a stratum of fewer than two points is dropped; a resample leaves some empty
    keep = counts >= 2
    if not keep.any():
        return 0.0
    kept = counts[keep]
    # an empty stratum's gap, its zero sums divided by 1, is dropped too
    gaps = jensen_gap_by_bin(rule, strata, q, np.maximum(counts, 1))[keep]
    # Bessel-style rescale: removes the O(1/count) downward bias of the
    # plug-in Jensen gap (exact for Brier, first-order for log-loss), so
    # the estimate is stable under stratum refinement
    gaps = gaps * (kept / (kept - 1.0))
    return float(np.dot(kept / kept.sum(), gaps))


def _stratified_cl(rule, strata, q, s):
    counts = np.bincount(strata)
    keep = counts >= 1  # a resample leaves some strata empty
    s_mean = np.bincount(strata, weights=s)[keep] / counts[keep]
    q_mean = np.bincount(strata, weights=q)[keep] / counts[keep]
    per = binary_divergence(rule, s_mean, q_mean)
    return float(np.dot(counts[keep] / counts[keep].sum(), per))


def _monte_carlo(statistics, rule, s, columns, seed):
    """For each ``stat`` of ``statistics``, ``stat(rule, strata, *columns)``
    at ``N_STRATA`` strata of the scores ``s``, its bootstrap SE over rows,
    and 4x strata, as one ``MonteCarloEstimate`` each.  The strata are
    found once; each resample's rows keep the strata of the rows they copy,
    and the strata and each of ``columns`` are gathered once for every
    statistic."""
    def strata(k):  # each score's index among the strata the scores occupy
        return bin_table(bin_index_of(s, k), k)[2].astype(np.min_scalar_type(k))

    rng = np.random.default_rng([seed, 0x5E])
    n = s.shape[0]
    coarse, fine = strata(N_STRATA), strata(4 * N_STRATA)
    reps = np.empty((len(statistics), N_BOOT))
    for b in range(N_BOOT):
        idx = rng.integers(0, n, size=n)
        drawn = [coarse[idx]] + [c[idx] for c in columns]
        reps[:, b] = [stat(rule, *drawn) for stat in statistics]
    return [MonteCarloEstimate(stat(rule, coarse, *columns), float(r.std(ddof=1)),
                               stat(rule, fine, *columns))
            for stat, r in zip(statistics, reps)]


def true_gl_monte_carlo(sim, rule: ScoringRule, n_mc: int, seed: int) -> MonteCarloEstimate:
    """Monte-Carlo reference grouping loss from the oracle posterior.

    Scores are stratified into fine equal-width bins and the Jensen gap
    of the posterior is accumulated per stratum (strata with fewer than
    two points are dropped).  The standard error is a bootstrap over
    rows, and ``value_refined`` re-runs with 4x the strata as a
    convergence check.
    """
    s, q = sim.sample_sq(n_mc, seed)
    return _monte_carlo([_stratified_gl], rule, s, (q,), seed)[0]


def true_losses_monte_carlo(sim, rule: ScoringRule, n_mc: int, seed: int):
    """``(gl, cl)`` reference estimates from one oracle draw.

    ``gl`` equals ``true_gl_monte_carlo`` with the same arguments; ``cl``
    is the calibration loss over the same strata and resamples, zero for
    the constructions up to Monte-Carlo error.
    """
    s, q = sim.sample_sq(n_mc, seed)
    return tuple(_monte_carlo([_stratified_gl, _stratified_cl], rule, s, (q, s), seed))


_KINDS = {"realistic": RealisticSimulator, "link1d": LinkSimulator1D}


def simulator_to_spec(sim) -> dict:
    """``kind`` plus every dataclass field, tuples written as lists."""
    kind = {cls: k for k, cls in _KINDS.items()}[type(sim)]
    values = {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(sim).items()}
    return {"kind": kind, **values}


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the JSON type a spec value must have, by the type of its field's default
_JSON_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
            "a list of numbers"),
    str: (lambda v: isinstance(v, str), "a string"),
    type(None): (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def simulator_from_spec(spec: dict):
    """Build a simulator from its JSON configuration.

    Only the keys ``simulator_to_spec`` writes for the kind are accepted,
    each with the JSON type of its field's default; anything else raises
    ``ValueError``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("simulator spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown simulator kind: {kind!r}")
    types = {f.name: _JSON_TYPES[type(f.default)] for f in fields(_KINDS[kind])}
    unknown = sorted(map(str, spec.keys() - {"kind", *types}))
    if unknown:
        raise ValueError(f"unknown {kind} simulator spec key(s): {', '.join(unknown)}")
    for key, (check, what) in types.items():
        if key in spec and not check(spec[key]):
            raise ValueError(f"simulator spec key {key!r} must be {what}, got {spec[key]!r}")
    args = {key: tuple(v) if isinstance(v, list) else v
            for key, v in spec.items() if key != "kind"}
    if kind == "realistic":
        # the defaults that depend on d; the others are the dataclass's
        d = args.get("d", 2)
        args = {"omega": (1.0,) + (0.0,) * (d - 1),
                "omega_perp": (0.0, 1.0) + (0.0,) * (d - 2),
                "sigma_eigenvalues": (1.0,) * d, **args}
    return _KINDS[kind](**args)
