"""Grouping-loss estimators and the report they assemble.

The pipeline lower-bounds the grouping loss of a binary classifier by
``explained - induced``:

* ``explained``: between-region variance of the test-side region means
  within each score bin, debiased for finite-sample noise (Brier only);
* ``induced``: the extra grouping loss created by binning, estimated as
  the within-bin spread of a continuous calibration-curve estimate.

All estimator identities are exact arithmetic:
``lower_bound = explained - induced`` and
``explained = plugin - bias``.
"""

import json
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
from scipy.special import betaincinv

from .binning import BinnedView, jensen_gap_by_bin, within_bin_score_variance
from .calibration import CalibrationCurve
from .data import SplitIndex
from .scoring import ScoringRule, binary_negative_entropy

LOW_CONFIDENCE_REGION_COUNT = 10
LOGLOSS_CURVE_CLAMP = 1e-12


@dataclass(frozen=True)
class RegionStats:
    """Per-bin region counts and mean labels over test rows only.

    Regions with zero test rows are dropped.  ``bins`` lists the bin
    indices that received at least one test row; all other arrays align
    with it.  The weighted mean of ``region_means`` reproduces
    ``bin_pos_fraction`` per bin.
    """

    n_bins: int
    bins: np.ndarray
    bin_counts: np.ndarray
    bin_pos_fraction: np.ndarray
    region_ids: tuple
    region_counts: tuple
    region_pos: tuple

    def region_means(self, i: int) -> np.ndarray:
        return self.region_pos[i] / self.region_counts[i]

    @property
    def n_test(self) -> int:
        return int(self.bin_counts.sum())


def region_stats(
    assignments: np.ndarray,
    bview: BinnedView,
    labels: np.ndarray,
    split: SplitIndex,
) -> RegionStats:
    """Count test rows and positives per (bin, region)."""
    rows = split.test_rows
    b = bview.bin_of[rows]
    a = np.asarray(assignments, dtype=np.int64)[rows]
    y = np.asarray(labels, dtype=np.int64)[rows]
    bins, region_ids, region_counts, region_pos = [], [], [], []
    bin_counts, bin_pos = [], []
    for bin_idx in np.unique(b):
        sel = b == bin_idx
        n_s = int(np.count_nonzero(sel))
        regions = a[sel]
        ys = y[sel]
        counts = np.bincount(regions)
        pos = np.bincount(regions, weights=ys)
        keep = counts > 0
        bins.append(int(bin_idx))
        bin_counts.append(n_s)
        bin_pos.append(float(ys.sum()) / n_s)
        region_ids.append(np.flatnonzero(keep).astype(np.int64))
        region_counts.append(counts[keep].astype(np.int64))
        region_pos.append(pos[keep])
    return RegionStats(
        n_bins=bview.n_bins,
        bins=np.array(bins, dtype=np.int64),
        bin_counts=np.array(bin_counts, dtype=np.int64),
        bin_pos_fraction=np.array(bin_pos),
        region_ids=tuple(region_ids),
        region_counts=tuple(region_counts),
        region_pos=tuple(region_pos),
    )


@dataclass(frozen=True)
class GLExplainedResult:
    """Plugin, bias and debiased explained components, per bin and total.

    Regions with fewer than two test rows cannot feed the Bessel terms;
    they are dropped (weight zero, like empty regions) and the bin's
    effective count and mean are recomputed over what remains.  A bin is
    estimable when at least one region and two test rows survive; totals
    renormalize over the estimable test mass, and ``dropped_fraction``
    records how much mass the singleton regions held.  ``explained`` may
    legitimately be negative after debiasing and is not clipped.
    """

    bins: np.ndarray
    per_bin_plugin: np.ndarray
    per_bin_bias: np.ndarray
    per_bin_explained: np.ndarray
    per_bin_used: np.ndarray
    estimable: np.ndarray
    plugin: float
    bias: float
    explained: float
    n_used: int
    dropped_fraction: float
    debiased: bool


MIN_REGION_TEST_ROWS = 2


def gl_explained_debiased(stats: RegionStats, rule: ScoringRule) -> GLExplainedResult:
    """Debiased between-region variance estimate, per bin and total.

    Under Brier scoring the plugin term ``sum_j p_j (mu_j - c)^2`` is
    corrected by Bessel-style variance estimates
    ``sum_j p_j mu_j (1 - mu_j) / (n_j - 1) - c (1 - c) / (n - 1)``.
    No debiasing exists for log-loss; the plugin value is returned with
    ``debiased=False``.
    """
    n_entries = stats.bins.shape[0]
    plugin = np.zeros(n_entries)
    bias = np.zeros(n_entries)
    used = np.zeros(n_entries, dtype=np.int64)
    estimable = np.zeros(n_entries, dtype=bool)
    brier = rule.kind == "brier"
    factor = 2.0 if rule.binary_convention == "vector" else 1.0
    for i in range(n_entries):
        keep = stats.region_counts[i] >= MIN_REGION_TEST_ROWS
        counts = stats.region_counts[i][keep]
        mu = stats.region_means(i)[keep]
        n_s = int(counts.sum())
        used[i] = n_s
        estimable[i] = n_s >= 2 and counts.size >= 1
        if not estimable[i]:
            plugin[i] = bias[i] = math.nan
            continue
        c = float(np.dot(counts, mu)) / n_s
        p = counts / n_s
        if brier:
            plugin[i] = factor * float(np.dot(p, (mu - c) ** 2))
            per_region = np.dot(p, mu * (1.0 - mu) / (counts - 1))
            bias[i] = factor * float(per_region - c * (1.0 - c) / (n_s - 1))
        else:
            h = binary_negative_entropy(rule, mu)
            plugin[i] = float(np.dot(p, h)) - float(binary_negative_entropy(rule, np.array(c)))
    debiased = brier
    explained = plugin - bias
    mask = estimable
    n_used = int(used[mask].sum())
    if n_used:
        w = used[mask] / n_used
        totals = (
            float(np.dot(w, plugin[mask])),
            float(np.dot(w, bias[mask])),
            float(np.dot(w, explained[mask])),
        )
    else:
        totals = (math.nan, math.nan, math.nan)
    n_test = stats.n_test
    return GLExplainedResult(
        bins=stats.bins,
        per_bin_plugin=plugin,
        per_bin_bias=bias,
        per_bin_explained=explained,
        per_bin_used=used,
        estimable=estimable,
        plugin=totals[0],
        bias=totals[1],
        explained=totals[2],
        n_used=n_used,
        dropped_fraction=(1.0 - n_used / n_test) if n_test else 0.0,
        debiased=debiased,
    )


def gl_induced_estimate(
    curve: CalibrationCurve,
    bview: BinnedView,
    scores: np.ndarray,
    rule: ScoringRule,
) -> float:
    """Binning-induced grouping loss from the fitted calibration curve.

    Within each occupied bin, the Jensen gap of ``h`` over the curve
    values; nonnegative up to rounding.  Uses the rows covered by
    ``bview``.
    """
    rows = bview.rows
    c_vals = curve(np.asarray(scores, dtype=np.float64)[rows])
    if rule.kind == "logloss":
        c_vals = np.clip(c_vals, LOGLOSS_CURVE_CLAMP, 1.0 - LOGLOSS_CURVE_CLAMP)
    counts, gaps = jensen_gap_by_bin(rule, bview.bin_of[rows], c_vals, bview.n_bins)
    occ = counts > 0
    return float(np.dot(counts[occ] / counts.sum(), gaps[occ]))


def gl_lower_bound(explained: float, induced: float) -> float:
    """Exact subtraction; NaN flags (unestimable inputs) propagate."""
    return explained - induced


@dataclass(frozen=True)
class BinningBounds:
    """Estimable endpoints for the sum of binning-induced errors.

    ``lower``/``upper`` use the per-bin empirical score variance and
    positive fraction (Cauchy-Schwarz form); the ``equal_width`` pair is
    the looser closed form ``-(1/N) E[sqrt(c(1-c))] - 1/(4N^2)`` and
    ``(1/N) E[sqrt(c(1-c))]``.
    """

    lower: float
    upper: float
    lower_equal_width: float
    upper_equal_width: float
    mean_sqrt_c_var: float
    within_bin_score_variance: float


def binning_bounds(bview: BinnedView, rule: ScoringRule) -> BinningBounds:
    if not rule.is_scalar:
        raise ValueError("binning bounds are defined for the scalar Brier rule")
    occ = bview.occupied()
    n = bview.n
    n_bins = bview.n_bins
    if occ.size == 0 or n == 0:
        return BinningBounds(0.0, 0.0, -0.25 / n_bins**2, 0.0, 0.0, 0.0)
    w = bview.counts[occ] / n
    sqrt_v = np.sqrt(bview.score_variance[occ])
    c = bview.pos_fraction[occ]
    sqrt_c = np.sqrt(c * (1.0 - c))
    lower = -float(np.dot(w, sqrt_v * (2.0 * sqrt_c + sqrt_v)))
    upper = float(np.dot(w, sqrt_v * (2.0 * sqrt_c - sqrt_v)))
    mean_sqrt_c = float(np.dot(w, sqrt_c))
    _, within = within_bin_score_variance(bview)
    return BinningBounds(
        lower=lower,
        upper=upper,
        lower_equal_width=-mean_sqrt_c / n_bins - 1.0 / (4.0 * n_bins**2),
        upper_equal_width=mean_sqrt_c / n_bins,
        mean_sqrt_c_var=mean_sqrt_c,
        within_bin_score_variance=within,
    )


def clopper_pearson(k: int, n: int, alpha: float = 0.05):
    """Exact binomial confidence interval via Beta quantiles."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True)
class RegionRecord:
    region_index: int
    mu_hat: float
    n_region: int
    cp_lo: float
    cp_hi: float
    grayed: bool


@dataclass(frozen=True)
class BinRecord:
    bin_index: int
    s_lo: float
    s_hi: float
    s_mean: float
    c_hat: float
    n_bin: int
    estimable: bool
    regions: tuple


@dataclass(frozen=True)
class GroupingReport:
    """Every estimated quantity plus per-bin grouping-diagram data."""

    config: dict
    n_rows: int
    n_train: int
    n_test: int
    cl_binned: float
    cl_infinite: bool
    gl_plugin: float
    gl_bias: float
    gl_explained: float
    gl_induced: float
    gl_lower_bound: float
    gl_explained_clipped: float
    gl_lower_bound_clipped: float
    debiased: bool
    unestimable_bins: tuple
    low_confidence_bins: tuple
    estimable_test_fraction: float
    dropped_test_fraction: float
    bounds: BinningBounds | None
    mse_lower_bound: float | None
    bins: tuple
    metadata: dict

    def to_json_dict(self) -> dict:
        return _jsonable(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def diagram_csv(self) -> str:
        lines = [
            "bin_index,s_lo,s_hi,S_B,c_hat,n_bin,region_index,mu_hat,n_region,cp_lo,cp_hi,grayed"
        ]
        for b in self.bins:
            for r in b.regions:
                lines.append(
                    f"{b.bin_index},{b.s_lo!r},{b.s_hi!r},{b.s_mean!r},{b.c_hat!r},"
                    f"{b.n_bin},{r.region_index},{r.mu_hat!r},{r.n_region},"
                    f"{r.cp_lo!r},{r.cp_hi!r},{int(r.grayed)}"
                )
        return "\n".join(lines) + "\n"


def _jsonable(x):
    """JSON-ready copy: dataclasses become dicts, non-finite floats ``None``."""
    if is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float):
        return float(x) if math.isfinite(x) else None
    return x


def build_report(
    config: dict,
    rule: ScoringRule,
    stats: RegionStats,
    glx: GLExplainedResult,
    induced: float,
    cl: float,
    bview_eval: BinnedView,
    bounds: BinningBounds | None,
    n_rows: int,
    n_train: int,
    alpha: float = 0.05,
    metadata: dict | None = None,
) -> GroupingReport:
    """Assemble the report and the grouping-diagram records.

    A region is grayed when its Clopper-Pearson interval contains the
    bin's test-side positive fraction.
    """
    lb = gl_lower_bound(glx.explained, induced)
    bin_records = []
    low_conf = []
    for i, bin_idx in enumerate(stats.bins):
        c_hat = float(stats.bin_pos_fraction[i])
        counts = stats.region_counts[i]
        pos = stats.region_pos[i]
        mu = stats.region_means(i)
        if counts.min() < LOW_CONFIDENCE_REGION_COUNT:
            low_conf.append(int(bin_idx))
        regions = []
        for j in range(counts.shape[0]):
            lo, hi = clopper_pearson(int(round(pos[j])), int(counts[j]), alpha)
            regions.append(
                RegionRecord(
                    region_index=int(stats.region_ids[i][j]),
                    mu_hat=float(mu[j]),
                    n_region=int(counts[j]),
                    cp_lo=lo,
                    cp_hi=hi,
                    grayed=bool(lo <= c_hat <= hi),
                )
            )
        bin_records.append(
            BinRecord(
                bin_index=int(bin_idx),
                s_lo=float(bview_eval.edges[bin_idx]),
                s_hi=float(bview_eval.edges[bin_idx + 1]),
                s_mean=float(bview_eval.mean_score[bin_idx]),
                c_hat=c_hat,
                n_bin=int(stats.bin_counts[i]),
                estimable=bool(glx.estimable[i]),
                regions=tuple(regions),
            )
        )
    unestimable = tuple(
        int(b) for b, ok in zip(stats.bins, glx.estimable) if not ok
    )
    mse_lb = None
    if bounds is not None and math.isfinite(cl) and math.isfinite(glx.explained):
        mse_lb = cl + glx.explained - bounds.upper
    n_test = stats.n_test
    return GroupingReport(
        config=dict(config),
        n_rows=n_rows,
        n_train=n_train,
        n_test=n_test,
        cl_binned=cl,
        cl_infinite=bool(math.isinf(cl)),
        gl_plugin=glx.plugin,
        gl_bias=glx.bias,
        gl_explained=glx.explained,
        gl_induced=induced,
        gl_lower_bound=lb,
        gl_explained_clipped=max(glx.explained, 0.0) if math.isfinite(glx.explained) else math.nan,
        gl_lower_bound_clipped=max(lb, 0.0) if math.isfinite(lb) else math.nan,
        debiased=glx.debiased,
        unestimable_bins=unestimable,
        low_confidence_bins=tuple(low_conf),
        estimable_test_fraction=(glx.n_used / n_test) if n_test else 0.0,
        dropped_test_fraction=glx.dropped_fraction,
        bounds=bounds,
        mse_lower_bound=mse_lb,
        bins=tuple(bin_records),
        metadata=dict(metadata or {}),
    )
