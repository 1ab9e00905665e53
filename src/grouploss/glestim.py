"""Grouping-loss estimators and the report they assemble.

The pipeline lower-bounds the grouping loss of a binary classifier by
``explained - induced``:

* ``explained``: between-region variance of the test-side region means
  within each score bin, debiased for finite-sample noise (Brier only);
* ``induced``: the extra grouping loss created by binning, estimated as
  the within-bin spread of a continuous calibration-curve estimate.

``lower_bound = explained - induced`` is exact arithmetic, and so is
``explained = plugin - bias`` per bin.  The totals ``plugin``, ``bias``
and ``explained`` are three separate weighted sums over the bins, so
they satisfy ``explained = plugin - bias`` only to rounding (~1e-17).
"""

import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from operator import attrgetter

import numpy as np

from .binning import BinnedView, bin_table, jensen_gap_by_bin, within_bin_score_variance
from .calibration import CalibrationCurve
from .scoring import ScoringRule, binary_negative_entropy

LOW_CONFIDENCE_REGION_COUNT = 10
LOGLOSS_CURVE_CLAMP = 1e-12
# two-sided level of the region intervals that gray out diagram regions
CP_ALPHA = 0.05


@dataclass(frozen=True)
class RegionStats:
    """Test-row counts and positives per (bin, region), as one flat table.

    Rows are sorted by (bin, region id); the view's ``i``-th occupied bin
    owns rows ``offsets[i]:offsets[i + 1]`` and regions with no test row
    are absent.  The bins themselves, their counts and positive fractions
    are the view's; a bin's positive fraction is the count-weighted mean
    of its ``region_means``.  The table is sized by regions, not rows, so
    the partition child returns it whole.
    """

    offsets: np.ndarray
    region_ids: np.ndarray
    region_counts: np.ndarray
    region_pos: np.ndarray

    @property
    def region_means(self) -> np.ndarray:
        return self.region_pos / self.region_counts

    @property
    def n_test(self) -> int:
        return int(self.region_counts.sum())


def region_stats(assignments: np.ndarray, bview: BinnedView, labels: np.ndarray) -> RegionStats:
    """Count the rows ``bview`` covers (the test rows, in the pipeline) and
    their positives per (bin, region) in one pass.

    ``assignments[j]`` is the region of row ``bview.rows[j]`` within its
    bin, as ``assign_regions`` returns it; another length or a negative
    id raises ``ValueError``.
    """
    rows = bview.rows
    a = np.asarray(assignments, dtype=np.int64)
    if a.shape != rows.shape:
        raise ValueError(f"region ids of shape {a.shape} for the {rows.size} rows of the view")
    if a.size and a.min() < 0:
        raise ValueError("negative region id")
    y = np.asarray(labels, dtype=np.int64)[rows]
    width = int(a.max()) + 1 if a.size else 1
    # keyed by the bin's entry in the view, which is below the row count
    keys, row_of, counts = np.unique(bview.slot * width + a, return_inverse=True,
                                     return_counts=True)
    return RegionStats(
        offsets=np.append(np.searchsorted(keys, np.arange(bview.bins.size) * width), keys.size),
        region_ids=keys % width,
        region_counts=counts,
        region_pos=np.bincount(row_of, weights=y, minlength=keys.size),
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

    per_bin_plugin: np.ndarray
    per_bin_bias: np.ndarray
    per_bin_explained: np.ndarray
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
    n_entries = stats.offsets.shape[0] - 1
    plugin = np.full(n_entries, math.nan)
    bias = np.full(n_entries, math.nan)
    brier = rule.kind == "brier"
    factor = 2.0 if rule.binary_convention == "vector" else 1.0
    keep = stats.region_counts >= MIN_REGION_TEST_ROWS
    counts = stats.region_counts[keep]
    mu = stats.region_means[keep]
    # bin i's kept regions are rows at[i]:at[i + 1] of counts and mu
    at = np.cumsum(np.append(0, keep))[stats.offsets]
    used = np.diff(np.cumsum(np.append(0, counts))[at])
    # kept regions hold two rows or more, so used >= 2 also means one is left
    estimable = used >= 2
    p = counts / np.repeat(used, np.diff(at))
    if brier:
        bessel = mu * (1.0 - mu) / (counts - 1)
    else:
        h = binary_negative_entropy(rule, mu)
    # one dot per bin: segment sums by reduceat/bincount round differently
    for i in np.flatnonzero(estimable):
        j = slice(at[i], at[i + 1])
        n_s = int(used[i])
        c = float(np.dot(counts[j], mu[j])) / n_s
        if brier:
            plugin[i] = factor * float(np.dot(p[j], (mu[j] - c) ** 2))
            bias[i] = factor * float(np.dot(p[j], bessel[j]) - c * (1.0 - c) / (n_s - 1))
        else:
            h_c = float(binary_negative_entropy(rule, np.array(c)))
            plugin[i] = float(np.dot(p[j], h[j])) - h_c
            bias[i] = 0.0
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
        per_bin_plugin=plugin,
        per_bin_bias=bias,
        per_bin_explained=explained,
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
    values; nonnegative up to rounding.  Uses every row: ``scores`` align
    with ``bview.bin_of``, whichever rows the view's statistics cover.
    """
    c_vals = curve(np.asarray(scores, dtype=np.float64))
    if rule.kind == "logloss":
        c_vals = np.clip(c_vals, LOGLOSS_CURVE_CLAMP, 1.0 - LOGLOSS_CURVE_CLAMP)
    counts, slot = bin_table(bview.bin_of, bview.n_bins)[1:]
    gaps = jensen_gap_by_bin(rule, slot, c_vals, counts)
    return float(np.dot(counts / counts.sum(), gaps))


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
    n = bview.n
    n_bins = bview.n_bins
    if n == 0:
        return BinningBounds(0.0, 0.0, -0.25 / n_bins**2, 0.0, 0.0, 0.0)
    w = bview.counts / n
    sqrt_v = np.sqrt(bview.score_variance)
    c = bview.pos_fraction
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


def load_betaincinv():
    """scipy's ``betaincinv``, imported here rather than with the package:
    scipy.special takes about half the import of ``grouploss.cli``, and
    only ``clopper_pearson`` needs it.  ``grouploss estimate``, the one
    command that builds a report, loads it early, beside its CSV read."""
    from scipy.special import betaincinv

    return betaincinv


def clopper_pearson(k, n, alpha: float = CP_ALPHA):
    """Exact binomial confidence interval via Beta quantiles, elementwise.

    Scalars give a pair of floats, arrays a pair of arrays."""
    k, n = np.broadcast_arrays(k, n)
    bad = (n < 1) | (k < 0) | (k > n)
    if bad.any():
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k[bad][0]}, n={n[bad][0]}")
    betaincinv = load_betaincinv()
    lo = np.where(k == 0, 0.0, betaincinv(k, n - k + 1, alpha / 2.0))
    hi = np.where(k == n, 1.0, betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return lo[()], hi[()]


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

    def to_json(self) -> str:
        """``json.dumps(_jsonable(self), sort_keys=True, indent=2) + "\\n"``, byte for byte.

        ``json.dumps`` indents in pure Python.  The bins, nearly all of the
        text, are written here from one template per record instead; the
        rest goes through ``json.dumps``.  Record fields hold the plain
        scalars ``build_report`` puts there; any other value raises
        ``TypeError``, as ``json.dumps`` does for types it cannot encode.
        """
        head = json.dumps(_jsonable(replace(self, bins=())), sort_keys=True, indent=2)
        # "bins" sorts first among the fields
        return head.replace('"bins": []', '"bins": ' + _json_bins(self.bins), 1) + "\n"

    def diagram_csv(self) -> str:
        """The grouping-diagram table, one line per region under
        ``_DIAGRAM_HEADER``, each float as ``repr`` writes it (``nan`` and
        ``inf`` included).  Written a column at a time, like ``to_json``."""
        bins = self.bins
        regions = [r for b in bins for r in b.regions]
        bin_texts = [",".join(row) for row in zip(
            map(format, _column(bins, "bin_index")),
            *(_csv_column(_column(bins, name)) for name in ("s_lo", "s_hi", "s_mean", "c_hat")),
            map(format, _column(bins, "n_bin")),
        )]
        tails = [",".join(row) for row in zip(
            map(format, _column(regions, "region_index")),
            _csv_column(_column(regions, "mu_hat")),
            map(format, _column(regions, "n_region")),
            _csv_column(_column(regions, "cp_lo")),
            _csv_column(_column(regions, "cp_hi")),
            [format(int(g)) for g in _column(regions, "grayed")],
        )]
        heads = [text for text, b in zip(bin_texts, bins) for _ in b.regions]
        return "\n".join([_DIAGRAM_HEADER, *map(",".join, zip(heads, tails))]) + "\n"


_DIAGRAM_HEADER = "bin_index,s_lo,s_hi,S_B,c_hat,n_bin,region_index,mu_hat,n_region,cp_lo,cp_hi,grayed"


def _column(records, name) -> list:
    return list(map(attrgetter(name), records))


def _record_template(cls, indent):
    """Getters of a record's fields in sorted name order, and the record's
    JSON text with ``%s`` for each value, as ``json.dumps`` writes it
    ``indent`` spaces in."""
    names = sorted(f.name for f in fields(cls))
    pad = " " * (indent + 2)
    lines = ",\n".join(f'{pad}"{name}": %s' for name in names)
    return {name: attrgetter(name) for name in names}, "{\n" + lines + "\n" + " " * indent + "}"


_REGION_FIELDS, _REGION_JSON = _record_template(RegionRecord, 8)
_BIN_FIELDS, _BIN_JSON = _record_template(BinRecord, 4)
_JSON_BOOL = {True: "true", False: "false"}


def _json_scalar(x) -> str:
    """JSON text of ``_jsonable(x)`` for None, a bool, an int or a float."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else "null"
    raise TypeError(f"not a plain JSON scalar: {type(x).__name__}")


def _float_texts(values, distinct) -> list:
    """``float.__repr__`` of each of the floats ``values``, whose set is
    ``distinct``; each distinct value is written once.  ``-0.0 == 0.0``, so
    zeros are written one by one."""
    text = {v: float.__repr__(v) for v in distinct}
    texts = list(map(text.__getitem__, values))
    if 0.0 in text:
        texts = [float.__repr__(v) if v == 0.0 else t for v, t in zip(values, texts)]
    return texts


def _json_column(values) -> list:
    """``_json_scalar`` of each value; a column of one type in one pass.

    Region means and limits repeat a lot (small counts), so each distinct
    float is written once.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        distinct = set(values)
        if all(map(math.isfinite, distinct)):
            return _float_texts(values, distinct)
    elif kinds == {int}:
        return list(map(int.__repr__, values))
    elif kinds == {bool}:
        return list(map(_JSON_BOOL.__getitem__, values))
    return list(map(_json_scalar, values))


def _csv_column(values) -> list:
    """``repr`` of each value, as ``f"{value!r}"`` writes it."""
    if set(map(type, values)) == {float}:
        return _float_texts(values, set(values))
    return list(map(repr, values))


def _json_list(texts, indent) -> str:
    """A JSON list of item texts, its closing bracket ``indent`` spaces in."""
    if not texts:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(texts) + "\n" + " " * indent + "]"


def _json_bins(bins) -> str:
    """The JSON text of the ``bins`` field, the regions one field at a time."""
    regions = [r for b in bins for r in b.regions]
    columns = [_json_column(list(map(get, regions))) for get in _REGION_FIELDS.values()]
    texts = [_REGION_JSON % row for row in zip(*columns)]
    out, at = [], 0
    for b in bins:
        n = len(b.regions)
        out.append(_BIN_JSON % tuple(
            _json_list(texts[at:at + n], 6) if name == "regions" else _json_scalar(get(b))
            for name, get in _BIN_FIELDS.items()))
        at += n
    return _json_list(out, 2)


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
    stats: RegionStats,
    glx: GLExplainedResult,
    induced: float,
    cl: float,
    bview_eval: BinnedView,
    bounds: BinningBounds | None,
    n_rows: int,
    n_train: int,
    metadata: dict | None = None,
) -> GroupingReport:
    """Assemble the report and the grouping-diagram records.

    A region is grayed when its ``1 - CP_ALPHA`` Clopper-Pearson interval
    contains the bin's test-side positive fraction.
    """
    lb = gl_lower_bound(glx.explained, induced)
    offsets = stats.offsets.tolist()
    sizes = np.diff(stats.offsets)
    c_hat = np.repeat(bview_eval.pos_fraction, sizes)
    counts = stats.region_counts
    lo, hi = clopper_pearson(np.rint(stats.region_pos).astype(np.int64), counts)
    regions = [
        RegionRecord(*row)
        for row in zip(
            stats.region_ids.tolist(),
            stats.region_means.tolist(),
            counts.tolist(),
            lo.tolist(),
            hi.tolist(),
            ((lo <= c_hat) & (c_hat <= hi)).tolist(),
        )
    ]
    bin_records = [
        BinRecord(*row)
        for row in zip(
            bview_eval.bins.tolist(),
            bview_eval.s_lo.tolist(),
            bview_eval.s_hi.tolist(),
            bview_eval.mean_score.tolist(),
            bview_eval.pos_fraction.tolist(),
            bview_eval.counts.tolist(),
            glx.estimable.tolist(),
            [tuple(regions[a:b]) for a, b in zip(offsets, offsets[1:])],
        )
    ]
    region_bin = np.repeat(bview_eval.bins, sizes)
    low_conf = np.unique(region_bin[counts < LOW_CONFIDENCE_REGION_COUNT])
    unestimable = tuple(bview_eval.bins[~glx.estimable].tolist())
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
        low_confidence_bins=tuple(low_conf.tolist()),
        estimable_test_fraction=(glx.n_used / n_test) if n_test else 0.0,
        dropped_test_fraction=glx.dropped_fraction,
        bounds=bounds,
        mse_lower_bound=mse_lb,
        bins=tuple(bin_records),
        metadata=dict(metadata or {}),
    )
