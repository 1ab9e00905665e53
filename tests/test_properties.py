"""Property tests for the kernels the estimator and the oracle share, for
invariants of the partition and the region table, and for CSV round trips."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouploss.binning import jensen_gap_by_bin, make_bins
from grouploss.data import (
    BinaryView,
    LabeledDataset,
    SplitIndex,
    _read_rows,
    bin_index_of,
    read_dataset_csv,
    stratified_split,
    write_dataset_csv,
)
from grouploss import kernels
from grouploss.glestim import (
    BinningBounds,
    BinRecord,
    GroupingReport,
    RegionRecord,
    RegionStats,
    _jsonable,
    gl_explained_debiased,
    region_stats,
)
from grouploss.partition import (
    MIN_SAMPLES_LEAF,
    MIN_SPLIT_GAIN,
    BalancedStump,
    KMeans,
    Tree,
    _grow_trees,
    _row_terms,
    _sq_distances,
)
from grouploss.scoring import (
    BRIER,
    BRIER_SCALAR,
    LOG_LOSS,
    WeightedProbSample,
    binary_divergence,
    divergence,
    h_variance,
    negative_entropy,
)

from test_kernels import _best_split, _best_split_reference
from test_partition import (
    _assert_same_tree,
    _assign_to_bin_0,
    _fit_stump_reference,
    _grow_tree,
    _grow_tree_reference,
)

each_rule = pytest.mark.parametrize(
    "rule", [BRIER_SCALAR, BRIER, LOG_LOSS], ids=["brier-scalar", "brier-vector", "logloss"]
)
probs = st.floats(0.0, 1.0)


@each_rule
@settings(deadline=None)
@given(s=probs, c=probs)
def test_binary_divergence_matches_divergence(rule, s, c):
    got = float(binary_divergence(rule, np.array([s]), np.array([c]))[0])
    try:
        with np.errstate(over="ignore"):
            want = divergence(rule, s, c)
    except ValueError:
        # log-loss: a zero forecast where the reference has mass
        assert rule.kind == "logloss" and got == math.inf
        return
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    if rule is BRIER:
        # every point function reads a positive-class p as (p, 1 - p):
        # the explicit vector form, and twice scalar Brier
        def two(*ps):
            return np.column_stack([ps, [1.0 - p for p in ps]])

        half = np.array([0.5, 0.5])
        cases = [
            (want, divergence(BRIER, two(s)[0], two(c)[0]), divergence(BRIER_SCALAR, s, c)),
            (negative_entropy(BRIER, s), negative_entropy(BRIER, two(s)[0]),
             negative_entropy(BRIER_SCALAR, s)),
            (h_variance(BRIER, WeightedProbSample(np.array([s, c]), half)),
             h_variance(BRIER, WeightedProbSample(two(s, c), half)),
             h_variance(BRIER_SCALAR, WeightedProbSample(np.array([s, c]), half))),
        ]
        for value, vector_form, scalar in cases:
            assert value == pytest.approx(vector_form, abs=1e-15)
            assert value == pytest.approx(2.0 * scalar, abs=1e-15)


@st.composite
def binned_values(draw):
    n_bins = draw(st.integers(1, 6))
    m = draw(st.integers(1, 40))
    bin_of = np.array(draw(st.lists(st.integers(0, n_bins - 1), min_size=m, max_size=m)))
    values = np.array(draw(st.lists(probs, min_size=m, max_size=m)))
    return n_bins, bin_of, values


@each_rule
@settings(deadline=None)
@given(data=binned_values())
def test_jensen_gap_by_bin_matches_h_variance(rule, data):
    n_bins, bin_of, values = data
    counts, gaps = jensen_gap_by_bin(rule, bin_of, values, n_bins)
    np.testing.assert_array_equal(counts, np.bincount(bin_of, minlength=n_bins))
    for b in range(n_bins):
        v = values[bin_of == b]
        if v.size == 0:
            assert math.isnan(gaps[b])
            continue
        vector_brier = rule.kind == "brier" and not rule.is_scalar
        points = np.column_stack([1.0 - v, v]) if vector_brier else v
        sample = WeightedProbSample(points, np.full(v.size, 1.0 / v.size))
        assert gaps[b] == pytest.approx(h_variance(rule, sample), abs=1e-12)


@st.composite
def region_tables(draw):
    """RegionStats over random (count, positives) regions per bin."""
    n_entries = draw(st.integers(1, 5))
    ids, counts, pos = [], [], []
    for _ in range(n_entries):
        n_regions = draw(st.integers(1, 6))
        c = np.array(draw(st.lists(st.integers(1, 30), min_size=n_regions, max_size=n_regions)))
        p = np.array([draw(st.integers(0, int(k))) for k in c], dtype=np.float64)
        ids.append(np.arange(n_regions, dtype=np.int64))
        counts.append(c.astype(np.int64))
        pos.append(p)
    bin_counts = np.array([c.sum() for c in counts], dtype=np.int64)
    return RegionStats(
        n_bins=n_entries,
        bins=np.arange(n_entries, dtype=np.int64),
        bin_counts=bin_counts,
        bin_pos_fraction=np.array([p.sum() for p in pos]) / bin_counts,
        offsets=np.concatenate(([0], np.cumsum([c.size for c in counts]))),
        region_ids=np.concatenate(ids),
        region_counts=np.concatenate(counts),
        region_pos=np.concatenate(pos),
    )


@each_rule
@settings(deadline=None)
@given(stats=region_tables())
def test_explained_is_plugin_minus_bias(rule, stats):
    glx = gl_explained_debiased(stats, rule)
    ok = glx.estimable
    np.testing.assert_array_equal(
        glx.per_bin_explained[ok], glx.per_bin_plugin[ok] - glx.per_bin_bias[ok]
    )
    assert np.isnan(glx.per_bin_explained[~ok]).all()
    if glx.n_used == 0:
        assert math.isnan(glx.explained)
    else:
        # totals are separate weighted sums, so they agree to rounding only
        assert glx.explained == pytest.approx(glx.plugin - glx.bias, rel=0, abs=1e-14)


@st.composite
def tree_inputs(draw):
    """Features (continuous or with ties) and 0/1 labels of one bin."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        values = st.floats(-1e3, 1e3, allow_subnormal=False)
    else:
        values = st.integers(0, 3).map(float)
    X = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    return X, y


@settings(deadline=None)
@given(data=tree_inputs(), cap=st.integers(1, 12))
def test_leaf_caps_nest(data, cap):
    X, y = data
    coarse = _assign_to_bin_0(_grow_tree(X, y, cap), X)
    fine = _assign_to_bin_0(_grow_tree(X, y, cap + 1), X)
    for region in np.unique(fine):
        assert np.unique(coarse[fine == region]).size == 1


# values whose sum overflows, whose halves round to zero, or that tie at zero
_EXTREMES = [sign * v for v in (1.7976931348623157e308, 1e308, 5e-324, 0.0) for sign in (1, -1)]


@st.composite
def binned_rows(draw, extremes=True):
    """Features, 0/1 labels and some of the rows grouped into 0-5 bins.

    Values lie on a grid of eighths, so midpoints are exact, and may be
    few (ties) or repeat whole rows; in some draws they also take the
    ``_EXTREMES`` (unless ``extremes`` is false).  Bins hold 0 to 40
    rows, some of them one label only.
    """
    d = draw(st.integers(1, 4))
    grid = st.integers(-2, 2) if draw(st.booleans()) else st.integers(-800, 800)
    values = grid.map(lambda i: i / 8)
    if extremes and draw(st.booleans()):
        values = values | st.sampled_from(_EXTREMES)
    sizes = draw(st.lists(st.integers(0, 40) | st.integers(0, 3), max_size=5))
    n = sum(sizes) + draw(st.integers(0, 5))  # rows in no bin too
    X = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d)), dtype=float).reshape(n, d)
    if n and draw(st.booleans()):  # duplicated rows
        X = X[np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))]
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    rows = np.array(draw(st.permutations(range(n))), dtype=np.int64)[:sum(sizes)]
    offsets = np.cumsum([0] + sizes)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        if draw(st.booleans()):  # a pure bin
            y[rows[lo:hi]] = draw(st.integers(0, 1))
    return X, y, rows, offsets


@settings(deadline=None, max_examples=200)
@given(data=binned_rows(), caps=st.data())
def test_trees_grown_together_match_each_bin_alone(data, caps):
    X, y, rows, offsets = data
    sizes = np.diff(offsets)
    caps = [caps.draw(st.integers(1, max(int(m), 1))) for m in sizes]
    forest = _grow_trees(X, y, rows, offsets, caps, MIN_SAMPLES_LEAF, MIN_SPLIT_GAIN)
    assert forest.n_regions.shape == (len(caps),)
    for b, (lo, hi, cap) in enumerate(zip(offsets[:-1], offsets[1:], caps)):
        bin_rows = rows[lo:hi]
        _assert_same_tree(forest, _grow_tree_reference(X[bin_rows], y[bin_rows], cap), b)


@settings(deadline=None, max_examples=200)
@given(data=binned_rows(), leaves=st.data())
def test_segmented_scan_matches_each_segment_alone(data, leaves):
    X, y, rows, offsets = data
    sizes = np.diff(offsets)
    min_leaf = np.array([leaves.draw(st.integers(1, 4)) for _ in sizes], dtype=np.int64)
    order = np.concatenate(
        [rows[lo:hi][np.argsort(X[rows[lo:hi]], axis=0, kind="stable").T]
         for lo, hi in zip(offsets[:-1], offsets[1:])] + [np.empty((X.shape[1], 0), np.int64)],
        axis=1)
    feats, threshs, gains = kernels.best_splits(X, y, order, sizes, min_leaf)
    for j, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        Xj, yj = X[rows[lo:hi]], y[rows[lo:hi]]
        alone = _best_split(Xj, yj, int(min_leaf[j]))
        assert (feats[j], threshs[j], gains[j]) == alone
        f, t, g = _best_split_reference(Xj, yj, int(min_leaf[j]))
        assert feats[j] == f
        if f >= 0:
            assert threshs[j] == t and gains[j] == pytest.approx(g, abs=1e-10)
    stumps = BalancedStump().fit(X, y, rows, offsets, 30, 0)
    for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        _assert_same_tree(stumps, _fit_stump_reference(X[rows[lo:hi]], y[rows[lo:hi]]), b)


@settings(deadline=None, max_examples=200)
@given(data=binned_rows(), ratio=st.integers(1, 8))
def test_train_rows_land_in_the_leaves_the_scan_made(data, ratio):
    # Each bin's train rows, sent back through its fitted tree or stump,
    # give every leaf at least min_leaf rows, as the scan counted them:
    # a threshold outside the scanned boundary leaves a leaf short.
    X, y, rows, offsets = data
    sizes = np.diff(offsets)
    for strategy, min_leaf in ((Tree(), np.full(sizes.shape, MIN_SAMPLES_LEAF)),
                               (BalancedStump(), sizes // 2)):
        model = strategy.fit(X, y, rows, offsets, ratio, 0)
        for b, (lo, hi, m) in enumerate(zip(offsets[:-1], offsets[1:], min_leaf)):
            regions = model.assign(X, rows[lo:hi], np.full(hi - lo, b))
            counts = np.bincount(regions, minlength=model.n_regions[b])
            assert counts.shape[0] == model.n_regions[b]
            if model.n_regions[b] > 1:
                assert counts.min() >= m


def _assign_reference(forest, X, root):
    # the depth-first walk that sends each node's rows to its children,
    # from the root of one bin's tree
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if forest.feature[node] < 0:
            out[rows] = forest.leaf_region[node]
            continue
        mask = X[rows, forest.feature[node]] <= forest.threshold[node]
        stack.append((forest.right[node], rows[~mask]))
        stack.append((forest.left[node], rows[mask]))
    return out


def _query_rows(X, n_bins, draw):
    # the fitted rows, values on either side of each threshold, and new
    # rows, in a drawn order, each sent to a drawn bin of n_bins (none
    # where there is no bin)
    Q = np.concatenate([X, X + 0.5, X - 0.5, np.array(draw(st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=X.shape[1], max_size=X.shape[1]),
        max_size=5))).reshape(-1, X.shape[1])])
    rows = np.array(draw(st.permutations(range(Q.shape[0]))), dtype=np.int64)
    if not n_bins:
        rows = rows[:0]
    bins = np.array(draw(st.lists(st.integers(0, max(n_bins - 1, 0)), min_size=rows.size,
                                  max_size=rows.size)), dtype=np.int64)
    return Q, rows, bins


@settings(deadline=None, max_examples=200)
@given(data=binned_rows(), draws=st.data())
def test_level_wise_assignment_matches_the_walk(data, draws):
    # one assign over query rows of every bin: empty, one-row and cap-1
    # bins among them
    X, y, rows, offsets = data
    n_bins = offsets.shape[0] - 1
    caps = [draws.draw(st.integers(1, max(int(m), 1))) for m in np.diff(offsets)]
    forest = _grow_trees(X, y, rows, offsets, caps, MIN_SAMPLES_LEAF, MIN_SPLIT_GAIN)
    Q, q_rows, q_bins = _query_rows(X, n_bins, draws.draw)
    got = forest.assign(Q, q_rows, q_bins)
    assert got.shape == q_rows.shape
    for b in range(n_bins):
        at = q_bins == b
        np.testing.assert_array_equal(got[at], _assign_reference(forest, Q[q_rows[at]], b))
    assert forest.assign(Q, q_rows[:0], q_bins[:0]).shape == (0,)


@settings(deadline=None, max_examples=100)
@given(data=binned_rows(extremes=False), k=st.integers(1, 5), draws=st.data())
def test_kmeans_assignment_matches_each_bin_alone(data, k, draws):
    # one assign over query rows of every bin, bins of 0 and 1 train rows
    # among them, against each bin's nearest center on its rows alone
    X, y, rows, offsets = data
    n_bins = offsets.shape[0] - 1
    model = KMeans(k).fit(X, y, rows, offsets, 30, 0)
    assert model.n_regions.tolist() == [max(min(k, int(m)), 1) for m in np.diff(offsets)]
    Q, q_rows, q_bins = _query_rows(X, n_bins, draws.draw)
    # fewer query rows than bins too
    cut = draws.draw(st.integers(0, q_rows.size))
    q_rows, q_bins = q_rows[:cut], q_bins[:cut]
    got = model.assign(Q, q_rows, q_bins)
    for b in range(n_bins):
        at = q_bins == b
        if model.n_regions[b] < 2:
            assert (got[at] == 0).all()
        else:
            expected = np.argmin(_sq_distances(*_row_terms(Q[q_rows[at]]), model.centers[b]),
                                 axis=1)
            np.testing.assert_array_equal(got[at], expected)


def _stratified_split_reference(bv, n_bins, seed):
    # the split as one scan of every row per bin
    rng = np.random.default_rng(seed)
    bins = bin_index_of(bv.score, n_bins)
    train, test = [], []
    for b in range(n_bins):
        rows = np.flatnonzero(bins == b)
        if rows.size == 0:
            continue
        rows = rows[rng.permutation(rows.size)]
        train.append(rows[0::2])
        test.append(rows[1::2])
    train = np.sort(np.concatenate(train)) if train else np.empty(0, np.int64)
    test = np.sort(np.concatenate(test)) if test else np.empty(0, np.int64)
    return train, test


@settings(deadline=None, max_examples=300)
@given(scores=st.lists(st.integers(0, 16).map(lambda i: i / 16) | st.floats(0.0, 1.0),
                       min_size=2, max_size=60),
       n_bins=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_stratified_split_matches_the_scan_per_bin(scores, n_bins, seed):
    # tied scores, empty bins and more bins than rows among the draws
    score = np.array(scores)
    bv = BinaryView(np.zeros((score.size, 1)), score, np.zeros(score.size, dtype=int))
    split = stratified_split(bv, n_bins, seed)
    train, test = _stratified_split_reference(bv, n_bins, seed)
    assert split.train_rows.dtype == train.dtype and split.test_rows.dtype == test.dtype
    np.testing.assert_array_equal(split.train_rows, train)
    np.testing.assert_array_equal(split.test_rows, test)


json_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]) | st.floats().map(np.float64)
json_scalars = json_floats | st.integers(-10**20, 10**20) | st.booleans() | st.none()


@st.composite
def reports(draw):
    """Grouping reports of random values, non-finite floats among them."""
    def region(i):
        return RegionRecord(i, draw(json_floats), draw(st.integers(0, 10**6)), draw(json_floats),
                            draw(json_floats), draw(st.booleans()))

    bins = tuple(
        BinRecord(b, draw(json_floats), draw(json_floats), draw(json_floats), draw(json_floats),
                  draw(st.integers(0, 10**6)), draw(st.booleans()),
                  tuple(region(i) for i in range(draw(st.integers(0, 4)))))
        for b in range(draw(st.integers(0, 4))))
    bounds = draw(st.none() | st.builds(BinningBounds, *[json_floats] * 6))
    names = [f.name for f in GroupingReport.__dataclass_fields__.values()]
    values = {name: draw(json_scalars) for name in names}
    values.update(
        config={"rule": draw(st.text()), "n_bins": draw(st.integers()), "x": draw(json_floats)},
        metadata={"provenance": draw(st.text()), "é": draw(json_scalars)},
        unestimable_bins=tuple(draw(st.lists(st.integers(0, 20)))),
        low_confidence_bins=tuple(draw(st.lists(st.integers(0, 20)))),
        bounds=bounds, bins=bins)
    return GroupingReport(**values)


@settings(deadline=None, max_examples=300)
@given(report=reports())
def test_report_json_matches_the_json_module(report):
    assert report.to_json() == json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def _diagram_csv_reference(report):
    # the row-wise writer: one f-string per region
    lines = ["bin_index,s_lo,s_hi,S_B,c_hat,n_bin,region_index,mu_hat,n_region,cp_lo,cp_hi,grayed"]
    for b in report.bins:
        for r in b.regions:
            lines.append(
                f"{b.bin_index},{b.s_lo!r},{b.s_hi!r},{b.s_mean!r},{b.c_hat!r},"
                f"{b.n_bin},{r.region_index},{r.mu_hat!r},{r.n_region},"
                f"{r.cp_lo!r},{r.cp_hi!r},{int(r.grayed)}"
            )
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=300)
@given(report=reports())
def test_diagram_csv_matches_the_row_writer(report):
    assert report.diagram_csv() == _diagram_csv_reference(report)


def test_report_json_keeps_signed_zeros_apart():
    # equal floats share one text, but -0.0 == 0.0 are written apart
    values = [0.0, -0.0, 0.5, 0.5, -0.0, math.nan, math.inf, 0.0]
    regions = tuple(RegionRecord(i, v, 3, -v, v, i % 2 == 0) for i, v in enumerate(values))
    csvs = []
    for regions in (regions, regions[:5]):  # with and without non-finite values
        report = GroupingReport(
            config={}, n_rows=1, n_train=1, n_test=1, cl_binned=0.0, cl_infinite=False,
            gl_plugin=-0.0, gl_bias=0.0, gl_explained=0.0, gl_induced=0.0, gl_lower_bound=0.0,
            gl_explained_clipped=0.0, gl_lower_bound_clipped=0.0, debiased=True,
            unestimable_bins=(), low_confidence_bins=(0,), estimable_test_fraction=1.0,
            dropped_test_fraction=0.0, bounds=None, mse_lower_bound=None,
            bins=(BinRecord(0, -0.0, 0.5, 0.25, 0.0, 8, True, regions),), metadata={})
        text = report.to_json()
        assert text == json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
        assert '"cp_lo": -0.0' in text and '"cp_lo": 0.0' in text
        csvs.append(report.diagram_csv())
        assert csvs[-1] == _diagram_csv_reference(report)
        assert "0,-0.0,0.5,0.25,0.0,8,1,-0.0,3,0.0,-0.0,0" in csvs[-1]
    assert "8,5,nan,3,nan,nan,0" in csvs[0] and "8,6,inf,3,-inf,inf,1" in csvs[0]


@st.composite
def binned_regions(draw):
    """Scores, labels, region ids and a test subset of some rows."""
    n = draw(st.integers(1, 60))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    scores = column(probs)
    labels = column(st.integers(0, 1))
    assignments = column(st.integers(0, 5))
    is_test = column(st.booleans())
    return draw(st.integers(1, 8)), scores, labels, assignments, is_test


@settings(deadline=None)
@given(data=binned_regions())
def test_region_means_reproduce_bin_fraction(data):
    n_bins, scores, labels, assignments, is_test = data
    bv = BinaryView(np.zeros((scores.size, 1)), scores, labels)
    split = SplitIndex(np.flatnonzero(~is_test), np.flatnonzero(is_test), n_bins)
    stats = region_stats(assignments, make_bins(bv, n_bins), labels, split)
    assert stats.n_test == split.test_rows.size
    for i in range(stats.bins.size):
        rows = slice(stats.offsets[i], stats.offsets[i + 1])
        counts = stats.region_counts[rows]
        assert counts.sum() == stats.bin_counts[i]
        weighted = float(np.dot(counts, stats.region_means[rows])) / stats.bin_counts[i]
        assert weighted == pytest.approx(stats.bin_pos_fraction[i], rel=0, abs=1e-12)


@st.composite
def csv_datasets(draw):
    """A labelled dataset with 1..4 features and 2..4 classes, maybe q_true."""
    n = draw(st.integers(1, 20))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    features = np.array(draw(st.lists(finite, min_size=n * d, max_size=n * d))).reshape(n, d)
    weights = np.array(
        draw(st.lists(st.floats(1e-3, 1.0), min_size=n * k, max_size=n * k))
    ).reshape(n, k)
    scores = weights / weights.sum(axis=1, keepdims=True)
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    q_true = None
    if draw(st.booleans()):
        q_true = np.array(draw(st.lists(probs, min_size=n, max_size=n)))
    return LabeledDataset(features, scores, labels), q_true


@settings(deadline=None)
@given(data=csv_datasets())
def test_csv_round_trip(data):
    ds, q_true = data
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        write_dataset_csv(path, ds, q_true)
        back = read_dataset_csv(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.scores, ds.scores)
    np.testing.assert_array_equal(back.labels, ds.labels)


# Edits a clean CSV gets: field texts that Python's int or float reads and
# numpy may not (or back), padding, quoting, and lines of the wrong shape.
_LABEL_TEXTS = ["2", "-1", "+1", "01", " 1", "1.0", "1e0", "1_0", "١",
                "99999999999999999999", "x", ""]
_NUMBER_TEXTS = ["nan", "inf", "-Infinity", "1e400", "1_0", "١", "0x1p-2", "", "x"]
_PADS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003"]
_LINES = ["", " ", "#", "# comment", '"', ","]


@st.composite
def csv_texts(draw):
    """A valid CSV of the multiclass or binary layout with 0-3 edits."""
    k = draw(st.sampled_from([0, 2, 3]))  # 0: the binary shortcut
    d = draw(st.integers(0, 2))
    names = ["label"] + ([f"score_{i}" for i in range(k)] if k else ["score"])
    names += [f"feature_{j}" for j in range(d)] + (["note"] * draw(st.booleans()))
    names = draw(st.permutations(names))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        p = draw(st.floats(0.0, 1.0))
        fields = {"label": str(draw(st.integers(0, max(k, 2) - 1))),
                  "note": draw(st.sampled_from(["a", "0.5", "1e-3"]))}
        fields.update(zip([f"score_{i}" for i in range(k)] if k else ["score"],
                          map(repr, [1.0 - p, p] + [0.0] * (k - 2) if k else [p])))
        fields.update((f"feature_{j}", repr(draw(st.floats(-1e6, 1e6)))) for j in range(d))
        rows.append([fields[name] for name in names])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        edit = draw(st.sampled_from(["text", "pad", "quote", "newline", "line", "width"]))
        if edit == "text":
            texts = _LABEL_TEXTS if j == names.index("label") else _NUMBER_TEXTS
            rows[i][j] = draw(st.sampled_from(texts))
        elif edit == "pad":
            rows[i][j] = draw(st.sampled_from(_PADS)) + rows[i][j] + draw(st.sampled_from(_PADS))
        elif edit == "quote":
            rows[i][j] = f'"{rows[i][j]}"'
        elif edit == "newline":  # a quoted field over two lines
            rows[i][j] = f'"{rows[i][j]}\n"' if draw(st.booleans()) else '"a\nb"'
        elif edit == "line":
            rows.insert(i, [draw(st.sampled_from(_LINES))])
        else:  # a missing or an extra field
            drop = len(rows[i]) > 1 and draw(st.booleans())
            rows[i] = rows[i][:-1] if drop else rows[i] + ["0"]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _read_row_wise(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return _read_rows(fh)


def _read_outcome(read, path):
    try:
        ds = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.features, ds.scores, ds.labels


@settings(deadline=None, max_examples=400)
@given(text=csv_texts())
def test_column_and_row_readers_agree(text):
    # bitwise-equal arrays, or the same error with the same message
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        fast = _read_outcome(read_dataset_csv, path)
        rows = _read_outcome(_read_row_wise, path)
    assert type(fast[0]) is type(rows[0])
    if isinstance(rows[0], np.ndarray):
        for a, b in zip(fast, rows):
            assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
            assert np.array_equal(a, b)
    else:
        assert fast == rows
