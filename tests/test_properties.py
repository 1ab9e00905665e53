"""Property tests for the kernels the estimator and the oracle share, for
invariants of the partition and the region table, and for CSV round trips."""

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
    read_dataset_csv,
    write_dataset_csv,
)
from grouploss.glestim import RegionStats, gl_explained_debiased, region_stats
from grouploss.partition import _grow_tree
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
    coarse = _grow_tree(X, y, cap).assign(X)
    fine = _grow_tree(X, y, cap + 1).assign(X)
    for region in np.unique(fine):
        assert np.unique(coarse[fine == region]).size == 1


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
