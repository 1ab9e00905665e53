"""The vectorized kernels must agree with plain scalar reference loops."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouploss import forking, kernels
from grouploss.partition import Tree
from test_partition import _fit_stump, _grow_tree, _midpoint


def _lowess_grid_reference(s, y, grid, k):
    # s ascending, y aligned, grid ascending; local linear fit at each grid
    # point over the k nearest neighbours with tricube weights.
    n = s.shape[0]
    out = np.empty(grid.shape[0])
    lo = 0
    for gi in range(grid.shape[0]):
        g = grid[gi]
        while lo + k < n and (s[lo + k] - g) < (g - s[lo]):
            lo += 1
        left = g - s[lo]
        right = s[lo + k - 1] - g
        bw = left if left > right else right
        if bw <= 0.0:
            acc = 0.0
            for i in range(lo, lo + k):
                acc += y[i]
            out[gi] = acc / k
            continue
        sw = 0.0
        swx = 0.0
        swy = 0.0
        swx2 = 0.0
        swxy = 0.0
        for i in range(lo, lo + k):
            x = s[i] - g
            d = abs(x) / bw
            w = (1.0 - d * d * d)
            w = w * w * w
            if w < 0.0:
                w = 0.0
            sw += w
            swx += w * x
            swy += w * y[i]
            swx2 += w * x * x
            swxy += w * x * y[i]
        if sw <= 0.0:
            acc = 0.0
            for i in range(lo, lo + k):
                acc += y[i]
            out[gi] = acc / k
            continue
        denom = sw * swx2 - swx * swx
        if denom > kernels._DEGENERATE_REL * sw * swx2:
            out[gi] = (swx2 * swy - swx * swxy) / denom
        else:
            out[gi] = swy / sw
    return out


def _slide_starts(s, grid, k):
    # each grid point's window start, slid up from the previous point's
    n = s.shape[0]
    starts = []
    lo = 0
    for g in grid:
        while lo + k < n and (s[lo + k] - g) < (g - s[lo]):
            lo += 1
        starts.append(lo)
    return starts


def _lowess_grid_numpy_reference(s, y, grid, k, branches=None):
    # The same fit with a fresh array per window pass; each point's branch
    # ("mean", "degenerate" or "linear") is appended to ``branches``.
    branches = [] if branches is None else branches
    n = s.shape[0]
    out = np.empty(grid.shape[0])
    lo = 0
    for gi in range(grid.shape[0]):
        g = grid[gi]
        while lo + k < n and (s[lo + k] - g) < (g - s[lo]):
            lo += 1
        win_s = s[lo:lo + k]
        win_y = y[lo:lo + k]
        bw = max(g - win_s[0], win_s[-1] - g)
        if bw <= 0.0:
            out[gi] = win_y.mean()
            branches.append("mean")
            continue
        d = np.abs(win_s - g) / bw
        w = (1.0 - d ** 3) ** 3
        w[w < 0.0] = 0.0
        sw = w.sum()
        if sw <= 0.0:
            out[gi] = win_y.mean()
            branches.append("mean")
            continue
        x = win_s - g
        wx = w * x
        swx = wx.sum()
        swy = (w * win_y).sum()
        swx2 = (wx * x).sum()
        swxy = (wx * win_y).sum()
        denom = sw * swx2 - swx * swx
        if denom > kernels._DEGENERATE_REL * sw * swx2:
            out[gi] = (swx2 * swy - swx * swxy) / denom
            branches.append("linear")
        else:
            out[gi] = swy / sw
            branches.append("degenerate")
    return out


def _best_split_reference(X, y, min_leaf):
    # Scalar scan of every threshold of every feature; a strictly larger
    # gain is required to replace the incumbent, so ties keep the lowest
    # feature, then the lowest threshold.  Any boundary beats none.
    n, d = X.shape
    best_gain = -np.inf
    best_feat = -1
    best_thresh = 0.0
    if n < 2 * min_leaf:
        return best_feat, best_thresh, best_gain
    total = 0.0
    for i in range(n):
        total += y[i]
    parent = total * total / n
    for f in range(d):
        col = X[:, f].copy()
        order = np.argsort(col)
        run = 0.0
        for i in range(n - 1):
            run += y[order[i]]
            nl = i + 1
            if nl < min_leaf:
                continue
            nr = n - nl
            if nr < min_leaf:
                break
            lv = col[order[i]]
            rv = col[order[i + 1]]
            if lv == rv:
                continue
            rsum = total - run
            gain = run * run / nl + rsum * rsum / nr - parent
            if gain > best_gain:
                best_gain = gain
                best_feat = f
                best_thresh = _midpoint(lv, rv)
    return best_feat, best_thresh, best_gain


def _best_split(X, y, min_leaf, order=None):
    # kernels.best_splits on one segment of all rows
    if order is None:
        order = np.argsort(X, axis=0, kind="stable").T
    f, t, g = kernels.best_splits(X, y, order, np.array([X.shape[0]]), np.array([min_leaf]))
    return int(f[0]), float(t[0]), float(g[0])


def _assert_split_matches_reference(X, y, min_leaf):
    fa, ta, ga = _best_split_reference(X, y, min_leaf)
    fb, tb, gb = _best_split(X, y, min_leaf)
    assert fa == fb
    if fa >= 0:
        assert ta == tb
        assert abs(ga - gb) < 1e-10
    return fb, tb


def test_lowess_paths_agree():
    rng = np.random.default_rng(0)
    s = np.sort(rng.uniform(size=500))
    tied = np.sort(rng.integers(0, 5, size=500) / 4.0)
    for scores in (s, tied):
        y = (rng.uniform(size=500) < scores).astype(float)
        grid = np.linspace(0, 1, 64)
        expected = _lowess_grid_reference(scores, y, grid, 150)
        got = kernels.lowess_grid(scores, y, grid, 150)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert np.array_equal(got, _lowess_grid_numpy_reference(scores, y, grid, 150))


@pytest.mark.parametrize(
    "case", ["stock", "tied", "zero-bandwidth", "k-above-n", "degenerate", "one-point", "two-points"])
def test_lowess_matches_numpy_reference_bitwise(case, monkeypatch):
    rng = np.random.default_rng(3)
    s, k = {
        "stock": (rng.uniform(size=20_000), 3_000),  # k in the thousands
        "tied": (rng.integers(0, 40, size=20_000) / 39.0, 6_000),
        # 6 rows per value: the window of 5 at each value has bw == 0
        "zero-bandwidth": (np.repeat(np.linspace(0.0, 1.0, 5), 6), 5),
        "k-above-n": (rng.uniform(size=50), 80),
        # at 0 and 1 the window holds ten tied rows and two rows at distance
        # bw, whose weight is 0: all weight sits on x == 0
        "degenerate": (np.repeat([0.0, 1.0], 10), 12),
        "one-point": (rng.uniform(size=300), 90),
        "two-points": (rng.uniform(size=300), 90),
    }[case]
    s = np.sort(s)
    y = (rng.uniform(size=s.size) < s).astype(float)
    grids = (np.unique(s), np.linspace(s[0], s[-1], 300))
    if case.endswith("points"):  # fewer grid points than runs
        grids = (s[[150]], s[[0, -1]]) if case == "one-point" else (s[[3, 250]], s[[0, 0]])
    branches = []
    for grid in grids:
        expected = _lowess_grid_numpy_reference(s, y, grid, k, branches)
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
            assert np.array_equal(kernels.lowess_grid(s, y, grid, k), expected)
    assert multiprocessing.active_children() == []
    if case == "degenerate":
        assert "degenerate" in branches
    if case == "zero-bandwidth":
        assert "mean" in branches


@pytest.fixture
def can_fork():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("this platform cannot fork")


def _curve_forks(m=40):
    """A curve over ``m`` grid points, and the children it forked."""
    rng = np.random.default_rng(9)
    s = np.sort(rng.uniform(size=400))
    y = (rng.uniform(size=400) < s).astype(float)
    before = forking.in_child.forks
    out = kernels.lowess_grid(s, y, np.linspace(0.0, 1.0, m), 100)
    return out, forking.in_child.forks - before


@pytest.mark.parametrize("cpus, m, forks", [(1, 40, 0), (2, 40, 1), (3, 40, 2), (4, 40, 3),
                                            (16, 40, forking.MAX_WORKERS - 1), (4, 2, 1),
                                            (4, 1, 0), (4, 0, 0)])
def test_lowess_forks_one_child_per_run_but_the_first(can_fork, monkeypatch, cpus, m, forks):
    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    out, forked = _curve_forks(m)
    assert out.shape == (m,) and forked == forks
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failing_run", [None, "worker", "caller"])
def test_lowess_threads_end_with_the_call(can_fork, monkeypatch, failing_run):
    # the call starts no thread and leaves no child, whichever run fails
    rng = np.random.default_rng(7)
    s = np.sort(rng.uniform(size=400))
    y = (rng.uniform(size=400) < s).astype(float)
    grid = np.linspace(0.0, 1.0, 40)
    fit_run = kernels._fit_run

    def slow_fit(s, y, grid, k, starts, first, stop):
        if first > 0:  # the children outlast the caller's run
            time.sleep(0.05)
        if failing_run is not None and (first == 0) == (failing_run == "caller"):
            raise KeyError(f"{failing_run} run {first}")
        return fit_run(s, y, grid, k, starts, first, stop)

    monkeypatch.setattr(kernels, "_fit_run", slow_fit)
    monkeypatch.setattr(forking, "usable_cpus", lambda: 3)
    before = threading.active_count()
    if failing_run is None:
        expected = _lowess_grid_numpy_reference(s, y, grid, 100)
        assert np.array_equal(kernels.lowess_grid(s, y, grid, 100), expected)
    else:
        # the first failing run in grid order: the caller's, or the first child's
        first = 0 if failing_run == "caller" else 13
        with pytest.raises(KeyError, match=f"{failing_run} run {first}"):
            kernels.lowess_grid(s, y, grid, 100)
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_lowess_child_that_dies_raises_runtime_error(can_fork, monkeypatch):
    fit_run = kernels._fit_run

    def die(s, y, grid, k, starts, first, stop):
        if first > 0:  # only in a child: in this process it would end the tests
            assert multiprocessing.parent_process() is not None
            os._exit(7)
        return fit_run(s, y, grid, k, starts, first, stop)

    monkeypatch.setattr(kernels, "_fit_run", die)
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="exited with code 7 without a result"):
        _curve_forks()
    assert multiprocessing.active_children() == []


def test_lowess_with_another_thread_stays_in_process(can_fork, monkeypatch):
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    alone, forks = _curve_forks()
    assert forks == 1
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        beside, forks = _curve_forks()
    finally:
        release.set()
        waiter.join(timeout=10)
    assert forks == 0 and np.array_equal(beside, alone)


def _curve_in_worker():
    """Run in a sweep worker: the curve, the children it forked, and the
    worker's pid."""
    out, forks = _curve_forks()
    return out, forks, os.getpid()


def test_lowess_in_a_task_worker_stays_in_process(can_fork, monkeypatch):
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    [(out, forks, pid)] = forking.run_tasks([(_curve_in_worker, ())], 2)
    assert pid != os.getpid() and forks == 0
    assert np.array_equal(out, _curve_forks()[0])
    assert multiprocessing.active_children() == []


sorted_scores = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
    # tied, on decimal steps whose differences round
    st.lists(st.integers(0, 6).map(lambda v: v / 10.0), min_size=1, max_size=60),
).map(lambda v: np.sort(np.array(v)))


@settings(deadline=None, max_examples=300)
@given(s=sorted_scores, data=st.data())
def test_window_starts_match_the_slide(s, data):
    n = s.shape[0]
    k = data.draw(st.integers(1, n + 3), label="k")  # k >= n included
    grid = np.sort(np.array(data.draw(st.lists(
        st.sampled_from(s.tolist()) | st.floats(s[0] - 1.0, s[-1] + 1.0), max_size=30),
        label="grid")))
    for points in (grid, np.unique(s)):
        assert kernels._window_starts(s, points, k).tolist() == _slide_starts(s, points, k)


def test_window_starts_use_the_slides_comparison():
    # 0.3 - 0.2 < 0.2 - 0.1 in floats, but 0.1 + 0.3 < 2 * 0.2 is false
    s = np.array([0.1, 0.2, 0.3])
    assert _slide_starts(s, [0.2], 2) == [1]
    assert kernels._window_starts(s, np.array([0.2]), 2).tolist() == [1]


def test_best_split_paths_agree():
    rng = np.random.default_rng(1)
    for distinct in (None, 4):
        for _ in range(20):
            n = int(rng.integers(6, 60))
            d = int(rng.integers(1, 4))
            if distinct is None:
                X = rng.normal(size=(n, d))
            else:  # duplicated feature values
                X = rng.integers(0, distinct, size=(n, d)).astype(float)
            y = rng.integers(0, 2, n).astype(float)
            _assert_split_matches_reference(X, y, 2)

    # Gain ties keep the lowest feature, then the lowest threshold; the
    # nesting of trees under the leaf cap depends on this rule.
    X = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0])[:, None]
    y = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    assert _assert_split_matches_reference(X, y, 1) == (0, 1.5)
    X = np.array([0.0, 1.0, 2.0, 3.0])[:, None]
    y = np.array([1.0, 0.0, 0.0, 1.0])  # 0.5 and 2.5 gain the same
    assert _assert_split_matches_reference(X, y, 1) == (0, 0.5)
    x = rng.permutation(np.arange(12, dtype=float))
    y = (x >= 7).astype(float)
    for twin in (x, -x):  # both features gain the same
        assert _assert_split_matches_reference(np.column_stack([x, twin]), y, 2) == (0, 6.5)
        assert _best_split(np.column_stack([twin, x]), y, 2)[0] == 0


def test_best_split_respects_min_leaf():
    X = np.arange(5, dtype=float)[:, None]
    y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    f, t, g = _best_split(X, y, 3)
    assert f == -1  # no split leaves 3 samples on both sides of 5

    f, t, g = _best_split(X, y, 2)
    assert f == 0 and 1.0 < t < 3.0 and g > 0


def test_best_split_given_order_matches_computed():
    rng = np.random.default_rng(4)
    for distinct in (None, 3):
        for _ in range(20):
            n = int(rng.integers(2, 50))
            d = int(rng.integers(1, 6))
            if distinct is None:
                X = rng.normal(size=(n, d))
            else:
                X = rng.integers(0, distinct, size=(n, d)).astype(float)
            y = rng.integers(0, 2, n).astype(float)
            expected = _best_split(X, y, 2)
            stable = np.argsort(X, axis=0, kind="stable").T
            assert _best_split(X, y, 2, stable) == expected
            # any ascending order will do: tied rows in reverse
            reverse = np.array([np.lexsort((-np.arange(n), X[:, f])) for f in range(d)])
            assert _best_split(X, y, 2, reverse) == expected


@pytest.mark.parametrize(
    "n, min_leaf", [(2, 1), (7, 1), (4, 2), (6, 3), (8, 4), (9, 4), (10, 4), (11, 5), (9, 5)]
)
def test_best_split_min_leaf_bounds(n, min_leaf):
    rng = np.random.default_rng(10 * n + min_leaf)
    for distinct in (None, 3):
        for _ in range(30):
            d = int(rng.integers(1, 4))
            if distinct is None:
                X = rng.normal(size=(n, d))
            else:
                X = rng.integers(0, distinct, size=(n, d)).astype(float)
            y = rng.integers(0, 2, n).astype(float)
            f, t = _assert_split_matches_reference(X, y, min_leaf)
            if f >= 0:
                n_left = int(np.count_nonzero(X[:, f] <= t))
                assert min_leaf <= n_left <= n - min_leaf
    if n == 2 * min_leaf:  # only the middle boundary is allowed
        X = np.arange(n, dtype=float)[:, None]
        y = (np.arange(n) < max(min_leaf - 1, 1)).astype(float)  # best cut lies lower
        assert _assert_split_matches_reference(X, y, min_leaf) == (0, min_leaf - 0.5)


def test_split_without_gain():
    # The scan reports the best boundary whatever its gain; the tree's
    # MIN_SPLIT_GAIN decides whether a split is worth taking.
    rng = np.random.default_rng(5)
    y = np.array([0.0, 1.0] * 5)
    assert _best_split(np.full((10, 3), 2.0), y, 1) == (-1, 0.0, -np.inf)
    X = rng.normal(size=(10, 3))
    assert _best_split(X, y, 6) == (-1, 0.0, -np.inf)
    lowest = _midpoint(*np.sort(X[:, 0])[:2])
    for constant in (np.zeros(10), np.ones(10)):  # every gain is exactly 0
        f, t, g = _best_split(X, constant, 1)
        assert (f, t) == (0, lowest)
        assert g == 0.0
        assert _grow_tree(X, constant, 10).n_regions[0] == 1
        assert Tree().fit(X, constant, np.arange(10), np.array([0, 10]), 1, 0).n_regions[0] == 1
        assert _fit_stump(X, constant).n_regions[0] == 2


def test_pav_monotone_and_mean_preserving():
    rng = np.random.default_rng(2)
    v = rng.uniform(size=200)
    w = rng.uniform(0.5, 2.0, size=200)
    out = kernels.pav(v, w)
    assert np.all(np.diff(out) >= -1e-15)
    assert np.dot(w, out) == pytest.approx(np.dot(w, v), rel=1e-12)
