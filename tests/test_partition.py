"""Level-set partitioning: trees, balanced stumps, k-means."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouploss import kernels
from grouploss.binning import make_bins
from grouploss.data import BinaryView, SplitIndex
from grouploss.partition import (
    KMEANS_MAX_ITER,
    KMEANS_TOL,
    MIN_SAMPLES_LEAF,
    MIN_SPLIT_GAIN,
    BalancedStump,
    KMeans,
    Tree,
    _grow_trees,
    _presorted,
    assign_regions,
    fit_partition,
    parse_strategy,
)


def _grow_tree(X, y, max_leaves):
    # the one-bin forest of a bin holding every row
    n = X.shape[0]
    return _grow_trees(X, y, np.arange(n), np.array([0, n]), [max_leaves], MIN_SAMPLES_LEAF,
                       MIN_SPLIT_GAIN)


def _fit_stump(X, y):
    n = X.shape[0]
    return BalancedStump().fit(X, y, np.arange(n), np.array([0, n]), 1, 0, np.array([0]))


def _assign_to_bin_0(model, X):
    # every row of X through bin 0's partition
    n = X.shape[0]
    return model.assign(X, np.arange(n), np.zeros(n, dtype=np.int64))


def _group_centers(model, g):
    # group g's block of a Centers model
    return model.centers[model.offsets[g]:model.offsets[g + 1]]


def _midpoint(lo, hi):
    # the threshold between values lo < hi: their midpoint, halved first so
    # finite values cannot overflow, or lo where it rounds up to hi
    mid = 0.5 * lo + 0.5 * hi
    return mid if mid < hi else lo


def _best_split_reference(X, y, min_leaf):
    # One argsort and one scan per feature; a later feature replaces the
    # incumbent only with a strictly larger gain.
    n, d = X.shape
    best_gain = 0.0
    best_feat = -1
    best_thresh = 0.0
    if n < 2 * min_leaf:
        return best_feat, best_thresh, best_gain
    total = float(y.sum())
    parent = total * total / n
    left_n = np.arange(1, n)
    for f in range(d):
        order = np.argsort(X[:, f])
        xs = X[order, f]
        cum = np.cumsum(y[order])[:-1]
        valid = (left_n >= min_leaf) & (n - left_n >= min_leaf) & (xs[1:] != xs[:-1])
        if not valid.any():
            continue
        right = total - cum
        gains = np.where(
            valid, cum * cum / left_n + right * right / (n - left_n) - parent, -np.inf
        )
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best_feat = f
            best_thresh = _midpoint(float(xs[i]), float(xs[i + 1]))
    return best_feat, best_thresh, best_gain


def _grow_tree_reference(X, y, max_leaves):
    # Best-first growth that scans every node from its own rows; returns
    # (feature, threshold, left, right, leaf_region, n_regions).
    rows = [np.arange(X.shape[0])]
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    if max_leaves > 1:
        feat, thresh, gain = _best_split_reference(X, y, MIN_SAMPLES_LEAF)
        candidates = []
        if feat >= 0 and gain > MIN_SPLIT_GAIN:
            heapq.heappush(candidates, (-gain, 0, 0, feat, thresh))
        n_leaves = 1
        while n_leaves < max_leaves and candidates:
            _, _, node, feat, thresh = heapq.heappop(candidates)
            mask = X[rows[node], feat] <= thresh
            feature[node], threshold[node] = feat, thresh
            left[node], right[node] = len(rows), len(rows) + 1
            for child_rows in (rows[node][mask], rows[node][~mask]):
                rows.append(child_rows)
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
            n_leaves += 1
            for child in (left[node], right[node]):
                f, t, g = _best_split_reference(X[rows[child]], y[rows[child]], MIN_SAMPLES_LEAF)
                if f >= 0 and g > MIN_SPLIT_GAIN:
                    heapq.heappush(candidates, (-g, child, child, f, t))
    leaf_region = [-1] * len(rows)
    stack, next_region = [0], 0
    while stack:
        node = stack.pop()
        if feature[node] < 0:
            leaf_region[node] = next_region
            next_region += 1
        else:
            stack.append(right[node])
            stack.append(left[node])
    return feature, threshold, left, right, leaf_region, next_region


def _fit_stump_reference(X, y):
    # Tries each allowed left count of each feature's own sort; returns
    # (feature, threshold, left, right, leaf_region, n_regions).
    n = y.shape[0]
    one_region = [-1], [0.0], [-1], [-1], [0], 1
    if n < 2:
        return one_region
    half = n // 2
    left_counts = (half,) if n % 2 == 0 else (half, half + 1)
    best = None
    total = float(y.sum())
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        for l in left_counts:
            if xs[l - 1] == xs[l]:
                continue
            lsum = float(ys[:l].sum())
            rsum = total - lsum
            gain = lsum * lsum / l + rsum * rsum / (n - l)
            if best is None or gain > best[0]:
                best = (gain, f, _midpoint(float(xs[l - 1]), float(xs[l])))
    if best is None:
        return one_region
    _, f, thresh = best
    return [f, -1, -1], [thresh, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [-1, 0, 1], 2


def _preorder(feature, threshold, left, right, leaf_region, root):
    # (feature, threshold, leaf region) of each node of the tree at root,
    # in preorder, which does not depend on how the nodes are numbered
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append((int(feature[node]), float(threshold[node]), int(leaf_region[node])))
        if feature[node] >= 0:
            stack += [right[node], left[node]]
    return nodes


def _assert_same_tree(forest, reference, b=0):
    # reference: (feature, threshold, left, right, leaf_region, n_regions) of
    # bin b's tree alone, node 0 its root
    # the forest makes an inner node's children together: the right one is left + 1
    assert (_preorder(forest.feature, forest.threshold, forest.left, forest.left + 1,
                      forest.leaf_region, b)
            == _preorder(*reference[:5], 0))
    assert forest.n_regions[b] == reference[-1]


def _single_bin_setup(features, labels, n_train=None):
    n = len(labels)
    scores = np.full(n, 0.5)
    bv = BinaryView(np.asarray(features, dtype=float), scores, np.asarray(labels))
    bview = make_bins(bv, 1)
    if n_train is None:
        n_train = n // 2
    split = SplitIndex(np.arange(n_train), np.arange(n_train, n))
    return bv, bview, split


def _plugin_between_variance(assign, labels, rows):
    a = assign[rows]
    y = labels[rows].astype(float)
    c = y.mean()
    total = 0.0
    for r in np.unique(a):
        sel = a == r
        total += sel.mean() * (y[sel].mean() - c) ** 2
    return total


class TestTree:
    def test_constant_labels_single_region(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(100, 3))
        bv, bview, split = _single_bin_setup(features, np.ones(100, dtype=int))
        model = fit_partition(bview, bv.features, bv.label, split, Tree(), 10, seed=1)
        assert model.n_regions[0] == 1

    def test_region_cap_floor_arithmetic(self):
        # 90 train rows at ratio 30 allow at most 3 regions
        x = np.arange(180, dtype=float)[:, None]
        y = np.where(x[:, 0] % 90 >= 60, 1, np.where(x[:, 0] % 90 >= 30, x[:, 0] % 2, 0))
        order = np.argsort(x[:, 0] % 90, kind="stable")
        bv, bview, split = _single_bin_setup(x[order], y[order].astype(int), n_train=90)
        model = fit_partition(bview, bv.features, bv.label, split, Tree(), 30, seed=2)
        assert model.n_regions[0] == 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(60, 1))
        labels = (features[:, 0] > 0).astype(int)
        bv, bview, split = _single_bin_setup(features, labels, n_train=60)
        model = fit_partition(bview, bv.features, bv.label, split, Tree(), 2, seed=4)
        assign = assign_regions(model, bview, bv.features)
        counts = np.bincount(assign)
        assert counts[counts > 0].min() >= 2

    def test_nested_caps_never_decrease_train_fit(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(240, 2))
        q = 1 / (1 + np.exp(-2 * X[:, 1]))
        y = (rng.uniform(size=240) < q).astype(float)
        explained = []
        for cap in (1, 2, 3, 5, 8, 12):
            tree = _grow_tree(X, y, cap)
            assign = _assign_to_bin_0(tree, X)
            explained.append(
                _plugin_between_variance(assign, y, np.arange(240))
            )
        assert all(a <= b + 1e-12 for a, b in zip(explained, explained[1:]))

    def test_beats_random_partition_on_train(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(300, 2))
        q = np.where(X[:, 0] > 0, 0.85, 0.15)
        y = (rng.uniform(size=300) < q).astype(float)
        tree = _grow_tree(X, y, 4)
        assign = _assign_to_bin_0(tree, X)
        fitted = _plugin_between_variance(assign, y, np.arange(300))
        randoms = []
        for trial in range(30):
            shuffled = assign[rng.permutation(300)]
            randoms.append(_plugin_between_variance(shuffled, y, np.arange(300)))
        assert fitted >= np.mean(randoms)

    def test_split_matches_brute_force(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40).astype(float)
        tree = _grow_tree(X, y, 2)
        assert tree.n_regions[0] == 2
        root_feat = int(tree.feature[0])
        root_thresh = float(tree.threshold[0])
        best_sse, best = np.inf, None
        for f in range(3):
            xs = np.unique(X[:, f])
            for t in (xs[1:] + xs[:-1]) / 2:
                mask = X[:, f] <= t
                if mask.sum() < 2 or (~mask).sum() < 2:
                    continue
                sse = ((y[mask] - y[mask].mean()) ** 2).sum() + (
                    (y[~mask] - y[~mask].mean()) ** 2
                ).sum()
                if sse < best_sse - 1e-12:
                    best_sse, best = sse, (f, t)
        assert best[0] == root_feat
        assert root_thresh == pytest.approx(best[1], abs=1e-12)


    @pytest.mark.parametrize("duplicated", [False, True], ids=["continuous", "duplicated"])
    def test_matches_per_node_sort_reference(self, duplicated):
        rng = np.random.default_rng(24 + duplicated)
        for d in range(1, 9):
            for _ in range(3):
                n = int(rng.integers(20, 160))
                if duplicated:
                    X = rng.integers(0, 4, size=(n, d)).astype(float)
                else:
                    X = rng.normal(size=(n, d))
                q = 1 / (1 + np.exp(-2 * X[:, 0] + X[:, -1]))
                y = (rng.uniform(size=n) < q).astype(float)
                for cap in (1, 2, 5, n):
                    _assert_same_tree(_grow_tree(X, y, cap), _grow_tree_reference(X, y, cap))


class TestBalancedStump:
    def test_matches_per_feature_reference(self):
        rng = np.random.default_rng(26)
        for n in [*range(1, 42), 1000, 1001]:
            for d in (1, 2, 3):
                for kind in ("continuous", "two-valued", "three-valued", "rounded"):
                    if kind == "continuous":
                        X = rng.normal(size=(n, d))
                    elif kind == "rounded":
                        X = np.round(rng.normal(size=(n, d)), 1)
                    else:
                        X = rng.integers(0, 2 if kind == "two-valued" else 3,
                                         size=(n, d)).astype(float)
                    for y in (np.zeros(n), np.ones(n),
                              rng.integers(0, 2, n).astype(float)):
                        _assert_same_tree(_fit_stump(X, y), _fit_stump_reference(X, y))

    def test_sign_split(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.uniform(-2, -0.05, 50), rng.uniform(0.05, 2, 50)])
        y = (x > 0).astype(int)
        order = rng.permutation(100)
        bv, bview, split = _single_bin_setup(x[order][:, None], y[order], n_train=100)
        model = fit_partition(bview, bv.features, bv.label, split, BalancedStump(), 30, seed=9)
        assert model.n_regions[0] == 2
        assert abs(float(model.threshold[0])) < 0.1
        assign = _assign_to_bin_0(model, bv.features)
        for r in (0, 1):
            region_labels = bv.label[assign == r]
            assert region_labels.min() == region_labels.max()

    def test_balance_constraint(self):
        rng = np.random.default_rng(10)
        for n in (20, 21, 47):
            X = rng.normal(size=(n, 2))
            y = rng.integers(0, 2, n)
            bv, bview, split = _single_bin_setup(X, y, n_train=n)
            model = fit_partition(bview, bv.features, bv.label, split, BalancedStump(), 30, seed=11)
            assign = _assign_to_bin_0(model, bv.features)
            counts = np.bincount(assign, minlength=2)
            assert counts.min() >= n // 2

    def test_matches_brute_force_best_balanced_split(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, 30).astype(float)
        bv, bview, split = _single_bin_setup(X, y.astype(int), n_train=30)
        model = fit_partition(bview, bv.features, bv.label, split, BalancedStump(), 30, seed=13)
        assign = _assign_to_bin_0(model, bv.features)
        got_sse = sum(
            ((y[assign == r] - y[assign == r].mean()) ** 2).sum() for r in (0, 1)
        )
        best_sse = np.inf
        n = 30
        for f in range(2):
            xs = np.sort(X[:, f])
            for l in (n // 2,):
                if xs[l - 1] == xs[l]:
                    continue
                t = (xs[l - 1] + xs[l]) / 2
                mask = X[:, f] <= t
                sse = ((y[mask] - y[mask].mean()) ** 2).sum() + (
                    (y[~mask] - y[~mask].mean()) ** 2
                ).sum()
                best_sse = min(best_sse, sse)
        assert got_sse == pytest.approx(best_sse, abs=1e-10)

    def test_infeasible_ties_fall_back_to_single_region(self):
        X = np.ones((10, 1))
        y = np.arange(10) % 2
        bv, bview, split = _single_bin_setup(X, y, n_train=10)
        model = fit_partition(bview, bv.features, bv.label, split, BalancedStump(), 30, seed=14)
        assert model.n_regions[0] == 1


@pytest.mark.parametrize("strategy", [Tree(), BalancedStump(), KMeans(1)],
                         ids=["tree", "stump", "kmeans-1"])
def test_fit_on_an_unsplittable_bin_gives_one_region(strategy):
    # identical rows: no split and no second center exists
    X = np.ones((10, 2))
    y = (np.arange(10) % 2).astype(float)
    model = strategy.fit(X, y, np.arange(10), np.array([0, 10]), 2, 0, np.array([0]))
    assert model.n_regions.tolist() == [1]
    np.testing.assert_array_equal(
        _assign_to_bin_0(model, np.random.default_rng(1).normal(size=(7, 2))),
        np.zeros(7, dtype=np.int64))


# neighbouring doubles, whose midpoint rounds up to the larger one
_A, _B = 1 + 2**-52, 1 + 2**-51
# values whose sum overflows, to -inf and to +inf
_LOW, _HIGH = [-1.7e308, -1.7e308, -1e308, -1e308], [1e308, 1e308, 1.7e308, 1.7e308]


def _grow_two_leaves(X, y):
    return _grow_tree(X, y, 2)


@pytest.mark.parametrize(
    "fit, x, y",
    [
        (_grow_two_leaves, [_A, _A, _B, _B, _B], [0, 0, 1, 1, 1]),
        (_fit_stump, [_A, _A, _B, _B], [0, 0, 1, 1]),
        (_grow_two_leaves, _LOW, [0, 0, 1, 1]),
        (_fit_stump, _LOW, [0, 0, 1, 1]),
        (_grow_two_leaves, _HIGH, [0, 0, 1, 1]),
        (_fit_stump, _HIGH, [0, 0, 1, 1]),
    ],
    ids=["tree", "stump", "tree-sum-below-min", "stump-sum-below-min", "tree-sum-above-max",
         "stump-sum-above-max"],
)
def test_split_between_neighbouring_doubles(fit, x, y):
    X = np.array(x)[:, None]
    model = fit(X, np.array(y, dtype=float))
    counts = np.bincount(_assign_to_bin_0(model, X), minlength=model.n_regions[0])
    assert model.n_regions[0] == 2
    assert (counts > 0).all()
    assert counts.min() >= MIN_SAMPLES_LEAF


def _presorted_reference(X, rows, offsets):
    # the former presort: one stable sort of each feature over all rows,
    # then a stable sort of that order by group
    group = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))
    d = X.shape[1]
    order = np.empty((d, rows.shape[0]), dtype=np.int32 if X.size < 2**31 else np.intp)
    for f in range(d):
        by_value = np.argsort(X[rows, f], kind="stable")
        order[f] = rows.take(by_value.take(np.argsort(group.take(by_value), kind="stable")))
    return order


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_presort_per_group_matches_two_full_sorts(data):
    # few distinct values (signed zeros among them) give ties; groups may
    # be empty or hold one row; the rows are a shuffled subset of X's
    sizes = data.draw(st.lists(st.integers(0, 6), max_size=8), label="sizes")
    n_rows = sum(sizes)
    n = n_rows + data.draw(st.integers(0, 4), label="unused rows")
    d = data.draw(st.integers(1, 3), label="d")
    values = st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1.0 + 2**-52, 7.0])
    X = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d)), dtype=float)
    X = X.reshape(n, d)
    rows = np.array(data.draw(st.permutations(range(n)))[:n_rows], dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
    expected = _presorted_reference(X, rows, offsets)
    order = _presorted(X, rows, offsets)
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)


def test_stump_scans_one_segment_per_bin(monkeypatch):
    # a stump never splits its children, so it never scans them; a bin of
    # fewer than two rows has no boundary, so it is not scanned either
    segments = []
    scan = kernels.best_splits

    def counting_scan(X, y, order, sizes, min_leaf):
        segments.append(sizes.shape[0])
        return scan(X, y, order, sizes, min_leaf)

    monkeypatch.setattr(kernels, "best_splits", counting_scan)
    rng = np.random.default_rng(15)
    X = rng.normal(size=(400, 3))
    y = rng.integers(0, 2, 400).astype(float)
    offsets = np.array([0, 0, 1, 3, 60, 400])  # empty, one-row and larger bins
    stumps = BalancedStump().fit(X, y, rng.permutation(400), offsets, 30, 0, np.arange(5))
    assert sum(segments) == 3
    assert stumps.n_regions.tolist() == [1, 1, 2, 2, 2]


def _kmeans_centers_reference(X, k, rng):
    # Lloyd step with one mask and one mean per cluster, after the same
    # k-means++ seeding; an empty cluster moves to the worst-served row.
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    for _ in range(KMEANS_MAX_ITER):
        dist2 = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * X @ centers.T
            + np.sum(centers * centers, axis=1)[None, :]
        )
        assign = np.argmin(dist2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = assign == j
            if members.any():
                new_centers[j] = X[members].mean(axis=0)
            else:
                worst = int(np.argmax(np.take_along_axis(dist2, assign[:, None], 1)))
                new_centers[j] = X[worst]
        movement = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
        centers = new_centers
        if movement < KMEANS_TOL:
            break
    return centers


class TestKMeans:
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_matches_per_cluster_mean_reference(self, d):
        rng = np.random.default_rng(20 + d)
        cases = [(rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0), k)
                 for n, k in [(40, 3), (700, 8), (5000, 8), (3000, 30)]]
        # 3 distinct rows and 4 clusters: the fourth starts on a duplicate
        # row, wins no ties and is re-seeded
        cases.append((np.repeat(rng.normal(size=(3, d)), [5, 7, 9], axis=0), 4))
        for X, k in cases:
            expected = _kmeans_centers_reference(X, k, np.random.default_rng([7, 0]))
            n = X.shape[0]
            model = KMeans(k).fit(X, None, np.arange(n), np.array([0, n]), 30, 7, np.array([0]))
            assert np.array_equal(_group_centers(model, 0), expected)

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(15)
        a = rng.normal(0.0, 1.0, size=(400, 2))
        b = rng.normal(0.0, 1.0, size=(400, 2)) + np.array([10.0, 0.0])
        X = np.vstack([a, b])
        y = np.zeros(800, dtype=int)
        order = rng.permutation(800)
        bv, bview, split = _single_bin_setup(X[order], y, n_train=800)
        model = fit_partition(bview, bv.features, bv.label, split, KMeans(k=2), 30, seed=16)
        assign = _assign_to_bin_0(model, bv.features)
        truth = (bv.features[:, 0] > 5.0).astype(int)
        agreement = max((assign == truth).mean(), (assign != truth).mean())
        assert agreement >= 0.99

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(120, 2))
        y = rng.integers(0, 2, 120)
        bv, bview, split = _single_bin_setup(X, y)
        m1 = fit_partition(bview, bv.features, bv.label, split, KMeans(k=3), 30, seed=18)
        m2 = fit_partition(bview, bv.features, bv.label, split, KMeans(k=3), 30, seed=18)
        np.testing.assert_array_equal(
            _assign_to_bin_0(m1, bv.features), _assign_to_bin_0(m2, bv.features)
        )

    def test_k_clipped_to_sample_count(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 0])
        bv, bview, split = _single_bin_setup(X, y, n_train=3)
        model = fit_partition(bview, bv.features, bv.label, split, KMeans(k=5), 30, seed=19)
        assign = _assign_to_bin_0(model, bv.features)
        assert assign.max() < 3

    def test_each_bin_seeded_by_its_bin_id(self):
        # a bin's centers depend on (seed, its bin id), not on its group
        # position: the same rows fitted alone at group 0 give the same bits
        rng = np.random.default_rng(26)
        X = rng.normal(size=(90, 2))
        rows, offsets, bins = rng.permutation(90), np.array([0, 40, 90]), np.array([3, 7])
        together = KMeans(3).fit(X, None, rows, offsets, 30, 5, bins)
        for g, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            alone = KMeans(3).fit(X, None, rows[lo:hi], np.array([0, hi - lo]), 30, 5,
                                  bins[g:g + 1])
            assert _group_centers(together, g).tobytes() == _group_centers(alone, 0).tobytes()
        other_id = KMeans(3).fit(X, None, rows[40:], np.array([0, 50]), 30, 5, np.array([1]))
        assert _group_centers(other_id, 0).tobytes() != _group_centers(together, 1).tobytes()

    def test_rejects_features_whose_squared_distances_overflow(self):
        # two clusters about 1e149 apart near 1e160: every squared row norm
        # is inf, which would put all rows in one cluster
        base = np.repeat([[0.0], [1.0]], 50, axis=0) + np.random.default_rng(21).normal(
            size=(100, 2)) * 1e-3
        X = 1e160 * (1 + base * 1e-12)
        rows, offsets = np.arange(100), np.array([0, 100])
        with pytest.raises(ValueError, match="k-means"):
            KMeans(2).fit(X, None, rows, offsets, 30, 0, np.array([0]))
        # 4 * 200 values * (1e150)**2 is finite: accepted
        assert KMeans(2).fit(X / 1e10, None, rows, offsets, 30, 0, np.array([0])).n_regions[0] == 2


class TestAssignRegions:
    def test_every_row_gets_one_region(self):
        rng = np.random.default_rng(20)
        n = 600
        scores = rng.uniform(size=n)
        features = rng.normal(size=(n, 2))
        labels = rng.integers(0, 2, n)
        bv = BinaryView(features, scores, labels)
        bview = make_bins(bv, 15)
        half = np.arange(n)
        split = SplitIndex(half[::2], half[1::2])
        model = fit_partition(bview, features, bv.label, split, Tree(), 10, seed=21)
        assign = assign_regions(model, bview, features)
        assert assign.shape == (n,)
        # one partition per bin the view occupies, in the order of bview.bins
        assert model.n_regions.size == bview.bins.size
        for g, b in enumerate(bview.bins):
            assert assign[bview.bin_of == b].max() < model.n_regions[g]

    def test_a_view_gets_the_ids_of_its_rows_alone(self):
        # one id per row of the test-row view, in its order: the ids the
        # all-row view gives those rows
        rng = np.random.default_rng(24)
        n = 300
        features = rng.normal(size=(n, 2))
        bv = BinaryView(features, rng.uniform(size=n), rng.integers(0, 2, n))
        half = np.arange(n)
        split = SplitIndex(half[::2], half[1::2])
        bview = make_bins(bv, 5, rows=split.test_rows)
        model = fit_partition(bview, features, bv.label, split, Tree(), 10, seed=25)
        assign = assign_regions(model, bview, features)
        full = assign_regions(model, make_bins(bv, 5), features)
        assert assign.shape == split.test_rows.shape and full.shape == (n,)
        np.testing.assert_array_equal(assign, full[split.test_rows])
        assert (assign >= 0).all()

    def test_small_bins_fall_back_to_single_region(self):
        scores = np.array([0.05, 0.95, 0.96, 0.97, 0.98])
        features = np.arange(5, dtype=float)[:, None]
        bv = BinaryView(features, scores, np.array([0, 1, 0, 1, 0]))
        bview = make_bins(bv, 10)
        split = SplitIndex(np.array([0, 1, 2]), np.array([3, 4]))
        model = fit_partition(bview, features, bv.label, split, Tree(), 2, seed=22)
        assert model.n_regions[0] == 1

    @pytest.mark.parametrize("strategy", [Tree(), BalancedStump(), KMeans(2)],
                             ids=["tree", "stump", "kmeans"])
    def test_view_bin_without_train_rows_is_one_region(self, strategy):
        # train rows only in bin 0 and bin 2 (which the view does not
        # cover), test rows in bins 0 and 1: one group per view bin, and
        # bin 1, with no train row, is one region
        scores = np.array([0.1] * 8 + [0.9] * 4 + [0.5] * 3)
        rng = np.random.default_rng(27)
        features = rng.normal(size=(15, 2))
        bv = BinaryView(features, scores, rng.integers(0, 2, 15))
        split = SplitIndex(np.r_[0:6, 8:12], np.r_[6:8, 12:15])
        bview = make_bins(bv, 3, rows=split.test_rows)
        assert bview.bins.tolist() == [0, 1]
        model = fit_partition(bview, features, bv.label, split, strategy, 2, seed=28)
        assert model.n_regions.size == 2 and model.n_regions[1] == 1
        assign = assign_regions(model, bview, features)
        assert (assign[np.isin(bview.rows, [12, 13, 14])] == 0).all()

    def test_no_features_rejected(self):
        bv = BinaryView(np.zeros((4, 0)), np.full(4, 0.5), np.array([0, 1, 0, 1]))
        bview = make_bins(bv, 1)
        split = SplitIndex(np.array([0, 1]), np.array([2, 3]))
        with pytest.raises(ValueError, match="feature"):
            fit_partition(bview, bv.features, bv.label, split, Tree(), 10, seed=23)


class TestParseStrategy:
    def test_known_names(self):
        assert isinstance(parse_strategy("tree"), Tree)
        assert isinstance(parse_strategy("stump"), BalancedStump)
        assert parse_strategy("kmeans").k == 2
        assert parse_strategy("kmeans:4").k == 4

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_strategy("oblique")

    @pytest.mark.parametrize("name", ["kmeans:0", "kmeans:-3", "kmeans:x", "kmeans:"])
    def test_bad_k_names_the_value(self, name):
        with pytest.raises(ValueError, match=f"partition '{name}'"):
            parse_strategy(name)

    def test_kmeans_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k >= 1"):
            KMeans(k=0)
