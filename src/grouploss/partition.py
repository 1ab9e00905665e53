"""Feature-space partitioning of score level sets.

Each occupied score bin gets its own partition of feature space, fitted
on the train rows of that bin only and applied to the rows a binned
view covers (the test rows, in the pipeline).  Three
strategies: a greedy axis-aligned regression tree on squared loss with
a leaf-count cap derived from the region ratio, a single balanced-split
stump, and seeded Lloyd k-means.  Each strategy's
``fit(X, y, region_ratio, rng)`` partitions one bin's train rows and
returns an assigner, with ``assign(X)`` and ``n_regions``.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from . import kernels
from .binning import BinnedView
from .data import SplitIndex

MIN_SPLIT_GAIN = 1e-12
MIN_SAMPLES_LEAF = 2
# Lloyd iterations stop after this many rounds or once no center moves this far
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class Tree:
    """Greedy CART partition; leaves capped at n_train_in_bin // region_ratio."""

    def fit(self, X, y, region_ratio, rng):
        return _grow_tree(X, y, max(X.shape[0] // region_ratio, 1))


@dataclass(frozen=True)
class BalancedStump:
    """One split with at least floor(n/2) train samples on each side."""

    def fit(self, X, y, region_ratio, rng):
        return _fit_stump(X, y)


@dataclass(frozen=True)
class KMeans:
    """Lloyd clustering with k-means++ seeding."""

    k: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k-means needs k >= 1, got {self.k}")

    def fit(self, X, y, region_ratio, rng):
        n = X.shape[0]
        k = min(self.k, n)
        if k < 2:
            return ONE_REGION
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
        x2, twice_x = _row_terms(X)  # they do not move with the centers
        for _ in range(KMEANS_MAX_ITER):
            dist2 = _sq_distances(x2, twice_x, centers)
            assign = np.argmin(dist2, axis=1)
            counts = np.bincount(assign, minlength=k)
            new_centers = _cluster_means(X, assign, counts)
            for j in np.flatnonzero(counts == 0):
                # re-seed an empty cluster at the worst-served point
                worst = int(np.argmax(np.take_along_axis(dist2, assign[:, None], 1)))
                new_centers[j] = X[worst]
            movement = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
            centers = new_centers
            if movement < KMEANS_TOL:
                break
        return CenterAssigner(centers)


def parse_strategy(name: str):
    if name == "tree":
        return Tree()
    if name == "stump":
        return BalancedStump()
    if name == "kmeans":
        return KMeans()
    if name.startswith("kmeans:"):
        try:
            return KMeans(k=int(name.split(":", 1)[1]))
        except ValueError:
            raise ValueError(f"partition {name!r}: kmeans:K needs an integer K >= 1") from None
    raise ValueError(f"unknown partition strategy: {name!r}")


@dataclass(frozen=True)
class TreeAssigner:
    """Flattened binary tree; feature == -1 marks a leaf node."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_region: np.ndarray
    n_regions: int

    def assign(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=np.int64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if self.feature[node] < 0:
                out[rows] = self.leaf_region[node]
                continue
            mask = X[rows, self.feature[node]] <= self.threshold[node]
            stack.append((self.right[node], rows[~mask]))
            stack.append((self.left[node], rows[mask]))
        return out


def _tree(feature, threshold, left, right):
    """The ``TreeAssigner`` of per-node lists, node 0 the root.

    Leaves are numbered in preorder, which keeps region ids contiguous
    and stable.
    """
    leaf_region = np.full(len(feature), -1, dtype=np.int64)
    stack, next_region = [0], 0
    while stack:
        node = stack.pop()
        if feature[node] < 0:
            leaf_region[node] = next_region
            next_region += 1
        else:
            stack.append(right[node])
            stack.append(left[node])
    return TreeAssigner(np.array(feature, dtype=np.int64), np.array(threshold, dtype=float),
                        np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
                        leaf_region, next_region)


# an unsplit bin: the one-leaf tree ``_grow_tree(X, y, 1)`` returns
ONE_REGION = _tree([-1], [0.0], [-1], [-1])


def _row_terms(X: np.ndarray):
    """The terms of ``_sq_distances`` that come from the rows of ``X`` alone."""
    return np.sum(X * X, axis=1)[:, None], 2.0 * X


def _sq_distances(x2: np.ndarray, twice_x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each row to each center, ``(n, k)``,
    from the rows' ``_row_terms``; fitting and assigning share it bit for bit."""
    return x2 - twice_x @ centers.T + np.sum(centers * centers, axis=1)[None, :]


def _cluster_means(X: np.ndarray, assign: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each cluster's rows of ``X``; rows of empty clusters are arbitrary.

    Bit for bit ``X[assign == j].mean(axis=0)``: numpy reduces axis 0 of
    a C-contiguous ``(m, d >= 2)`` block row by row, in the order
    ``bincount`` adds, but sums a ``(m, 1)`` block pairwise.
    """
    k, d = counts.shape[0], X.shape[1]
    if d == 1:
        means = np.empty((k, 1))
        for j in np.flatnonzero(counts):
            means[j] = X[assign == j].mean(axis=0)
        return means
    sums = np.empty((k, d))
    for f in range(d):
        sums[:, f] = np.bincount(assign, weights=X[:, f], minlength=k)
    return sums / np.maximum(counts, 1)[:, None]


@dataclass(frozen=True)
class CenterAssigner:
    centers: np.ndarray

    def assign(self, X: np.ndarray) -> np.ndarray:
        return np.argmin(_sq_distances(*_row_terms(X), self.centers), axis=1).astype(np.int64)

    @property
    def n_regions(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class PartitionModel:
    assigners: tuple


def _grow_tree(X: np.ndarray, y: np.ndarray, max_leaves: int):
    """Best-first CART growth: always take the largest-gain candidate.

    Each feature's rows are sorted once, at the root.  An open leaf keeps
    its rows and their per-feature ascending order ``(d, n_leaf)`` as
    local indices; a split filters the parent's order by side, which
    keeps it sorted, and renumbers it to the child's rows.  Deterministic
    tie handling: the split scan keeps the lowest feature and threshold,
    the heap breaks equal gains by node creation order.  Leaf caps
    therefore nest, so growing a larger tree only refines a smaller one.
    """
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    candidates, open_leaves = [], {}

    def consider(node, rows, order):
        f, t, g = kernels.best_split(X[rows], y[rows], MIN_SAMPLES_LEAF, order)
        if g > MIN_SPLIT_GAIN:
            heapq.heappush(candidates, (-g, node, f, t))
            open_leaves[node] = rows, order

    if max_leaves > 1:
        consider(0, np.arange(X.shape[0]), np.argsort(X, axis=0, kind="stable").T)
    n_leaves = 1
    while n_leaves < max_leaves and candidates:
        _, node, feat, thresh = heapq.heappop(candidates)
        rows, order = open_leaves.pop(node)
        feature[node], threshold[node] = feat, thresh
        left[node], right[node] = len(feature), len(feature) + 1
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        right += [-1, -1]
        goes_left = X[rows, feat] <= thresh
        for child, side in ((left[node], goes_left), (right[node], ~goes_left)):
            # boolean indexing keeps each feature's sorted order
            rank = np.cumsum(side) - 1
            consider(child, rows[side], rank[order[side[order]]].reshape(X.shape[1], -1))
        n_leaves += 1
    return _tree(feature, threshold, left, right)


def _fit_stump(X: np.ndarray, y: np.ndarray):
    """Best single split with both sides >= floor(n/2) samples."""
    feat, thresh, _ = kernels.best_split(X, y, max(y.shape[0] // 2, 1))
    if feat < 0:
        return ONE_REGION
    return _tree([feat, -1, -1], [thresh, 0.0, 0.0], [1, -1, -1], [2, -1, -1])


def fit_partition(
    bview: BinnedView,
    features: np.ndarray,
    labels: np.ndarray,
    split: SplitIndex,
    strategy,
    region_ratio: int,
    seed: int,
) -> PartitionModel:
    """Fit one partition per occupied bin on that bin's train rows.

    Bins with fewer than 2 train rows fall back to a single region.
    Per-bin randomness derives from ``(seed, bin_index)``, so fits are
    independent and order-insensitive.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] == 0:
        raise ValueError("partitioning requires a nonempty feature matrix")
    if region_ratio < 1:
        raise ValueError("region_ratio must be >= 1")
    labels = np.asarray(labels, dtype=np.float64)
    train_bins = bview.bin_of[split.train_rows]

    def fit_one(b):
        rows = split.train_rows[train_bins == b]
        if rows.size < 2:
            return ONE_REGION
        rng = np.random.default_rng([seed, b])
        return strategy.fit(features[rows], labels[rows], region_ratio, rng)

    return PartitionModel(tuple(fit_one(b) for b in range(bview.n_bins)))


def assign_regions(model: PartitionModel, bview: BinnedView, features: np.ndarray) -> np.ndarray:
    """Region index within its bin for each row ``bview`` covers.

    The result spans every row of ``features``; rows outside
    ``bview.rows`` get -1, which ``region_stats`` rejects.
    """
    features = np.asarray(features, dtype=np.float64)
    out = np.full(bview.bin_of.shape[0], -1, dtype=np.int64)
    bins = bview.bin_of[bview.rows]
    for b, assigner in enumerate(model.assigners):
        rows = bview.rows[bins == b]
        if rows.size:
            out[rows] = assigner.assign(features[rows])
    return out
