"""Feature-space partitioning of score level sets.

Each bin a binned view occupies gets its own partition of feature space,
fitted on the train rows of that bin only and applied to the rows the
view covers (the test rows, in the pipeline).  Three strategies: a
greedy axis-aligned regression tree on squared loss with a leaf-count
cap derived from the region ratio, a single balanced-split stump, and
seeded Lloyd k-means.  Each strategy's ``fit(X, y, rows, offsets,
region_ratio, seed, bins)`` partitions every group's train rows at once
(group ``g``, bin ``bins[g]``, owns ``rows[offsets[g]:offsets[g + 1]]``)
and returns one fitted partition of every group: ``n_regions``, one
count per group, and ``assign(X, rows, groups)``, the region of each row
``rows`` of ``X`` within its group ``groups``.  The tree and the stump
fit a ``Forest``, k-means fits ``Centers``.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from . import kernels
from .binning import BinnedView
from .data import SplitIndex, group_by_bin

MIN_SPLIT_GAIN = 1e-12
MIN_SAMPLES_LEAF = 2
# Lloyd iterations stop after this many rounds or once no center moves this far
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class Tree:
    """Greedy CART partition; leaves capped at n_train_in_bin // region_ratio."""

    def fit(self, X, y, rows, offsets, region_ratio, seed, bins):
        caps = np.maximum(np.diff(offsets) // region_ratio, 1)
        return _grow_trees(X, y, rows, offsets, caps, MIN_SAMPLES_LEAF, MIN_SPLIT_GAIN)


@dataclass(frozen=True)
class BalancedStump:
    """One split with at least floor(n/2) train samples on each side: the
    tree grower capped at two leaves, taking any qualifying boundary."""

    def fit(self, X, y, rows, offsets, region_ratio, seed, bins):
        min_leaf = np.maximum(np.diff(offsets) // 2, 1)
        return _grow_trees(X, y, rows, offsets, np.full(min_leaf.shape[0], 2), min_leaf, -np.inf)


@dataclass(frozen=True)
class KMeans:
    """Lloyd clustering with k-means++ seeding."""

    k: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k-means needs k >= 1, got {self.k}")

    def fit(self, X, y, rows, offsets, region_ratio, seed, bins):
        # every squared distance (fit and assign) and seeding total is at
        # most 4 * X.size * amax**2; past that they overflow to inf silently
        amax = max(float(X.max(initial=0.0)), -float(X.min(initial=0.0)))
        if not 4.0 * X.size * amax * amax < np.inf:
            raise ValueError(f"k-means: features up to {amax:.3g} overflow squared distances")
        blocks = []
        for b, lo, hi in zip(bins.tolist(), offsets[:-1].tolist(), offsets[1:].tolist()):
            Xb = X[rows[lo:hi]]
            n = Xb.shape[0]
            k = min(self.k, n)
            if k < 2:
                blocks.append(Xb[:0])
                continue
            rng = np.random.default_rng([seed, b])
            centers = np.empty((k, Xb.shape[1]))
            centers[0] = Xb[rng.integers(n)]
            d2 = np.sum((Xb - centers[0]) ** 2, axis=1)
            for j in range(1, k):
                total = d2.sum()
                if total <= 0.0:
                    centers[j] = Xb[rng.integers(n)]
                else:
                    centers[j] = Xb[rng.choice(n, p=d2 / total)]
                d2 = np.minimum(d2, np.sum((Xb - centers[j]) ** 2, axis=1))
            x2, twice_x = _row_terms(Xb)  # they do not move with the centers
            for _ in range(KMEANS_MAX_ITER):
                dist2 = _sq_distances(x2, twice_x, centers)
                assign = np.argmin(dist2, axis=1)
                counts = np.bincount(assign, minlength=k)
                new_centers = _cluster_means(Xb, assign, counts)
                for j in np.flatnonzero(counts == 0):
                    # re-seed an empty cluster at the worst-served point
                    worst = int(np.argmax(np.take_along_axis(dist2, assign[:, None], 1)))
                    new_centers[j] = Xb[worst]
                movement = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
                centers = new_centers
                if movement < KMEANS_TOL:
                    break
            blocks.append(centers)
        return Centers(np.concatenate([X[:0], *blocks]),
                       np.cumsum([0, *(c.shape[0] for c in blocks)]))


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
class Forest:
    """One flattened binary tree per group, node ``g`` the root of group
    ``g``'s tree; feature == -1 marks a leaf node.  The children of an
    inner node are made together, so its right child is ``left + 1``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    leaf_region: np.ndarray
    n_regions: np.ndarray

    def assign(self, X: np.ndarray, rows: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """Region of each row ``rows`` of ``X`` in the tree of its group
        ``groups``; the rows of every group descend one level per step together."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        d = X.shape[1]
        out = np.empty(rows.shape[0], dtype=np.int64)
        at = np.arange(rows.shape[0])
        flat, node = rows * d, groups
        while at.size:
            feature = self.feature.take(node)
            leaf = feature < 0
            if leaf.any():
                out[at[leaf]] = self.leaf_region.take(node[leaf])
                inner = ~leaf
                at, flat, node, feature = at[inner], flat[inner], node[inner], feature[inner]
            goes_left = X.reshape(-1).take(flat + feature) <= self.threshold.take(node)
            node = self.left.take(node) + ~goes_left
        return out


def _row_terms(X: np.ndarray):
    """The terms of ``_sq_distances`` that come from the rows of ``X`` alone."""
    return np.sum(X * X, axis=1)[:, None], 2.0 * X


def _sq_distances(x2: np.ndarray, twice_x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each row to each center, ``(n, k)``,
    from the rows' ``_row_terms``; fitting and assigning share it bit for bit.
    ``x2 - m + c2`` in the product's own buffer: the same operations in
    the same order, so the same bits, without two more ``(n, k)`` arrays."""
    m = twice_x @ centers.T
    np.subtract(x2, m, out=m)
    m += np.sum(centers * centers, axis=1)
    return m


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
class Centers:
    """Every group's k-means centers in one ``(sum k, d)`` array: group
    ``g`` owns rows ``offsets[g]:offsets[g + 1]``, none if it is one region."""

    centers: np.ndarray
    offsets: np.ndarray

    @property
    def n_regions(self) -> np.ndarray:
        return np.maximum(np.diff(self.offsets), 1)

    def assign(self, X: np.ndarray, rows: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """Nearest center of its group ``groups`` for each row ``rows`` of ``X``.

        Each group's distances come from that group's rows alone, as in the
        fit, so their bits do not depend on how a larger product is summed.
        """
        out = np.zeros(rows.shape[0], dtype=np.int64)
        ids, order, offsets = group_by_bin(groups, self.offsets.size - 1)
        for g, lo, hi in zip(ids.tolist(), offsets[:-1].tolist(), offsets[1:].tolist()):
            centers = self.centers[self.offsets[g]:self.offsets[g + 1]]
            if centers.shape[0] > 1:
                at = order[lo:hi]
                out[at] = np.argmin(_sq_distances(*_row_terms(X[rows[at]]), centers), axis=1)
        return out


def _grow_trees(X: np.ndarray, y: np.ndarray, rows: np.ndarray, offsets: np.ndarray, caps,
                min_leaf, min_gain):
    """Best-first CART growth of one tree per group of rows, all in lockstep,
    into one ``Forest``.

    Group ``g`` owns ``rows[offsets[g]:offsets[g + 1]]`` and grows to at
    most ``caps[g]`` leaves, always splitting its largest-gain candidate:
    a boundary with ``min_leaf`` rows (one or per group) on each side and
    gain above ``min_gain``.  A group at its cap is scanned no more.
    The groups are independent, so each round splits the top candidate
    of every group at once and scans all the new children in one
    ``kernels.best_splits`` call; each tree is the one that group grows
    alone.  One ``(d, N)`` array holds every feature's ascending order of
    each open leaf's rows in the leaf's own columns: a split partitions
    those columns into left rows then right rows, a stable filter that
    keeps both sides sorted.  Deterministic tie handling: the split scan
    keeps the lowest feature and threshold, the heap breaks equal gains
    by node creation order.  Leaf caps therefore nest, so growing a
    larger tree only refines a smaller one.  Node ``g`` is group ``g``'s
    root and children are numbered in creation order over the forest,
    which keeps each group's creation order; each tree numbers its
    leaves in preorder, which keeps region ids contiguous and stable.
    """
    n_groups, d = len(caps), X.shape[1]
    caps = list(caps)
    min_leaf = np.broadcast_to(min_leaf, (n_groups,))
    order = _presorted(X, rows, offsets)
    went_left = np.zeros(X.shape[0], dtype=bool)
    feature, threshold = [-1] * n_groups, [0.0] * n_groups
    left = [-1] * n_groups
    candidates = [[] for _ in range(n_groups)]
    n_leaves = [1] * n_groups

    def consider(groups, nodes, starts, sizes, block):
        """Scan the leaves whose columns ``block`` holds; queue their splits."""
        feats, threshs, gains = kernels.best_splits(X, y, block, sizes, min_leaf.take(groups))
        for g, node, start, size, f, t, gain in zip(
                groups.tolist(), nodes.tolist(), starts.tolist(), sizes.tolist(),
                feats.tolist(), threshs.tolist(), gains.tolist()):
            if gain > min_gain:
                heapq.heappush(candidates[g], (-gain, node, f, t, start, size))

    counts = np.diff(offsets)
    # a group with fewer than two rows has no boundary to scan
    roots = np.flatnonzero((np.asarray(caps) > 1) & (counts >= 2))
    for lo, hi in _chunks(counts[roots], d):
        groups = roots[lo:hi]
        starts, sizes = offsets[groups], counts[groups]
        consider(groups, groups, starts, sizes, order.take(_ranges(starts, sizes), axis=1))
    while True:
        popped = []
        for g in range(n_groups):
            if candidates[g] and n_leaves[g] < caps[g]:
                _, node, f, t, start, size = heapq.heappop(candidates[g])
                feature[node], threshold[node] = f, t
                left[node] = len(feature)
                feature += [-1, -1]
                threshold += [0.0, 0.0]
                left += [-1, -1]
                n_leaves[g] += 1
                if n_leaves[g] < caps[g]:
                    popped.append((g, left[node], f, t, start, size))
        if not popped:
            break
        for lo, hi in _chunks([p[-1] for p in popped], d):
            groups, lefts, feats, threshs, starts, sizes = map(np.array, zip(*popped[lo:hi]))
            block = order.take(_ranges(starts, sizes), axis=1)
            went_left[block[0]] = X.reshape(-1).take(
                block[0] * d + feats.repeat(sizes)) <= threshs.repeat(sizes)
            side = went_left.take(block).reshape(-1)
            n_left = np.add.reduceat(side[:block.shape[1]], np.cumsum(sizes) - sizes,
                                     dtype=np.intp)
            # boolean selection keeps each feature's sorted order; the
            # children's columns are all left children, then all right ones
            children = np.concatenate((block.reshape(-1).compress(side).reshape(d, -1),
                                       block.reshape(-1).compress(~side).reshape(d, -1)), axis=1)
            starts = np.concatenate((starts, starts + n_left))
            sizes = np.concatenate((n_left, sizes - n_left))
            order[:, _ranges(starts, sizes)] = children
            consider(np.concatenate((groups, groups)), np.concatenate((lefts, lefts + 1)),
                     starts, sizes, children)
    leaf_region = np.full(len(feature), -1, dtype=np.int64)
    n_regions = [0] * n_groups
    stack = [(g, g) for g in reversed(range(n_groups))]
    while stack:
        node, g = stack.pop()
        if feature[node] < 0:
            leaf_region[node] = n_regions[g]
            n_regions[g] += 1
        else:
            stack += [(left[node] + 1, g), (left[node], g)]
    return Forest(np.array(feature, dtype=np.int64), np.array(threshold, dtype=float),
                  np.array(left, dtype=np.int64), leaf_region, np.array(n_regions, dtype=np.int64))


# Indices in the ``(d, m)`` block one batched pass works on, unless one
# leaf alone is larger.  It bounds the memory of a pass: at 1 << 16,
# fine-regions-d8 peak RSS was ~2 MB above that of one scan per node.
PASS_ELEMENTS = 1 << 14


def _chunks(sizes, d):
    """Consecutive ``(lo, hi)`` runs of the segments ``sizes``, each with at
    most ``PASS_ELEMENTS // d`` rows, or one segment if it is larger."""
    limit = PASS_ELEMENTS // d
    lo = rows = 0
    for hi, size in enumerate(sizes):
        if rows and rows + size > limit:
            yield lo, hi
            lo, rows = hi, 0
        rows += size
    if lo < len(sizes):
        yield lo, len(sizes)


def _ranges(starts, sizes):
    """``concatenate([arange(s, s + z) for s, z in zip(starts, sizes)])``."""
    ends = sizes.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (starts - ends + sizes).repeat(sizes)


def _presorted(X: np.ndarray, rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each feature's ascending order of each group's rows, shape ``(d, N)``.

    Group ``g`` fills columns ``offsets[g]:offsets[g + 1]``; tied values
    keep their order in ``rows`` (a stable sort of each group's slice).
    """
    d = X.shape[1]
    # half the memory of intp, and row * d + feature still fits
    order = np.empty((d, rows.shape[0]), dtype=np.int32 if X.size < 2**31 else np.intp)
    flat = rows * d
    bounds = offsets.tolist()
    for f in range(d):
        values = X.reshape(-1).take(flat + f)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            order[f, lo:hi] = rows[lo:hi].take(np.argsort(values[lo:hi], kind="stable"))
    return order


def fit_partition(
    bview: BinnedView,
    features: np.ndarray,
    labels: np.ndarray,
    split: SplitIndex,
    strategy,
    region_ratio: int,
    seed: int,
):
    """Fit one partition per bin ``bview`` occupies on that bin's train rows.

    Bins with fewer than 2 train rows fall back to a single region.
    Per-bin randomness derives from ``(seed, bin_index)``, so fits are
    independent and order-insensitive.  The strategy gets every bin in
    one call, group ``g`` for ``bview.bins[g]``, each bin's rows in
    their order in ``split.train_rows``.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] == 0:
        raise ValueError("partitioning requires a nonempty feature matrix")
    if region_ratio < 1:
        raise ValueError("region_ratio must be >= 1")
    labels = np.asarray(labels, dtype=np.float64)
    rows, offsets = _rows_by_bin(bview, split.train_rows)
    return strategy.fit(features, labels, rows, offsets, region_ratio, seed, bview.bins)


def _rows_by_bin(bview: BinnedView, train_rows: np.ndarray):
    """The train rows of each bin ``bview`` occupies, in their order in
    ``train_rows``, and the offsets of each bin's run, empty or not."""
    ids, order, offsets = group_by_bin(bview.bin_of[train_rows], bview.n_bins)
    lo = offsets[np.searchsorted(ids, bview.bins)]
    sizes = offsets[np.searchsorted(ids, bview.bins, side="right")] - lo
    return train_rows[order[_ranges(lo, sizes)]], np.append(0, sizes.cumsum())


def assign_regions(model, bview: BinnedView, features: np.ndarray) -> np.ndarray:
    """Region index within its bin for each row of ``bview.rows``, in that
    order: the ids ``region_stats`` counts."""
    return model.assign(np.asarray(features, dtype=np.float64), bview.rows, bview.slot)
