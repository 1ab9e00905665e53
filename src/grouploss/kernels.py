"""Hot numeric inner loops, each as one plain numpy/Python implementation:
the calibration-curve fit, isotonic pooling, and ``best_splits``, the one
split scan of the tree and the stump, which holds the one threshold rule."""

import numpy as np

from . import forking

# Relative guard below which a local linear system is treated as degenerate
# and the weighted mean is returned instead.
_DEGENERATE_REL = 1e-10


def lowess_grid(s, y, grid, k):
    """Local linear tricube fit at each grid point over its k nearest scores.

    ``s`` is ascending with ``y`` aligned; ``grid`` is ascending.  The grid
    is cut into one contiguous run per worker (``forking.workers``): this
    process fits the first run and a forked child each other one.  Each
    point runs the same numpy calls on the same window wherever it runs,
    so the result does not depend on the number of runs.
    """
    m = grid.shape[0]
    starts = _window_starts(s, grid, k).tolist()
    parts = forking.workers(m)
    cuts = [m * i // parts for i in range(parts + 1)]
    return np.concatenate(forking.run_tasks([(_fit_run, (s, y, grid, k, starts, a, b))
                                             for a, b in zip(cuts, cuts[1:])]))


def _window_starts(s, grid, k):
    """Each grid point's window start: the first ``lo`` in ``[0, max(n - k, 0)]``
    at which ``lo + k < n and (s[lo + k] - g) < (g - s[lo])`` is false.

    That float predicate is true up to some ``lo`` and false from there on,
    and that ``lo`` never moves down as ``g`` grows, so one bisection per
    point gives the start that sliding ``lo`` up from the previous point's
    start reaches on an ascending grid.
    """
    n = s.shape[0]
    lo = np.zeros(grid.shape[0], dtype=np.intp)
    hi = np.full(grid.shape[0], max(n - k, 0), dtype=np.intp)
    while (lo < hi).any():
        # mid < hi <= n - k where the search is open; where it is closed,
        # mid == lo == hi and mid + k may reach n
        mid = (lo + hi) // 2
        slide = (s.take(mid + k, mode="clip") - grid) < (grid - s.take(mid))
        hi = np.where(slide, hi, mid)
        lo = np.minimum(np.where(slide, mid + 1, lo), hi)
    return lo


def _fit_run(s, y, grid, k, starts, first, stop):
    """The fit at grid points ``first:stop``, each over ``k`` rows from its start."""
    n = s.shape[0]
    out = np.empty(stop - first)
    # every window has min(k, n) rows; its passes reuse these buffers, four
    # arrays rather than one (4, m) block, which measured about 2 MB more
    # peak RSS on large-n-2e5
    x, w, wx, tmp = (np.empty(min(k, n)) for _ in range(4))
    for i, gi in enumerate(range(first, stop)):
        g = grid[gi]
        lo = starts[gi]
        win_s = s[lo:lo + k]
        win_y = y[lo:lo + k]
        bw = max(g - win_s[0], win_s[-1] - g)
        if bw <= 0.0:
            out[i] = win_y.mean()
            continue
        np.subtract(win_s, g, out=x)
        # |x| <= bw holds in floating point too, so no weight is negative
        np.abs(x, out=w)
        np.divide(w, bw, out=w)
        np.power(w, 3, out=w)
        np.subtract(1.0, w, out=w)
        np.power(w, 3, out=w)
        sw = w.sum()
        if sw <= 0.0:
            out[i] = win_y.mean()
            continue
        np.multiply(w, x, out=wx)
        swx = wx.sum()
        swy = np.multiply(w, win_y, out=tmp).sum()
        swx2 = np.multiply(wx, x, out=tmp).sum()
        swxy = np.multiply(wx, win_y, out=tmp).sum()
        denom = sw * swx2 - swx * swx
        if denom > _DEGENERATE_REL * sw * swx2:
            out[i] = (swx2 * swy - swx * swxy) / denom
        else:
            out[i] = swy / sw
    return out


def best_splits(X, y, order, sizes, min_leaf):
    """Greedy axis-aligned split minimizing squared loss of each of many
    row sets, in one pass, for 0/1 labels ``y``.

    The columns of ``order`` (shape ``(d, m)``, rows of ``X``) hold the
    segments one after another: segment ``j`` has ``sizes[j]`` columns,
    and each feature's row lists the segment's rows in ascending order
    of that feature.  Returns the arrays ``(feature, threshold, gain)``:
    per segment, the best boundary between distinct values that leaves
    at least ``min_leaf[j] >= 1`` rows on each side, whatever its gain
    (taking it is the caller's decision), or ``(-1, 0.0, -inf)`` if none
    does.  Ties keep the lowest feature, then the lowest threshold.  Each
    entry is bit for bit what a scan of that segment alone gives.  There
    is one segment or more, each with rows (``sizes >= 1``), and ``X`` has
    a feature.
    """
    d, m = order.shape
    ends = sizes.cumsum()
    starts = ends - sizes
    cols = np.arange(m)
    left_n = cols - starts.repeat(sizes)
    left_n += 1
    right_n = ends.repeat(sizes) - cols
    right_n -= 1
    too_small = np.minimum(left_n, right_n) < min_leaf.repeat(sizes)
    # a segment's last column has no right side; too_small drops its gain
    np.maximum(right_n, 1, out=right_n)
    rows = np.asarray(order, dtype=np.intp)
    at = rows * d
    at += np.arange(d)[:, None]
    xs = X.reshape(-1).take(at)
    # Labels are 0/1, so every prefix sum is an exact integer, whatever the
    # order within tied values, and a segment's own prefix sums are the
    # running sum minus the segment's base.
    cum = np.cumsum(y.take(rows), axis=1, dtype=np.float64)
    run = cum[0].take(ends - 1)
    base = np.concatenate(([0.0], run[:-1]))
    total = run - base
    right = run.repeat(sizes) - cum
    cum -= base.repeat(sizes)
    right *= right
    right /= right_n
    cum *= cum
    cum /= left_n
    cum += right
    total *= total
    total /= sizes
    cum -= total.repeat(sizes)
    gains = cum
    gains[:, too_small] = -np.inf
    gains[:, :-1][xs[:, 1:] == xs[:, :-1]] = -np.inf
    # the first maximum in (feature, threshold) order: the lowest feature
    # whose segment maximum is the largest, then its first column there
    per_feature = np.maximum.reduceat(gains, starts, axis=1)
    best = per_feature.max(axis=0)
    f = (per_feature == best).argmax(axis=0)
    at = f * m
    hits = np.flatnonzero(gains.reshape(-1).take(at.repeat(sizes) + cols) == best.repeat(sizes))
    at += hits.take(hits.searchsorted(starts))
    lo = xs.reshape(-1).take(at)
    hi = xs.reshape(-1).take(at + 1, mode="clip")
    # halved first, so no finite values overflow; if the midpoint rounds
    # up to ``hi`` (neighbouring doubles), ``lo`` still separates them
    mid = 0.5 * lo + 0.5 * hi
    found = best > -np.inf
    return np.where(found, f, -1), np.where(found, np.where(mid < hi, mid, lo), 0.0), best


def pav(values, weights):
    """Pool-adjacent-violators: weighted isotonic means in index order."""
    n = values.shape[0]
    lv = np.empty(n)
    lw = np.empty(n)
    lend = np.empty(n, np.int64)
    m = 0
    for i in range(n):
        cv = values[i]
        cw = weights[i]
        while m > 0 and lv[m - 1] > cv:
            cv = (lw[m - 1] * lv[m - 1] + cw * cv) / (lw[m - 1] + cw)
            cw += lw[m - 1]
            m -= 1
        lv[m] = cv
        lw[m] = cw
        lend[m] = i
        m += 1
    return np.repeat(lv[:m], np.diff(lend[:m], prepend=-1))

