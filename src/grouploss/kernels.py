"""Hot numeric inner loops: calibration-curve fit, tree split scan and
isotonic pooling, each as one plain numpy/Python implementation."""

import numpy as np

# Relative guard below which a local linear system is treated as degenerate
# and the weighted mean is returned instead.
_DEGENERATE_REL = 1e-10


def lowess_grid(s, y, grid, k):
    """Local linear tricube fit at each grid point over its k nearest scores.

    ``s`` is ascending with ``y`` aligned; ``grid`` is ascending.
    """
    n = s.shape[0]
    out = np.empty(grid.shape[0])
    # every window has min(k, n) rows; its passes reuse these buffers, four
    # arrays rather than one (4, m) block, which measured about 2 MB more
    # peak RSS on large-n-2e5
    x, w, wx, tmp = (np.empty(min(k, n)) for _ in range(4))
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
            out[gi] = win_y.mean()
            continue
        np.multiply(w, x, out=wx)
        swx = wx.sum()
        swy = np.multiply(w, win_y, out=tmp).sum()
        swx2 = np.multiply(wx, x, out=tmp).sum()
        swxy = np.multiply(wx, win_y, out=tmp).sum()
        denom = sw * swx2 - swx * swx
        if denom > _DEGENERATE_REL * sw * swx2:
            out[gi] = (swx2 * swy - swx * swxy) / denom
        else:
            out[gi] = swy / sw
    return out


def best_split(X, y, min_leaf, order=None):
    """Greedy axis-aligned split minimizing squared loss, for 0/1 labels ``y``.

    ``order`` is each feature's ascending row order of ``X``, shape
    ``(d, n)``; it is computed when not given.  All features are scanned
    in one 2-D pass.  Returns ``(feature, threshold, gain)`` of the best
    boundary between distinct values that leaves at least ``min_leaf``
    rows on each side, whatever its gain, zero and negative included:
    whether a split is worth taking is the caller's decision.  Returns
    ``(-1, 0.0, 0.0)`` only when no boundary qualifies.  Gain ties keep
    the lowest feature index, then the lowest threshold.  ``min_leaf``
    must be at least 1.
    """
    n, d = X.shape
    if d == 0 or n < 2 * min_leaf:
        return -1, 0.0, 0.0
    if order is None:
        order = np.argsort(X, axis=0, kind="stable").T
    xs = X.T[np.arange(d)[:, None], order]
    # Labels are 0/1, so every prefix sum at a boundary between distinct
    # values is an exact integer, whatever the order within tied values.
    cum = np.cumsum(y[order], axis=1)[:, :-1]
    total = float(y.sum())
    left_n = np.arange(1, n)
    right = total - cum
    gains = cum * cum / left_n + right * right / (n - left_n) - total * total / n
    gains[xs[:, 1:] == xs[:, :-1]] = -np.inf
    gains[:, :min_leaf - 1] = -np.inf
    gains[:, n - min_leaf:] = -np.inf
    # row-major argmax: lowest feature first, then lowest threshold
    f, i = divmod(int(np.argmax(gains)), n - 1)
    if gains[f, i] == -np.inf:
        return -1, 0.0, 0.0
    return f, split_threshold(float(xs[f, i]), float(xs[f, i + 1])), float(gains[f, i])


def split_threshold(lo, hi):
    """Threshold between adjacent distinct values ``lo < hi``.

    The midpoint, unless it rounds up to ``hi`` (as for neighbouring
    doubles): then ``lo``, so ``x <= threshold`` still separates them.
    """
    mid = 0.5 * (lo + hi)
    return mid if mid < hi else lo


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

