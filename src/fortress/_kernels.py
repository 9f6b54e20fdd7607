"""Hot kernels for tree growth and scoring, written in numpy.

The exact greedy split search and the ensemble margin evaluation dominate
runtime. Both are checked against the scalar walks in ``tests/oracles.py``.

The split search scores one feature in a few array operations: it
gathers the feature's in-node entries with one ``flatnonzero`` and ``take``
(or uses the presorted slice as it is when the node holds all of them),
skips a feature without a value boundary in the node before its prefix
sums, and stacks the two default directions for the missing rows into one
array (the left sums at each threshold, then the same sums plus the missing
rows), so one gain formula, one ``np.where`` and one ``np.maximum`` of the
two halves score every candidate split of the feature.
"""

from __future__ import annotations

import numpy as np

_NEG_INF = float("-inf")


def best_split_numpy(
    vals_sorted,
    sort_rows,
    offsets,
    in_node,
    g,
    h,
    g_total,
    h_total,
    active,
    lam,
    gamma,
    min_h,
):
    """Exact greedy split search over the ``active`` features of a node.

    Returns ``(gain, feature, threshold, default_left)`` of the best split,
    or ``(-inf, -1, nan, False)`` when no candidate exists. Ties resolve to
    the lowest feature index, then the lowest threshold.

    The gains of a feature's thresholds are one array ``[right | left]``:
    entry ``k`` of each half sends the missing rows right or left at
    threshold ``k``. The winner's direction is read back as
    ``left >= right``, so a tied default direction goes left.
    """
    best_gain = _NEG_INF
    best_feature = -1
    best_threshold = np.nan
    best_default_left = False
    sub = g_total * g_total / (h_total + lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in active:
            start = offsets[j]
            stop = offsets[j + 1]
            o = sort_rows[start:stop]
            keep = in_node[o]
            m = np.count_nonzero(keep)
            if m < 2:
                continue
            if m == o.size:
                v = vals_sorted[start:stop]
                rows = o
            else:
                sel = np.flatnonzero(keep)
                v = vals_sorted[start:stop].take(sel)
                rows = o.take(sel)
            pos = np.flatnonzero(v[:-1] < v[1:])
            if pos.size == 0:
                continue
            pg = np.cumsum(g.take(rows))
            ph = np.cumsum(h.take(rows))
            gl = pg.take(pos)
            hl = ph.take(pos)
            gs = np.concatenate((gl, gl + (g_total - pg[m - 1])))
            hs = np.concatenate((hl, hl + (h_total - ph[m - 1])))
            gr = g_total - gs
            hr = h_total - hs
            raw = 0.5 * (gs * gs / (hs + lam) + gr * gr / (hr + lam) - sub) - gamma
            gain = np.where((hs >= min_h) & (hr >= min_h) & ~np.isnan(raw), raw, _NEG_INF)
            right = gain[:pos.size]
            left = gain[pos.size:]
            k = int(np.argmax(np.maximum(left, right)))
            default_left = bool(left[k] >= right[k])
            best_k = left[k] if default_left else right[k]
            if best_k > best_gain:
                best_gain = float(best_k)
                best_feature = int(j)
                best_threshold = float(0.5 * (v[pos[k]] + v[pos[k] + 1]))
                best_default_left = default_left
    return best_gain, best_feature, best_threshold, best_default_left


def predict_margin_numpy(X, feat, thr, dleft, left, right, wt, roots, base):
    """Ensemble margins: ``base`` plus the leaf weight each tree gives each row."""
    n = X.shape[0]
    out = np.full(n, base, dtype=np.float64)
    row_ix = np.arange(n)
    for t in range(roots.size):
        idx = np.full(n, roots[t], dtype=np.int64)
        while True:
            f = feat[idx]
            internal = f >= 0
            if not internal.any():
                break
            x = X[row_ix, np.where(internal, f, 0)]
            go_left = np.where(np.isnan(x), dleft[idx], x < thr[idx])
            step = np.where(go_left, left[idx], right[idx])
            idx = np.where(internal, step, idx)
        out += wt[idx]
    return out


# Callers and tracers go through these names, so a wrapper patched onto
# them sees every call in this process. The split helper's child calls
# ``best_split_numpy`` itself, so a patched wrapper never runs there.
best_split = best_split_numpy
predict_margin = predict_margin_numpy

# HAS_NUMBA and backend_name are read by perfbench/pinned.py; delete both
# once its numba parity check and backend line are gone.
HAS_NUMBA = False


def backend_name() -> str:
    """Name of the kernel backend: always ``"numpy"``."""
    return "numpy"
