"""Hot kernels for tree growth and scoring, written in numpy.

The exact greedy split search and the ensemble margin evaluation dominate
runtime. Both are checked against the scalar walks in ``tests/oracles.py``.

``predict_margin`` is the one walk of a finished tree: scoring a model,
replaying the trees ``model.train`` reuses, adding each tree it grows to
the training margins, and ``model.loss_curve`` all call it on the
``model.Tree`` objects themselves, so every caller adds the same leaf
weights in the same order.

The split search has two paths that return the same bits. At the sizes this
project trains on, both are bound by the count of numpy calls rather than by
arithmetic, so each is written to make few of them.

- **Per feature**, for larger nodes: it gathers a feature's in-node
  entries from its presorted slice with one ``nonzero`` and ``take`` (or
  uses the slice as it is when the node holds all of them), skips a
  feature without a value boundary in the node before its prefix sums, and
  scores both default directions of the missing rows in one array (the
  left sums at each threshold, then the same sums plus the missing rows).
- **Batched**, for nodes of at most ``SMALL_NODE_ROWS`` rows (half that
  when ``model.train``'s split helper shares the per-feature scan): it
  looks the node's rows up in the training matrix's rank table (each row's
  position in each feature's presort), and one stable ``argsort`` of those
  ranks puts the in-node rows of every active feature in presort order,
  missing rows last. Prefix sums, gains and argmaxes then run over all the
  features of a chunk of about ``_CHUNK_CELLS`` cells at once, so a node
  costs a few dozen numpy calls instead of that many per feature.

Both paths score candidates with the one gain function, ``_gains``.
"""

from __future__ import annotations

import numpy as np

_NEG_INF = float("-inf")
_NO_SPLIT = (_NEG_INF, -1, float("nan"), False)

# Nodes of at most this many rows take the batched pass when the search is
# serial; model.train halves it while its split helper shares the
# per-feature scan. Per search on a 2-vCPU guest, at 1,696-8,312 TRAIN rows
# and 20 active features, the batched pass beat the serial scan up to
# 1,024-1,280 in-node rows and the shared scan up to 512-768.
SMALL_NODE_ROWS = 1024
# Cells (in-node rows x features) per batched chunk, which bounds each
# batched temporary to a few tens of kilobytes.
_CHUNK_CELLS = 4096


def _gains(gs, hs, g_total, h_total, sub, lam, gamma, min_h, where=None):
    """Gains of the splits whose left children sum to ``gs`` and ``hs``
    (arrays of any one shape): ``-inf`` where a child's hessian is below
    ``min_h``, the gain is NaN, or ``where`` (broadcast) is False."""
    gr = g_total - gs
    hr = h_total - hs
    raw = 0.5 * (gs * gs / (hs + lam) + gr * gr / (hr + lam) - sub) - gamma
    ok = (hs >= min_h) & (hr >= min_h) & ~np.isnan(raw)
    if where is not None:
        ok &= where
    return np.where(ok, raw, _NEG_INF)


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
    batch=None,
):
    """Exact greedy split search over the ``active`` features of a node.

    Returns ``(gain, feature, threshold, default_left)`` of the best split,
    or ``(-inf, -1, nan, False)`` when no candidate exists. Ties resolve to
    the first best feature in ``active`` order, then the lowest threshold,
    and a tied default direction goes left.

    Without ``batch`` the features are scanned one at a time. ``batch =
    (X, ranks, rows)``, the training matrix, its rank table
    (``TrainMatrix.ranks``) and the node's rows, selects the batched pass
    instead: the same result, faster for a node of at most
    ``SMALL_NODE_ROWS`` rows.
    """
    sub = g_total * g_total / (h_total + lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        if batch is None:
            return _scan_features(vals_sorted, sort_rows, offsets, in_node, g, h,
                                  g_total, h_total, active, lam, gamma, min_h, sub)
        return _scan_batched(*batch, g, h, g_total, h_total, active, lam, gamma, min_h, sub)


def _scan_features(vals_sorted, sort_rows, offsets, in_node, g, h, g_total, h_total,
                   active, lam, gamma, min_h, sub):
    # A feature's candidate gains are one array [right | left]: entry k of
    # each half sends the missing rows right or left at threshold k.
    best = _NO_SPLIT
    bounds = offsets.tolist()
    for j in active.tolist():
        start = bounds[j]
        stop = bounds[j + 1]
        o = sort_rows[start:stop]
        keep = in_node.take(o)
        m = np.count_nonzero(keep)
        if m < 2:
            continue
        if m == stop - start:
            v = vals_sorted[start:stop]
            rows = o
        else:
            sel = keep.nonzero()[0]
            v = vals_sorted[start:stop].take(sel)
            rows = o.take(sel)
        pos = (v[:-1] < v[1:]).nonzero()[0]
        p = pos.size
        if p == 0:
            continue
        pg = g.take(rows).cumsum()
        ph = h.take(rows).cumsum()
        gs = np.empty(2 * p)
        hs = np.empty(2 * p)
        pg.take(pos, out=gs[:p])
        ph.take(pos, out=hs[:p])
        np.add(gs[:p], g_total - pg[m - 1], out=gs[p:])
        np.add(hs[:p], h_total - ph[m - 1], out=hs[p:])
        gain = _gains(gs, hs, g_total, h_total, sub, lam, gamma, min_h)
        right = gain[:p]
        left = gain[p:]
        k = int(np.maximum(left, right).argmax())
        default_left = bool(left[k] >= right[k])
        best_k = left[k] if default_left else right[k]
        if best_k > best[0]:
            i = int(pos[k])
            best = (float(best_k), j, float(0.5 * (v[i] + v[i + 1])), default_left)
    return best


def _scan_batched(X, ranks, rows, g, h, g_total, h_total, active, lam, gamma, min_h, sub):
    # Row f of a chunk's (feature, row) cells holds feature feats[f]'s
    # in-node rows in presort order, then its missing rows (rank n, value
    # NaN). A NaN is never above its neighbour, so no threshold lies at or
    # past a missing row, and the prefix sums up to the last present row
    # are the per-feature scan's own.
    r = rows.size
    if r < 2:
        return _NO_SPLIT
    n, d = X.shape
    node_ranks = ranks.take(rows, axis=0).T
    flat_x = X.reshape(-1)
    best = _NO_SPLIT
    step = max(1, _CHUNK_CELLS // r)
    for lo in range(0, active.size, step):
        feats = active[lo:lo + step]
        a = feats.size
        at = np.arange(a)
        ranked = node_ranks.take(feats, axis=0)
        last = (ranked < n).sum(axis=1) - 1
        cells = rows.take(ranked.argsort(axis=1, kind="stable"))
        v = flat_x.take(cells * d + feats[:, None])
        pg = g.take(cells).cumsum(axis=1)
        ph = h.take(cells).cumsum(axis=1)
        gs = np.empty((2, a, r - 1))
        hs = np.empty((2, a, r - 1))
        gs[0] = pg[:, :-1]
        hs[0] = ph[:, :-1]
        np.add(gs[0], (g_total - pg[at, last])[:, None], out=gs[1])
        np.add(hs[0], (h_total - ph[at, last])[:, None], out=hs[1])
        right, left = _gains(gs, hs, g_total, h_total, sub, lam, gamma, min_h,
                             v[:, :-1] < v[:, 1:])
        top = np.maximum(left, right)
        ks = top.argmax(axis=1)
        tops = top[at, ks]
        f = int(tops.argmax())
        if tops[f] > best[0]:
            k = int(ks[f])
            default_left = bool(left[f, k] >= right[f, k])
            threshold = float(0.5 * (v[f, k] + v[f, k + 1]))
            best = (float(tops[f]), int(feats[f]), threshold, default_left)
    return best


def predict_margin_numpy(X, trees, base):
    """``base`` (one number, or one margin per row) plus the leaf weight each
    of ``trees`` gives each row of ``X``, added tree by tree in order.

    Each ``model.Tree`` is walked in its own arrays from its root, node 0.
    """
    n = X.shape[0]
    out = np.full(n, base, dtype=np.float64)
    row_ix = np.arange(n)
    for tree in trees:
        idx = np.zeros(n, dtype=np.int64)
        while True:
            f = tree.feature[idx]
            internal = f >= 0
            if not internal.any():
                break
            x = X[row_ix, np.where(internal, f, 0)]
            go_left = np.where(np.isnan(x), tree.default_left[idx], x < tree.threshold[idx])
            step = np.where(go_left, tree.left[idx], tree.right[idx])
            idx = np.where(internal, step, idx)
        out += tree.weight[idx]
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
