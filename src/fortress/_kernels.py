"""Hot kernels for tree growth and scoring, in two interchangeable backends.

The exact greedy split search and the ensemble margin evaluation dominate
runtime, so both exist twice: a numba ``@njit`` version and a pure-numpy
version. The two are written against the same sequence of floating point
operations (sequential prefix sums, identical expression shapes, no fused
multiply-adds), so they produce bit-identical results; tests assert as much.

The numpy split search scores one feature in a few array operations: it
skips a feature without a value boundary in the node before its prefix
sums, and stacks the two default directions for the missing rows into one
array (the left sums at each threshold, then the same sums plus the missing
rows), so one gain formula, one ``np.where`` and one ``np.maximum`` of the
two halves score every candidate split of the feature.

Backend selection happens once at import: numba is used when importable
unless the environment variable ``FORTRESS_DISABLE_NUMBA`` is set to a
non-empty value other than ``0``, in which case the numpy fallback runs.
"""

from __future__ import annotations

import os

import numpy as np

_NEG_INF = float("-inf")

NUMBA_DISABLED_BY_ENV = os.environ.get("FORTRESS_DISABLE_NUMBA", "") not in ("", "0")

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAS_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(func):
            return func

        return wrap


def _best_split_impl(
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
    # Returns (gain, feature, threshold, default_left) of the best split, or
    # (-inf, -1, nan, False) when no candidate exists. Ties resolve to the
    # lowest feature index, then the lowest threshold, and a tied default
    # direction resolves to left.
    n = g.size
    gv = np.empty(n, dtype=np.float64)
    hv = np.empty(n, dtype=np.float64)
    vv = np.empty(n, dtype=np.float64)
    best_gain = _NEG_INF
    best_feature = np.int64(-1)
    best_threshold = np.nan
    best_default_left = False
    sub = g_total * g_total / (h_total + lam)
    for ai in range(active.size):
        j = active[ai]
        start = offsets[j]
        stop = offsets[j + 1]
        m = 0
        for p in range(start, stop):
            r = sort_rows[p]
            if in_node[r]:
                gv[m] = g[r]
                hv[m] = h[r]
                vv[m] = vals_sorted[p]
                m += 1
        if m < 2:
            continue
        for q in range(1, m):
            gv[q] += gv[q - 1]
            hv[q] += hv[q - 1]
        g_miss = g_total - gv[m - 1]
        h_miss = h_total - hv[m - 1]
        for i in range(m - 1):
            if not (vv[i] < vv[i + 1]):
                continue
            threshold = 0.5 * (vv[i] + vv[i + 1])
            gl = gv[i]
            hl = hv[i]
            gr = g_total - gl
            hr = h_total - hl
            gain_right = _NEG_INF
            if hl >= min_h and hr >= min_h:
                gain_right = (
                    0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - sub) - gamma
                )
            gll = gl + g_miss
            hll = hl + h_miss
            grl = g_total - gll
            hrl = h_total - hll
            gain_left = _NEG_INF
            if hll >= min_h and hrl >= min_h:
                gain_left = (
                    0.5 * (gll * gll / (hll + lam) + grl * grl / (hrl + lam) - sub)
                    - gamma
                )
            if gain_left >= gain_right:
                gain = gain_left
                default_left = True
            else:
                gain = gain_right
                default_left = False
            if gain > best_gain:
                best_gain = gain
                best_feature = j
                best_threshold = threshold
                best_default_left = default_left
    return best_gain, best_feature, best_threshold, best_default_left


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
    """Pure-numpy split search; semantics identical to the numba kernel.

    The gains of a feature's thresholds are one array ``[right | left]``:
    entry ``k`` of each half sends the missing rows right or left at
    threshold ``k``. The winner's direction is read back as
    ``left >= right``, so a tie goes left as in the sequential loop.
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
            v = vals_sorted[start:stop][keep]
            m = v.size
            if m < 2:
                continue
            pos = np.nonzero(v[:-1] < v[1:])[0]
            if pos.size == 0:
                continue
            rows = o[keep]
            pg = np.cumsum(g[rows])
            ph = np.cumsum(h[rows])
            gl = pg[pos]
            hl = ph[pos]
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


def _predict_margin_impl(X, feat, thr, dleft, left, right, wt, roots, base):
    n = X.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        margin = base
        for t in range(roots.size):
            idx = roots[t]
            while feat[idx] >= 0:
                x = X[i, feat[idx]]
                if np.isnan(x):
                    go_left = dleft[idx]
                else:
                    go_left = x < thr[idx]
                if go_left:
                    idx = left[idx]
                else:
                    idx = right[idx]
            margin += wt[idx]
        out[i] = margin
    return out


def predict_margin_numpy(X, feat, thr, dleft, left, right, wt, roots, base):
    """Pure-numpy ensemble margins; semantics identical to the numba kernel."""
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


if HAS_NUMBA:
    best_split_numba = njit(cache=True, error_model="numpy")(_best_split_impl)
    predict_margin_numba = njit(cache=True, error_model="numpy")(_predict_margin_impl)
else:  # pragma: no cover
    best_split_numba = None
    predict_margin_numba = None

USE_NUMBA = HAS_NUMBA and not NUMBA_DISABLED_BY_ENV

if USE_NUMBA:
    best_split = best_split_numba
    predict_margin = predict_margin_numba
else:
    best_split = best_split_numpy
    predict_margin = predict_margin_numpy


def backend_name() -> str:
    """Name of the active kernel backend: ``"numba"`` or ``"numpy"``."""
    return "numba" if USE_NUMBA else "numpy"
