"""Independent reference implementations used to cross-check the metrics and
the kernels.

Everything here is written for obviousness, not speed: the average-precision
reference walks the full precision-recall curve threshold by threshold in
O(n^2), and the CV reference leans on the statistics module. Test modules
compare the package implementations against these on hand cases and on large
randomized batches.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from fortress.rng import spawn


def reference_average_precision(scores, labels) -> float:
    """Average precision by an explicit threshold walk of the PR curve.

    At every distinct score value, taken descending, predict positive for
    rows scoring at or above it; AP accumulates precision weighted by the
    recall gained at that threshold. Tied rows enter together because a
    threshold either keeps or drops all of them.
    """
    s = [float(v) for v in scores]
    y = [float(v) for v in labels]
    total_pos = sum(y)
    if total_pos == 0:
        raise ValueError("no positives")
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(s), reverse=True):
        kept = [i for i, v in enumerate(s) if v >= t]
        tp = sum(y[i] for i in kept)
        precision = tp / len(kept)
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def reference_cv(values, mean_abs_eps: bool = False) -> float:
    """Population standard deviation over the mean, via the statistics module."""
    data = [float(v) for v in values]
    sigma = statistics.pstdev(data)
    mu = statistics.fmean(data)
    if mean_abs_eps:
        return sigma / (abs(mu) + 1e-12)
    return sigma / mu


def reference_percentile_nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile: 1-indexed rank ceil(p/100 * n) of the sort."""
    data = sorted(float(v) for v in values)
    rank = math.ceil(p / 100.0 * len(data) - 1e-9)
    return data[max(rank, 1) - 1]


def random_ap_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random scored instance (n <= 50) with heavy score ties and >=1 positive."""
    n = int(rng.integers(1, 51))
    if rng.random() < 0.5:
        # few distinct values -> many exact ties
        pool = rng.random(int(rng.integers(1, 6)))
        scores = rng.choice(pool, size=n)
    else:
        scores = rng.random(n)
    labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.float64)
    if labels.sum() == 0:
        labels[int(rng.integers(0, n))] = 1.0
    return scores, labels


def reference_best_split(
    vals_sorted, sort_rows, offsets, in_node, g, h, g_total, h_total, active, lam, gamma,
    min_h,
):
    """Exact greedy split search as one sequential loop per feature.

    Same arguments and result as ``fortress._kernels.best_split_numpy``:
    ``(gain, feature, threshold, default_left)`` of the best split, or
    ``(-inf, -1, nan, False)`` when the node has no candidate. Prefix sums
    run in presort order; each threshold between two distinct present values
    scores both directions for the missing rows, a tied direction goes left,
    and a tied gain keeps the earlier feature and threshold.
    """
    best_gain = float("-inf")
    best_feature = -1
    best_threshold = float("nan")
    best_default_left = False
    sub = g_total * g_total / (h_total + lam)
    for j in active:
        gv, hv, vv = [], [], []
        for p in range(offsets[j], offsets[j + 1]):
            r = sort_rows[p]
            if in_node[r]:
                gv.append(g[r])
                hv.append(h[r])
                vv.append(vals_sorted[p])
        m = len(vv)
        if m < 2:
            continue
        for q in range(1, m):
            gv[q] = gv[q] + gv[q - 1]
            hv[q] = hv[q] + hv[q - 1]
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
            gain_right = float("-inf")
            if hl >= min_h and hr >= min_h:
                gain_right = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - sub) - gamma
            gll = gl + g_miss
            hll = hl + h_miss
            grl = g_total - gll
            hrl = h_total - hll
            gain_left = float("-inf")
            if hll >= min_h and hrl >= min_h:
                gain_left = (
                    0.5 * (gll * gll / (hll + lam) + grl * grl / (hrl + lam) - sub) - gamma
                )
            if gain_left >= gain_right:
                gain = gain_left
                default_left = True
            else:
                gain = gain_right
                default_left = False
            if gain > best_gain:
                best_gain = float(gain)
                best_feature = int(j)
                best_threshold = float(threshold)
                best_default_left = bool(default_left)
    return best_gain, best_feature, best_threshold, best_default_left


def reference_predict_margin(X, feat, thr, dleft, left, right, wt, roots, base) -> np.ndarray:
    """Ensemble margins as a scalar walk per row and per tree.

    Same arguments and result as ``fortress._kernels.predict_margin_numpy``:
    each row starts at ``base`` and adds, tree by tree, the weight of the
    leaf it reaches. A missing value takes the node's default direction and a
    present value goes left only when it is strictly below the threshold.
    """
    out = np.empty(len(X), dtype=np.float64)
    for i, row in enumerate(X):
        margin = base
        for root in roots:
            idx = root
            while feat[idx] >= 0:
                x = row[feat[idx]]
                go_left = dleft[idx] if math.isnan(x) else x < thr[idx]
                idx = left[idx] if go_left else right[idx]
            margin += wt[idx]
        out[i] = margin
    return out


def reference_bootstrap_rows(seed: int, start: int, count: int, bound: int, size: int) -> np.ndarray:
    """Bootstrap rows of attempts ``start, ..., start + count - 1`` by their
    definition: one fresh generator ``spawn(seed, a)`` per attempt."""
    return np.stack(
        [spawn(seed, a).integers(0, bound, size=size) for a in range(start, start + count)]
    )


def reference_weighted_ap(scores, y, row_weights) -> float:
    """Average precision of the row multiset in which row ``r`` appears
    ``row_weights[r]`` times, one resample at a time in float64.

    Rows are sorted once by score, descending and stable; cumulative weighted
    true positives and row counts are read at the end of each block of tied
    scores, and the precision of every block that gains recall is weighted by
    that gain and summed with ``np.sum``. Raises ``ValueError`` when no
    weighted row is positive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    ends = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    w = np.asarray(row_weights, dtype=np.float64)[order]
    tp = np.cumsum(w * y[order])[ends]
    k = np.cumsum(w)[ends]
    pos = tp[-1]
    if pos == 0.0:
        raise ValueError("no positive rows in resample")
    d_recall = np.diff(tp / pos, prepend=0.0)
    contributes = d_recall > 0.0
    return float(np.sum(d_recall[contributes] * (tp[contributes] / k[contributes])))
