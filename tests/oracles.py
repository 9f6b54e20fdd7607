"""Independent reference implementations used to cross-check the metrics and
the kernels.

Everything here is written for obviousness, not speed: the average-precision
reference walks the full precision-recall curve threshold by threshold in
O(n^2), and the CV reference leans on the statistics module. The per-entity
references (entity CVs, feature volatility, flip-flops) are the scalar loops
that the entity-block scoring replaced, one ``metrics.cv`` per block. Test
modules compare the package implementations against these on hand cases and
on large randomized batches.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from fortress.metrics import cv
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


def reference_predict_margin(X, trees, base) -> np.ndarray:
    """Ensemble margins as a scalar walk per row and per tree.

    Same arguments and result as ``fortress._kernels.predict_margin_numpy``
    with a scalar ``base``: each row starts at ``base`` and adds, tree by
    tree, the weight of the leaf it reaches from the tree's root, node 0. A
    missing value takes the node's default direction and a present value
    goes left only when it is strictly below the threshold.
    """
    out = np.empty(len(X), dtype=np.float64)
    for i, row in enumerate(X):
        margin = base
        for tree in trees:
            idx = 0
            while tree.feature[idx] >= 0:
                x = row[tree.feature[idx]]
                go_left = tree.default_left[idx] if math.isnan(x) else x < tree.threshold[idx]
                idx = tree.left[idx] if go_left else tree.right[idx]
            margin += tree.weight[idx]
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


def reference_noise_exposure(cfg) -> np.ndarray:
    """``PlantedTruth.noise_exposure`` of ``synth.generate(cfg)``, entity by
    entity: replay the generator's draws in their order and sum, over the
    engagement features, the population variance of each entity's
    disturbances across its snapshots."""
    rng = np.random.default_rng(cfg.seed)
    T = cfg.snapshots
    exposure = np.zeros(cfg.n_entities, dtype=np.float64)
    for e in range(cfg.n_entities):
        rng.random()  # relevance
        rng.integers(0, cfg.n_regions)  # region
        rng.random()  # coverage
        rng.standard_normal(cfg.k_sr)  # semantic-reliability noise
        eps = rng.standard_normal((cfg.k_eng_info, T)) * cfg.sigma_eng
        noise = rng.standard_normal((cfg.k_eng_noise, T))
        if T > 1:
            if cfg.k_eng_info:
                exposure[e] += float(np.sum(np.var(eps, axis=1)))
            if cfg.k_eng_noise:
                exposure[e] += float(np.sum(np.var(noise, axis=1)))
    return exposure


def reference_entity_cvs(series) -> dict:
    """``metrics.entity_cvs`` entity by entity: the scalar ``cv`` of every
    series with at least 2 scores, in series order."""
    return {e: cv(s) for e, s in series.items() if len(s) >= 2}


def reference_per_feature_cv(dataset, entities, feature_names=None) -> tuple:
    """``stability.per_feature_cv`` as one scalar ``cv`` per (entity,
    feature) pair: for each cohort entity in ascending order and each named
    feature, the ``abs_mean_eps`` CV of its present values when there are at
    least 2, then the median per feature (0 without contributors), ranked by
    value descending, contributors first, then schema position."""
    ents = sorted(set(entities))
    names = tuple(feature_names) if feature_names is not None else dataset.schema
    cols = [dataset.schema.index(n) for n in names]
    contributions = [[] for _ in names]
    for e in ents:
        start, stop = dataset.entity_rows(e)
        block = dataset.X[start:stop]
        for slot, j in enumerate(cols):
            values = block[:, j]
            present = values[~np.isnan(values)]
            if present.size >= 2:
                contributions[slot].append(cv(present, mode="abs_mean_eps"))
    aggregated = [(float(np.median(c)) if c else 0.0, not c) for c in contributions]
    order = sorted(range(len(names)), key=lambda i: (-aggregated[i][0], aggregated[i][1], i))
    return tuple((names[i], aggregated[i][0]) for i in order)


def reference_flip_flops(dataset, entities, scores, tau: float) -> dict:
    """Region -> [flipped, total] of the multi-snapshot ``entities``
    (ascending), whose rows of ``dataset`` carry ``scores`` in order, entity
    by entity: an entity is admitted where its score is at least ``tau``,
    flips when that is not constant, and counts in the region of its first
    row."""
    out: dict = {}
    offset = 0
    for e in sorted(entities):
        start, stop = dataset.entity_rows(e)
        series = scores[offset:offset + stop - start]
        offset += stop - start
        if series.size >= 2:
            admitted = series >= tau
            counts = out.setdefault(str(dataset.regions[start]), [0, 0])
            counts[0] += int(admitted.any() and not admitted.all())
            counts[1] += 1
    return dict(sorted(out.items()))
