"""Stability and ranking-quality metrics with entity-level uncertainty.

Scores live at the (entity, snapshot) level but entities are the sampling
unit, so every confidence interval here uses an entity-level (cluster)
bootstrap: entities are resampled with replacement and each drawn entity
carries all of its snapshot rows into the resample. One loop,
``_percentile_interval``, draws every resample: attempt ``a`` draws the
indices of ``spawn(seed, a)`` (``mix64(seed, a)``), which makes every
interval reproducible from (data, seed) alone. The loop takes the attempts
in bounded batches from :class:`fortress.rng.BootstrapDraws`, which returns
the same indices bit for bit, and the average-precision bootstraps score a
whole batch as 2-D integer cumulative sums.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from fortress._config import check_number, is_integer
from fortress.rng import BootstrapDraws

MEAN = "mean"
ABS_MEAN_EPS = "abs_mean_eps"
_CV_MODES = (MEAN, ABS_MEAN_EPS)
_CV_EPS = 1e-12
# resamples times the row width a bootstrap batch may hold at once
_BATCH_ELEMENTS = 8192


@dataclass
class ConfidenceInterval:
    """Bootstrap percentile interval around a point estimate.

    ``lo <= point <= hi`` is typical but not guaranteed: the percentile
    bootstrap can (rarely) place the full-sample point outside the interval.
    """

    point: float
    lo: float
    hi: float
    level: float
    resamples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ConfidenceInterval":
        try:
            return cls(
                point=float(doc["point"]),
                lo=float(doc["lo"]),
                hi=float(doc["hi"]),
                level=float(doc["level"]),
                resamples=int(doc["resamples"]),
                seed=int(doc["seed"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed confidence interval document: {exc}") from None


@dataclass
class PairedDelta:
    """Outcome of a paired bootstrap comparison of two models."""

    delta: ConfidenceInterval
    significant_improvement: bool


def cv(values: Sequence[float] | np.ndarray, mode: str = MEAN) -> float:
    """Coefficient of variation of a series: population sigma over a mean.

    ``mode="mean"`` divides by the mean and requires it to be strictly
    positive (appropriate for scores in (0, 1)). ``mode="abs_mean_eps"``
    divides by ``|mean| + 1e-12`` and is defined for any finite series
    (appropriate for raw, possibly negative, feature values).

    Raises:
        ValueError: fewer than 2 values, non-finite values, unknown mode,
            or non-positive mean in ``"mean"`` mode.
    """
    if mode not in _CV_MODES:
        raise ValueError(f"unknown cv mode {mode!r}, expected one of {_CV_MODES}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"cv expects a 1-d series, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"cv needs at least 2 values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cv is undefined for non-finite values")
    mu = float(np.mean(arr))
    sigma = float(np.sqrt(np.mean((arr - mu) ** 2)))
    if mode == MEAN:
        if mu <= 0.0:
            raise ValueError(f"cv mode 'mean' requires a positive mean, got {mu!r}")
        return sigma / mu
    return sigma / (abs(mu) + _CV_EPS)


def _check_binary_labels(labels: np.ndarray) -> np.ndarray:
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-d, got shape {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be binary (0/1)")
    return y


def pr_auc(scores: Sequence[float] | np.ndarray, labels: Sequence[int] | np.ndarray) -> float:
    """Average precision over the precision-recall curve with tie handling.

    Rows are ranked by score descending; rows with exactly equal scores form
    one block that enters the curve atomically. With ``TP_k`` and ``k`` the
    cumulative positives and rows at the end of block ``k``:

        AP = sum over blocks of (R_k - R_{k-1}) * P_k,
        P_k = TP_k / k,  R_k = TP_k / total_positives.

    The result therefore does not depend on the input order of tied rows.

    Raises:
        ValueError: length mismatch, empty input, non-finite scores,
            non-binary labels, or no positive labels.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = _check_binary_labels(labels)
    if s.shape != y.shape:
        raise ValueError(f"scores and labels disagree in shape: {s.shape} vs {y.shape}")
    if s.size == 0:
        raise ValueError("pr_auc is undefined on empty input")
    if not np.all(np.isfinite(s)):
        raise ValueError("pr_auc is undefined for non-finite scores")
    pos = float(np.sum(y))
    if pos == 0.0:
        raise ValueError("pr_auc is undefined without positive labels")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    ends = np.nonzero(np.append(_block_boundaries(s_sorted), True))[0]
    tp = np.cumsum(y_sorted)[ends]
    k = (ends + 1).astype(np.float64)
    d_recall = _increments(tp / pos)
    precision = tp / k
    return float(np.sum(d_recall * precision))


def _increments(recall: np.ndarray) -> np.ndarray:
    """``np.diff(recall, prepend=0.0)`` along the last axis, bit for bit,
    without its concatenate: the first increment is ``recall[..., 0] - 0.0``,
    which is ``recall[..., 0]``."""
    d = np.empty_like(recall)
    d[..., 0] = recall[..., 0]
    np.subtract(recall[..., 1:], recall[..., :-1], out=d[..., 1:])
    return d


def _block_boundaries(s_sorted: np.ndarray) -> np.ndarray:
    """Boolean array marking positions followed by a strictly lower score."""
    return s_sorted[1:] != s_sorted[:-1]


def percentile_nearest_rank(values: Sequence[float] | np.ndarray, p: float) -> float:
    """Nearest-rank percentile: the element at rank ``ceil(p/100 * n)`` of the
    ascending sort (1-indexed). Always returns an element of ``values``.

    Raises:
        ValueError: empty input, non-finite values, or ``p`` outside (0, 100].
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of an empty sequence is undefined")
    if not np.all(np.isfinite(arr)):
        raise ValueError("percentile is undefined for non-finite values")
    check_percentile(p)
    n = arr.size
    rank = math.ceil(p * n / 100.0 - 1e-9)
    rank = min(max(rank, 1), n)
    return float(np.sort(arr, kind="stable")[rank - 1])


def check_percentile(p: float) -> None:
    """Raise ``ValueError`` unless ``p`` is a number in (0, 100]."""
    check_number(p, "percentile p")
    if not (0.0 < p <= 100.0):
        raise ValueError(f"percentile p must be in (0, 100], got {p!r}")


def check_bootstrap_params(b: int, level: float) -> None:
    """Raise ``ValueError`` unless ``b`` is an integer >= 2 and ``level`` a
    number in (0, 1)."""
    if not is_integer(b):
        raise ValueError(f"bootstrap resamples must be an integer, got {b!r}")
    if b < 2:
        raise ValueError(f"bootstrap needs at least 2 resamples, got {b}")
    check_number(level, "level")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level!r}")


def bootstrap_ci(
    statistic: Callable[[np.ndarray], float],
    entities: Sequence | np.ndarray,
    b: int = 1000,
    seed: int = 0,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Entity-level bootstrap percentile interval for an arbitrary statistic.

    ``statistic`` receives an array of entities (here: whatever atomic unit
    the caller resamples, usually entity ids or indices) and must return a
    float, raising ``ValueError`` when undefined on a resample. Undefined
    resamples are redrawn with the next derived seed; after ``10 * b`` total
    attempts the interval itself is declared undefined.

    The point estimate is the statistic on the full entity set; the interval
    is the nearest-rank (1-level)/2 and (1+level)/2 percentiles of the ``b``
    resample values.
    """
    arr = np.asarray(entities)
    if arr.ndim != 1:
        raise ValueError(f"entities must be 1-d, got shape {arr.shape}")
    n = arr.size
    if n < 2:
        raise ValueError(f"bootstrap needs at least 2 entities, got {n}")
    check_bootstrap_params(b, level)
    point = float(statistic(arr))

    def defined_values(draws: np.ndarray) -> np.ndarray:
        values = []
        for idx in draws:
            try:
                values.append(float(statistic(arr[idx])))
            except ValueError:
                continue
        return np.array(values, dtype=np.float64)

    lo, hi = _percentile_interval(defined_values, n, b, seed, level, "bootstrap statistic", n)
    return ConfidenceInterval(point=point, lo=lo, hi=hi, level=level, resamples=b, seed=seed)


def _percentile_interval(
    defined_values: Callable[[np.ndarray], np.ndarray], n: int, b: int, seed: int,
    level: float, what: str, width: int,
) -> tuple[float, float]:
    """Nearest-rank percentile interval of ``b`` bootstrap values.

    Attempt ``a`` draws ``n`` indices in ``[0, n)`` with replacement, the
    indices of ``spawn(seed, a).integers(0, n, size=n)``. Attempts are taken
    in order, in batches of at most ``_BATCH_ELEMENTS // width`` and never
    more than the values still missing: ``defined_values`` receives a batch
    as an int64 array with one row per attempt and returns the values of the
    attempts on which the statistic is defined, in attempt order. Undefined
    attempts are thereby redrawn; after ``10 * b`` attempts the interval is
    declared undefined.
    """
    draws = BootstrapDraws(seed, n, n)
    batch = max(1, _BATCH_ELEMENTS // width)
    limit = 10 * b
    values = np.empty(b, dtype=np.float64)
    got = attempt = 0
    while got < b and attempt < limit:
        count = min(batch, b - got, limit - attempt)
        defined = defined_values(draws.rows(attempt, count))
        values[got : got + defined.size] = defined
        got += defined.size
        attempt += count
    if got < b:
        raise ValueError(f"{what} undefined too often: {got} of {b} resamples after {limit} attempts")
    lo = percentile_nearest_rank(values, (1.0 - level) / 2.0 * 100.0)
    hi = percentile_nearest_rank(values, (1.0 + level) / 2.0 * 100.0)
    return lo, hi


class _WeightedAp:
    """Average precision of entity resamples, scored a batch at a time.

    Sorting happens once; a batch of resamples then only recomputes
    cumulative sums of integer row weights (the draw counts of each row's
    entity), which are exact. Recall, precision and their products are the
    same element-wise float operations as in :func:`pr_auc` on the
    materialized row multiset with tied rows in blocks. The batch's
    contributing terms are compacted once, and each resample sums its own,
    in order, with one ``np.add.reduce`` (what ``np.sum`` runs), so every
    value is bit for bit that of the scalar definition,
    ``tests/oracles.py::reference_weighted_ap``.
    """

    def __init__(self, scores: np.ndarray, y: np.ndarray, entity_of_row: np.ndarray, n_ent: int):
        order = np.argsort(-scores, kind="stable")
        positive = y[order] == 1.0
        self.n_ent = n_ent
        self.entity_sorted = entity_of_row[order]
        self.entity_positive = self.entity_sorted[positive]
        self.ends = np.nonzero(np.append(_block_boundaries(scores[order]), True))[0]
        # the positive rows up to each block end, which index the true
        # positive sums below (column 0 holds the empty sum)
        self.positives_to_end = np.cumsum(positive)[self.ends]

    def ap(self, draws: np.ndarray) -> np.ndarray:
        """Average precision of each row of entity ``draws``; every row must
        draw an entity with a positive row."""
        count = draws.shape[0]
        flat = (draws + (self.n_ent * np.arange(count))[:, None]).ravel()
        drawn = np.bincount(flat, minlength=count * self.n_ent).reshape(count, self.n_ent)
        tp = np.zeros((count, self.entity_positive.size + 1), dtype=np.int64)
        np.cumsum(np.take(drawn, self.entity_positive, axis=1), axis=1, out=tp[:, 1:])
        tp = np.take(tp, self.positives_to_end, axis=1)
        k = np.take(np.cumsum(np.take(drawn, self.entity_sorted, axis=1), axis=1), self.ends, axis=1)
        # the integer sums are exact, and int64 / int64 divides their exact
        # float64 conversions
        d_recall = _increments(tp / tp[:, -1:])
        contributes = d_recall > 0.0
        hit = np.flatnonzero(contributes)
        terms = d_recall.take(hit) * (tp.take(hit) / k.take(hit))
        ends = np.cumsum(np.count_nonzero(contributes, axis=1)).tolist()
        return np.array(
            [np.add.reduce(terms[i:j]) for i, j in zip([0, *ends[:-1]], ends)],
            dtype=np.float64,
        )


def _ap_values(
    statistic: Callable[[np.ndarray], np.ndarray], y: np.ndarray, entity_of_row: np.ndarray,
    n_ent: int,
) -> Callable[[np.ndarray], np.ndarray]:
    """The ``defined_values`` of an average-precision ``statistic`` of entity
    draws for :func:`_percentile_interval`: average precision is undefined
    exactly on the draws without an entity that has a positive row, so only
    the other draws reach ``statistic``."""
    positive = np.zeros(n_ent, dtype=np.bool_)
    positive[entity_of_row[y == 1.0]] = True

    def defined_values(draws: np.ndarray) -> np.ndarray:
        return statistic(draws[positive[draws].any(axis=1)])

    return defined_values


def _entity_bootstrap_input(
    labels: Sequence[int] | np.ndarray, entity_ids: Sequence[str] | np.ndarray, b: int,
    level: float, what: str, bootstrap: str, **scores: Sequence[float] | np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, int]:
    """Checked input of an entity bootstrap over pooled rows: the named
    ``scores`` as float arrays (in keyword order), the 0/1 labels, each row's
    entity index and the number of distinct entities. ``what`` names the
    statistic in the messages on empty or non-finite input, ``bootstrap``
    the procedure."""
    arrays = [np.asarray(s, dtype=np.float64) for s in scores.values()]
    y = _check_binary_labels(labels)
    ents = np.asarray(entity_ids)
    shapes = [a.shape for a in (*arrays, y, ents)]
    if len(set(shapes)) != 1:
        raise ValueError(
            f"{', '.join(scores)}, labels, entity_ids must share one shape, got "
            + ", ".join(map(str, shapes))
        )
    if y.size == 0:
        raise ValueError(f"{what} is undefined on empty input")
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError(f"{what} is undefined for non-finite scores")
    unique_ents, inverse = np.unique(ents, return_inverse=True)
    n_ent = unique_ents.size
    if n_ent < 2:
        raise ValueError(f"{bootstrap} needs at least 2 entities, got {n_ent}")
    check_bootstrap_params(b, level)
    return arrays, y, inverse, n_ent


def paired_delta_significance(
    scores_a: Sequence[float] | np.ndarray,
    scores_b: Sequence[float] | np.ndarray,
    labels: Sequence[int] | np.ndarray,
    entity_ids: Sequence[str] | np.ndarray,
    b: int = 1000,
    seed: int = 0,
    level: float = 0.95,
) -> PairedDelta:
    """Paired entity-bootstrap test of ``pr_auc(B) - pr_auc(A)``.

    Both models are evaluated on the same rows; each bootstrap resample draws
    entities once and applies the identical resample to both models, so the
    interval reflects the paired difference, not two independent errors.
    ``significant_improvement`` is true iff the interval's lower bound is
    strictly positive.

    Identical score arrays skip the weighted average precisions: every
    resample's delta is then exactly ``0.0``, and a resample is undefined
    exactly when it draws no entity with a positive row.
    """
    (sa, sb), y, entity_of_row, n_ent = _entity_bootstrap_input(
        labels, entity_ids, b, level, "paired delta", "paired bootstrap",
        scores_a=scores_a, scores_b=scores_b,
    )
    if np.array_equal(sa, sb):
        ap = pr_auc(sa, y)
        point = ap - ap

        def delta(draws: np.ndarray) -> np.ndarray:
            return np.zeros(draws.shape[0], dtype=np.float64)
    else:
        point = pr_auc(sb, y) - pr_auc(sa, y)
        ap_a = _WeightedAp(sa, y, entity_of_row, n_ent)
        ap_b = _WeightedAp(sb, y, entity_of_row, n_ent)

        def delta(draws: np.ndarray) -> np.ndarray:
            return ap_b.ap(draws) - ap_a.ap(draws)

    lo, hi = _percentile_interval(
        _ap_values(delta, y, entity_of_row, n_ent), n_ent, b, seed, level, "paired bootstrap",
        y.size,
    )
    ci = ConfidenceInterval(point=point, lo=lo, hi=hi, level=level, resamples=b, seed=seed)
    return PairedDelta(delta=ci, significant_improvement=bool(lo > 0.0))


def bootstrap_pr_auc_ci(
    scores: Sequence[float] | np.ndarray,
    labels: Sequence[int] | np.ndarray,
    entity_ids: Sequence[str] | np.ndarray,
    b: int = 1000,
    seed: int = 0,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Entity-bootstrap interval for average precision on pooled rows.

    Semantically identical to calling :func:`bootstrap_ci` with a statistic
    that materializes each resample's rows and reruns :func:`pr_auc`; rows of
    a drawn entity are carried as integer weights instead, which gives the
    same values (up to float summation order) without re-sorting per resample.
    """
    (s,), y, entity_of_row, n_ent = _entity_bootstrap_input(
        labels, entity_ids, b, level, "pr_auc", "bootstrap", scores=scores
    )
    point = pr_auc(s, y)
    helper = _WeightedAp(s, y, entity_of_row, n_ent)
    lo, hi = _percentile_interval(
        _ap_values(helper.ap, y, entity_of_row, n_ent), n_ent, b, seed, level,
        "bootstrap statistic", y.size,
    )
    return ConfidenceInterval(point=point, lo=lo, hi=hi, level=level, resamples=b, seed=seed)


def entity_cvs(
    series: Mapping[str, np.ndarray] | Mapping[str, Sequence[float]],
) -> dict[str, float]:
    """Score CV of every entity with at least 2 scores, in series order."""
    return {e: cv(s) for e, s in series.items() if len(s) >= 2}


def mean_entity_cv(series: Mapping[str, np.ndarray] | Mapping[str, Sequence[float]]) -> float:
    """Mean coefficient of variation over entities with at least 2 scores.

    Raises:
        ValueError: if no entity has 2 or more scores.
    """
    cvs = entity_cvs(series)
    if not cvs:
        raise ValueError("no entity has 2 or more snapshots; mean CV undefined")
    return float(np.mean(list(cvs.values())))
