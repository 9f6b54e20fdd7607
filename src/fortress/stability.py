"""Temporal stability analysis: who wobbles, and which features to blame.

The analysis runs in three steps. First, score every entity's snapshot series
with a trained model and compute the coefficient of variation of each series.
Second, keep the entities at or above a percentile of that CV distribution
(the high-CV cohort). Third, attribute: for each feature, compute the CV of
its raw present values within each cohort entity's series and take the median
across the cohort. Features are ranked by that median descending; the top of
the ranking is the candidate list for pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from fortress._config import is_integer
from fortress.data import SnapshotDataset
from fortress.metrics import ABS_MEAN_EPS, cv, entity_cvs, percentile_nearest_rank
from fortress.model import BoostedModel

AUTO = "auto"


@dataclass
class HighCvCohort:
    """Per-entity score CVs, the selection threshold, and the selected set."""

    per_entity_cv: dict[str, float]
    threshold: float
    selected: tuple[str, ...]


@dataclass
class StabilityReport:
    """Everything the stability step decided, in reportable form."""

    percentile: float
    per_entity_cv: dict[str, float]
    cv_threshold: float
    high_cv_entities: tuple[str, ...]
    feature_cv_ranking: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "kind": "stability_report",
            "percentile": self.percentile,
            "cv_threshold": self.cv_threshold,
            "high_cv_entities": list(self.high_cv_entities),
            "per_entity_cv": {e: self.per_entity_cv[e] for e in sorted(self.per_entity_cv)},
            "feature_cv_ranking": [[name, value] for name, value in self.feature_cv_ranking],
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "StabilityReport":
        try:
            return cls(
                percentile=float(doc["percentile"]),
                per_entity_cv={str(k): float(v) for k, v in doc["per_entity_cv"].items()},
                cv_threshold=float(doc["cv_threshold"]),
                high_cv_entities=tuple(doc["high_cv_entities"]),
                feature_cv_ranking=tuple(
                    (str(n), float(v)) for n, v in doc["feature_cv_ranking"]
                ),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed stability report document: {exc}") from None


def score_entities(
    model: BoostedModel,
    dataset: SnapshotDataset,
    entity_ids: Iterable[str] | None = None,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct entities (all by default) in ascending id order, their
    rows (``dataset.rows_for``) and the model's score of each row; an empty
    selection scores no rows. ``dataset.split_by_entity(entities, scores)``
    gives the per-entity series.

    Raises:
        ValueError: schema mismatch or unknown entity ids.
    """
    model.check_schema(dataset.schema)
    entities = sorted(set(dataset.entities if entity_ids is None else entity_ids))
    rows = dataset.rows_for(entities)
    return entities, rows, model.predict(dataset.X[rows])


def score_entity_series(
    model: BoostedModel,
    dataset: SnapshotDataset,
    entity_ids: Iterable[str] | None = None,
) -> dict[str, np.ndarray]:
    """Score each entity's snapshots, oldest to newest.

    Returns a mapping from entity id to its score series, entities in
    ascending id order. An empty selection returns an empty mapping.

    Raises:
        ValueError: schema mismatch or unknown entity ids.
    """
    entities, _, scores = score_entities(model, dataset, entity_ids)
    return dataset.split_by_entity(entities, scores)


def high_cv_entities(
    series: Mapping[str, np.ndarray] | Mapping[str, Sequence[float]],
    percentile: float = 75.0,
) -> HighCvCohort:
    """Select the entities whose score CV reaches the given percentile.

    Entities with fewer than 2 snapshots carry no stability signal and are
    skipped. The threshold is the nearest-rank percentile of the remaining
    CVs, and the cohort is every entity with ``cv >= threshold`` (so it is
    never empty).

    Raises:
        ValueError: if no entity has 2 or more snapshots.
    """
    cvs = entity_cvs(series)
    if not cvs:
        raise ValueError("no entity has 2 or more snapshots; stability undefined")
    threshold = percentile_nearest_rank(list(cvs.values()), percentile)
    selected = tuple(e for e in sorted(cvs) if cvs[e] >= threshold)
    return HighCvCohort(per_entity_cv=cvs, threshold=threshold, selected=selected)


def per_feature_cv(
    dataset: SnapshotDataset,
    entities: Iterable[str],
    feature_names: Sequence[str] | None = None,
) -> tuple[tuple[str, float], ...]:
    """Rank features by median within-entity volatility over a cohort.

    For each (entity, feature) pair with at least 2 present values in the
    entity's series, compute the CV of those values with the ``abs_mean_eps``
    denominator (raw features may be negative or zero-mean). Aggregate per
    feature with the median over contributing entities; features with no
    contributors get 0 and rank after equal-valued features that do have
    contributors. Order: aggregate descending, then the tie rules above, then
    schema position.

    Raises:
        ValueError: empty cohort or names outside the schema.
    """
    ents = sorted(set(entities))
    if not ents:
        raise ValueError("cannot rank features over an empty entity set")
    names = tuple(feature_names) if feature_names is not None else dataset.schema
    col_of = {name: j for j, name in enumerate(dataset.schema)}
    missing = [n for n in names if n not in col_of]
    if missing:
        raise ValueError(f"feature names not in dataset schema: {missing}")
    cols = [col_of[n] for n in names]
    contributions: list[list[float]] = [[] for _ in names]
    for e in ents:
        start, stop = dataset.entity_rows(e)
        block = dataset.X[start:stop]
        for slot, j in enumerate(cols):
            values = block[:, j]
            present = values[~np.isnan(values)]
            if present.size >= 2:
                contributions[slot].append(cv(present, mode=ABS_MEAN_EPS))
    aggregated = [
        (float(np.median(c)) if c else 0.0, not c) for c in contributions
    ]
    order = sorted(
        range(len(names)),
        key=lambda i: (-aggregated[i][0], aggregated[i][1], i),
    )
    return tuple((names[i], aggregated[i][0]) for i in order)


def check_candidate_count(k: int | str) -> None:
    """Raise ``ValueError`` unless ``k`` is ``"auto"`` or an integer >= 1."""
    if k == AUTO:
        return
    if not is_integer(k):
        raise ValueError(f"candidate count must be {AUTO!r} or an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"candidate count must be >= 1, got {k}")


def prune_candidates(
    ranking: Sequence[tuple[str, float]], k: int | str = AUTO
) -> tuple[str, ...]:
    """Top-k feature names of a volatility ranking.

    ``k="auto"`` takes the top half, rounded up.

    Raises:
        ValueError: empty ranking, k neither ``"auto"`` nor an integer >= 1,
            or k beyond the ranking length.
    """
    if not ranking:
        raise ValueError("cannot pick candidates from an empty ranking")
    check_candidate_count(k)
    k_eff = math.ceil(len(ranking) / 2) if k == AUTO else int(k)
    if k_eff > len(ranking):
        raise ValueError(
            f"candidate count {k_eff} exceeds ranking length {len(ranking)}"
        )
    return tuple(name for name, _ in ranking[:k_eff])


def build_stability_report(
    model: BoostedModel,
    dataset: SnapshotDataset,
    entity_ids: Iterable[str] | None = None,
    percentile: float = 75.0,
) -> StabilityReport:
    """Run the full stability analysis for one model on one entity set."""
    series = score_entity_series(model, dataset, entity_ids)
    cohort = high_cv_entities(series, percentile)
    ranking = per_feature_cv(
        dataset, cohort.selected, feature_names=model.active_features()
    )
    return StabilityReport(
        percentile=percentile,
        per_entity_cv=cohort.per_entity_cv,
        cv_threshold=cohort.threshold,
        high_cv_entities=cohort.selected,
        feature_cv_ranking=ranking,
    )
