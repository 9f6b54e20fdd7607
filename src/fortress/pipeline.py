"""End-to-end runs: greedy stability pruning and the comparison table.

``fortress_run`` is the main entry point. It partitions entities, trains an
all-features baseline on TRAIN, runs the stability analysis on VAL to obtain
a fixed candidate ranking, and then makes one greedy pass over the candidates.
Each candidate is tentatively retrained away and compared against the current
baseline with a paired entity-bootstrap on VAL; acceptance updates the
baseline. Two acceptance gates exist:

* ``strict``: accept only if removing the feature significantly improves
  PR-AUC (the interval's lower bound is strictly positive).
* ``noninferior``: accept if the PR-AUC change is non-inferior (lower bound
  above ``-epsilon``) and the VAL mean entity score CV strictly decreased.

A candidate retrain starts from the current model's trees: every tree before
the first one that splits on the removed feature is taken over unchanged,
and only the remaining rounds are grown. That is exact, because the removed
feature won no split in those trees, but only while ``col_subsample == 1.0``:
the per-round column draw depends on the active feature set, so with column
subsampling each candidate is trained from round 0 (see ``model.train``).

A candidate the current model never splits on would be retrained into the
current model itself (every tree taken over), so it is settled in this
process without a retrain: its VAL scores and CV are the current ones, and
its paired bootstrap compares the current scores with themselves. The other
candidates are evaluated ahead of the one being decided, on the forked
workers of ``_fork.in_order``, the package's one ordered pool: one per CPU
in the process's affinity set (``taskset`` restricts them), at most one per
candidate left to retrain, and none when no such candidate is left. The
gate still commits strictly in candidate order. An acceptance drops the
results computed against the old model, classifies the remaining candidates
again, and restarts from the next candidate, so every artifact is
byte-identical to a serial pass. Where ``_fork.worker_count`` allows no
second process (one CPU, no ``fork``, a forked child or a daemonic process,
other threads running), the pass runs serially in the calling process. The
same rule lets ``model.train`` share each split search with a forked
helper, so a train in this process uses a spare CPU while a candidate
worker, itself a ``_fork.Child``, trains serially.

``experiment_table`` reruns the surrounding comparisons (single-snapshot and
multi-snapshot trainings, full and stable-only feature sets) and evaluates
everything on the same TEST partition.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from fortress import _fork
from fortress._config import Config
from fortress.data import (
    DEFAULT_FRACTIONS,
    DEFAULT_SALT,
    TRAIN,
    VAL,
    TEST,
    Label,
    PartitionAssignment,
    SnapshotDataset,
    check_fractions,
    entities_in_partition,
    latest_snapshot_view,
    partition_entities,
    rows_in_partition,
)
from fortress.metrics import (
    ConfidenceInterval,
    bootstrap_mean_ci,
    bootstrap_pr_auc_ci,
    check_bootstrap_params,
    entity_cvs,
    mean_entity_cv,
    paired_delta_significance,
    pr_auc,
)
from fortress.model import (
    BoostedModel,
    TrainConfig,
    TrainMatrix,
    _reusable_prefix,
    mask_from_names,
    train,
)
from fortress.rng import mix64
from fortress.stability import (
    StabilityReport,
    build_stability_report,
    check_candidate_count,
    prune_candidates,
    score_entities,
)

log = logging.getLogger(__name__)

STRICT = "strict"
NON_INFERIOR = "noninferior"
_MODES = (STRICT, NON_INFERIOR)

SR_PREFIX = "f_sr_"
ENG_PREFIX = "f_eng_"

ROW_SR_ONLY = "sr_only_single_snapshot"
ROW_ALL_SINGLE = "all_features_single_snapshot"
ROW_ALL_MULTI = "all_features_multi_snapshot"
ROW_FORTRESS = "fortress"


@dataclass(frozen=True)
class PipelineConfig(Config):
    """Configuration of a fortress run.

    ``candidates`` is an int or ``"auto"`` (top half of the ranking).
    ``seed`` drives every bootstrap in the run: iteration ``i`` of the greedy
    loop uses ``mix64(seed, i)``, evaluation intervals use further derived
    seeds, so the whole run is reproducible from (data, config).
    """

    section = "pipeline"

    train: TrainConfig = field(default_factory=TrainConfig)
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS
    salt: str = DEFAULT_SALT
    percentile: float = 75.0
    candidates: int | str = "auto"
    mode: str = STRICT
    epsilon: float = 0.002
    bootstrap_b: int = 1000
    level: float = 0.95
    seed: int = 42

    def __post_init__(self) -> None:
        check_bootstrap_params(self.bootstrap_b, self.level)
        self.check_types()
        if not isinstance(self.train, TrainConfig):
            raise ValueError(f"train must be a TrainConfig, got {self.train!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not (0.0 < self.percentile <= 100.0):
            raise ValueError(f"percentile must be in (0, 100], got {self.percentile}")
        check_candidate_count(self.candidates)
        # a JSON list becomes the tuple the annotation promises
        object.__setattr__(self, "fractions", check_fractions(self.fractions))
        self.check_finite()

    @classmethod
    def from_dict(cls, doc: Mapping) -> "PipelineConfig":
        if isinstance(doc, Mapping) and "train" in doc:
            doc = {**doc, "train": TrainConfig.from_dict(doc["train"])}
        return super().from_dict(doc)


@dataclass
class PruneIteration:
    """One greedy step: a candidate, its paired delta, and the verdict."""

    candidate: str
    delta: ConfidenceInterval
    accepted: bool
    features_after: tuple[str, ...]
    val_mean_cv_after: float

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["delta_pr_auc"] = doc.pop("delta")
        return doc


@dataclass
class PruneTrace:
    """Complete record of the greedy search, sufficient to audit every gate."""

    mode: str
    epsilon: float
    percentile: float
    bootstrap_b: int
    seed: int
    initial_features: tuple[str, ...]
    candidates: tuple[str, ...]
    initial_val_pr_auc: float
    initial_val_mean_cv: float
    iterations: list[PruneIteration]
    final_features: tuple[str, ...]

    def to_dict(self) -> dict:
        # shallow on purpose: a deep asdict of the trace made peak RSS creep
        # over repeated prune runs
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(kind="prune_trace", iterations=[it.to_dict() for it in self.iterations])
        return doc


@dataclass
class FortressResult:
    """Everything a fortress run produced."""

    model: BoostedModel
    baseline: BoostedModel
    trace: PruneTrace
    stability: StabilityReport
    partition: PartitionAssignment


@dataclass
class EvalReport:
    """Test-time quality and stability of one model on one entity set."""

    pr_auc: ConfidenceInterval
    mean_entity_cv: ConfidenceInterval | None
    n_rows: int
    n_entities: int
    n_multi_snapshot_entities: int

    def to_dict(self) -> dict:
        return {"kind": "eval_report", **asdict(self)}


@dataclass
class ExperimentRow:
    name: str
    pr_auc: ConfidenceInterval
    mean_entity_cv: ConfidenceInterval | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentResult:
    """The four-way comparison, all rows evaluated on the same TEST rows."""

    rows: list[ExperimentRow]
    models: dict[str, BoostedModel] = field(default_factory=dict, repr=False)
    fortress: FortressResult | None = field(default=None, repr=False)

    def row(self, name: str) -> ExperimentRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise ValueError(f"no experiment row named {name!r}")

    def to_dict(self) -> dict:
        return {
            "kind": "experiment_result",
            "rows": [r.to_dict() for r in self.rows],
        }


def _keeps_every_tree(
    model: BoostedModel, tm: TrainMatrix, config: TrainConfig, mask: np.ndarray
) -> bool:
    """Whether retraining on (tm, config, mask) from ``model`` would take over
    all of its trees (see ``model._reusable_prefix``), which makes the retrain
    ``model`` itself: the same trees and the same scores."""
    return len(_reusable_prefix(model, tm, config, mask)) == config.rounds


def fortress_run(
    dataset: SnapshotDataset,
    config: PipelineConfig | None = None,
    partition: PartitionAssignment | None = None,
) -> FortressResult:
    """Partition, train, analyze stability, and greedily prune features.

    See the module docstring for the procedure. The returned final model is
    the last accepted model of the greedy pass (identical to retraining on
    TRAIN with the final mask, since training is deterministic). A
    pre-computed ``partition`` can be supplied; by default entities are
    partitioned with the configured fractions and salt.

    Raises:
        ValueError: empty partitions, single-class training labels, or
            invalid configuration; and, before anything is trained, a VAL
            partition with fewer than 2 entities, no positive row or no
            entity with 2 or more snapshots.
    """
    cfg = config or PipelineConfig()
    if partition is None:
        partition = partition_entities(dataset, cfg.fractions, cfg.salt)
    return _fortress_core(dataset, partition, cfg)


def _scored_entities(
    dataset: SnapshotDataset, partition: PartitionAssignment, part: str, cv: bool = False
) -> list[str]:
    """The dataset's entities in ``part``, whose scores PR-AUC measures with
    an entity bootstrap: refused when there are fewer than 2 or none of
    their rows is positive, and, with ``cv``, when none of them has the 2
    or more snapshots a score CV needs."""
    entities = entities_in_partition(dataset, partition, part)
    if not entities:
        raise ValueError(f"{part} partition is empty")
    rows = dataset.rows_for(entities)
    counts = f"({rows.size} rows, {len(entities)} entities)"
    if len(entities) < 2:
        raise ValueError(
            f"{part} partition has too few entities {counts}; "
            f"the entity bootstrap needs at least 2"
        )
    if not np.any(dataset.labels[rows] != Label.BAD):
        raise ValueError(
            f"{part} partition has no positive row {counts}; "
            f"pr_auc is undefined without positive labels"
        )
    if cv and not any(stop - start >= 2 for start, stop in map(dataset.index.get, entities)):
        raise ValueError(
            f"{part} partition has no entity with 2 or more snapshots {counts}; "
            f"the entity score CV is undefined"
        )
    return entities


def _fortress_core(
    dataset: SnapshotDataset, partition: PartitionAssignment, cfg: PipelineConfig
) -> FortressResult:
    train_rows = rows_in_partition(dataset, partition, TRAIN)
    if train_rows.size == 0:
        raise ValueError("TRAIN partition is empty")
    val_entities = _scored_entities(dataset, partition, VAL, cv=True)
    y_all = dataset.binary_labels()
    tm = TrainMatrix(dataset.X[train_rows], y_all[train_rows])
    log.info("training baseline on %d TRAIN rows, %d features", tm.n_rows, tm.n_features)
    baseline = train(tm, config=cfg.train, schema=dataset.schema)

    stability = build_stability_report(
        baseline, dataset, val_entities, percentile=cfg.percentile
    )
    candidates = prune_candidates(stability.feature_cv_ranking, cfg.candidates)

    val_rows = dataset.rows_for(val_entities)
    X_val = dataset.X[val_rows]
    y_val = y_all[val_rows]
    ents_val = dataset.entity_ids[val_rows]

    cur_model = baseline
    cur_scores = baseline.predict(X_val)
    cur_cv = mean_entity_cv(dataset.split_by_entity(val_entities, cur_scores))
    cur_mask = baseline.mask.copy()
    initial_ap = pr_auc(cur_scores, y_val)
    initial_cv = cur_cv
    col_of = {name: j for j, name in enumerate(dataset.schema)}

    def without(mask: np.ndarray, i: int) -> np.ndarray:
        out = mask.copy()
        out[col_of[candidates[i]]] = False
        return out

    def compare(scores: np.ndarray, scores2: np.ndarray, i: int):
        return paired_delta_significance(
            scores,
            scores2,
            y_val,
            ents_val,
            b=cfg.bootstrap_b,
            seed=mix64(cfg.seed, i),
            level=cfg.level,
        )

    def evaluate(model: BoostedModel, scores: np.ndarray, mask: np.ndarray, i: int):
        """Candidate ``i`` against the state (model, scores, mask): retrain
        without it, score VAL, and compare."""
        tentative = train(
            tm, config=cfg.train, mask=without(mask, i), schema=dataset.schema,
            warm_start=model,
        )
        scores2 = tentative.predict(X_val)
        outcome = compare(scores, scores2, i)
        cv2 = mean_entity_cv(dataset.split_by_entity(val_entities, scores2))
        return outcome, cv2, scores2, tentative.trees, tentative.rounds_reused

    def worker_phrase(i: int) -> str:
        return f"the worker retraining candidate {candidates[i]}"

    iterations: list[PruneIteration] = []
    start = 0
    while start < len(candidates):
        remaining = range(start, len(candidates))
        unchanged = {
            i for i in remaining
            if _keeps_every_tree(cur_model, tm, cfg.train, without(cur_mask, i))
        }
        step = functools.partial(evaluate, cur_model, cur_scores, cur_mask)
        retrain = [i for i in remaining if i not in unchanged]
        with _fork.in_order(step, retrain, worker_phrase) as retrained:
            for i in remaining:
                if i in unchanged:
                    # what evaluate(i) returns, without retraining or scoring
                    outcome = compare(cur_scores, cur_scores, i)
                    cv2, scores2, trees, reused = (
                        cur_cv, cur_scores, cur_model.trees, cfg.train.rounds
                    )
                else:
                    outcome, cv2, scores2, trees, reused = next(retrained)
                if cfg.mode == STRICT:
                    accepted = outcome.significant_improvement
                else:
                    accepted = (outcome.delta.lo > -cfg.epsilon) and (cv2 < cur_cv)
                if accepted:
                    cur_mask = without(cur_mask, i)
                    cur_model = cur_model.with_trees(cur_mask, trees, reused)
                    cur_scores, cur_cv = scores2, cv2
                iterations.append(
                    PruneIteration(
                        candidate=candidates[i],
                        delta=outcome.delta,
                        accepted=accepted,
                        features_after=tuple(
                            n for n, m in zip(dataset.schema, cur_mask) if m
                        ),
                        val_mean_cv_after=cur_cv,
                    )
                )
                log.info(
                    "prune %d/%d %s: rounds reused=%d trained=%d delta=[%.5f, %.5f] "
                    "candidate_cv=%.4f %s",
                    i + 1, len(candidates), candidates[i], reused, len(trees) - reused,
                    outcome.delta.lo, outcome.delta.hi, cv2,
                    "ACCEPT" if accepted else "reject",
                )
                if accepted:
                    break  # later results were computed against the old state
        start = i + 1

    trace = PruneTrace(
        mode=cfg.mode,
        epsilon=cfg.epsilon,
        percentile=cfg.percentile,
        bootstrap_b=cfg.bootstrap_b,
        seed=cfg.seed,
        initial_features=tuple(dataset.schema),
        candidates=candidates,
        initial_val_pr_auc=initial_ap,
        initial_val_mean_cv=initial_cv,
        iterations=iterations,
        final_features=tuple(n for n, m in zip(dataset.schema, cur_mask) if m),
    )
    return FortressResult(
        model=cur_model,
        baseline=baseline,
        trace=trace,
        stability=stability,
        partition=partition,
    )


@dataclass(frozen=True)
class EvalConfig(Config):
    """The bootstrap parameters of :func:`evaluate_model`."""

    section = "eval"

    bootstrap_b: int = 1000
    level: float = 0.95

    def __post_init__(self) -> None:
        # checks both fields' types and ranges
        check_bootstrap_params(self.bootstrap_b, self.level)


def evaluate_model(
    model: BoostedModel,
    dataset: SnapshotDataset,
    entity_ids: Sequence[str],
    b: int = 1000,
    seed: int = 0,
    level: float = 0.95,
) -> EvalReport:
    """Pooled-row PR-AUC and mean entity score CV with entity-bootstrap CIs.

    ``mean_entity_cv`` is None when fewer than two selected entities have 2
    or more snapshots: stability is undefined on single-snapshot data, and
    the entity bootstrap of the mean CV needs at least two entity CVs.

    Raises:
        ValueError: a model schema that differs from the dataset's, an empty
            entity set, or bad bootstrap parameters.
    """
    entities, rows, scores = score_entities(model, dataset, entity_ids)
    if not entities:
        raise ValueError("cannot evaluate on an empty entity set")
    y = dataset.binary_labels()[rows]
    ents_rows = dataset.entity_ids[rows]

    ap_ci = bootstrap_pr_auc_ci(
        scores, y, ents_rows, b=b, seed=mix64(seed, 1), level=level
    )

    cvs = entity_cvs(dataset.split_by_entity(entities, scores))
    cv_values = np.array(list(cvs.values()), dtype=np.float64)
    if cv_values.size >= 2:
        cv_ci = bootstrap_mean_ci(cv_values, b=b, seed=mix64(seed, 2), level=level)
    else:
        cv_ci = None
    return EvalReport(
        pr_auc=ap_ci,
        mean_entity_cv=cv_ci,
        n_rows=int(rows.size),
        n_entities=len(entities),
        n_multi_snapshot_entities=int(cv_values.size),
    )


def feature_groups(schema: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a schema into (semantic, engagement) groups by name prefix.

    Raises:
        ValueError: if any feature matches neither group prefix.
    """
    sr = tuple(n for n in schema if n.startswith(SR_PREFIX))
    eng = tuple(n for n in schema if n.startswith(ENG_PREFIX))
    untagged = [n for n in schema if n not in set(sr) | set(eng)]
    if untagged:
        raise ValueError(
            f"features without a group tag ({SR_PREFIX}* or {ENG_PREFIX}*): {untagged}"
        )
    return sr, eng


def experiment_table(
    dataset: SnapshotDataset, config: PipelineConfig | None = None
) -> ExperimentResult:
    """Build the four-row comparison table on a shared TEST partition.

    Rows: stable features only on the latest snapshot, all features on the
    latest snapshot, all features on all snapshots, and the fortress-pruned
    model. Evaluation always happens on the full multi-snapshot TEST rows.

    Raises:
        ValueError: as :func:`fortress_run`, and before anything is trained
            for a TEST partition with fewer than 2 entities or no positive
            row.
    """
    cfg = config or PipelineConfig()
    sr, _ = feature_groups(dataset.schema)
    if not sr:
        raise ValueError(f"experiment requires at least one {SR_PREFIX}* feature")
    partition = partition_entities(dataset, cfg.fractions, cfg.salt)
    _scored_entities(dataset, partition, VAL, cv=True)  # before any train; the core rechecks it
    test_entities = _scored_entities(dataset, partition, TEST)

    latest = latest_snapshot_view(dataset)
    y_latest = latest.binary_labels()
    latest_train_rows = rows_in_partition(latest, partition, TRAIN)
    if latest_train_rows.size == 0:
        raise ValueError("TRAIN partition is empty in the latest-snapshot view")
    tm_single = TrainMatrix(latest.X[latest_train_rows], y_latest[latest_train_rows])

    sr_mask = mask_from_names(dataset.schema, sr)
    log.info("experiment: training single-snapshot models on %d rows", tm_single.n_rows)
    m_sr = train(tm_single, config=cfg.train, mask=sr_mask, schema=dataset.schema)
    m_single = train(tm_single, config=cfg.train, schema=dataset.schema)

    core = _fortress_core(dataset, partition, cfg)
    m_multi = core.baseline
    m_fortress = core.model

    named = (
        (ROW_SR_ONLY, m_sr),
        (ROW_ALL_SINGLE, m_single),
        (ROW_ALL_MULTI, m_multi),
        (ROW_FORTRESS, m_fortress),
    )
    rows = []
    models: dict[str, BoostedModel] = {}
    for k, (name, model) in enumerate(named):
        report = evaluate_model(
            model,
            dataset,
            test_entities,
            b=cfg.bootstrap_b,
            seed=mix64(cfg.seed, 1000 + k),
            level=cfg.level,
        )
        rows.append(
            ExperimentRow(
                name=name, pr_auc=report.pr_auc, mean_entity_cv=report.mean_entity_cv
            )
        )
        models[name] = model
        log.info(
            "experiment row %s: pr_auc=%.4f cv=%s",
            name,
            report.pr_auc.point,
            f"{report.mean_entity_cv.point:.4f}" if report.mean_entity_cv else "n/a",
        )
    return ExperimentResult(rows=rows, models=models, fortress=core)


__all__ = [
    "EvalConfig",
    "EvalReport",
    "ExperimentResult",
    "ExperimentRow",
    "FortressResult",
    "NON_INFERIOR",
    "PipelineConfig",
    "PruneIteration",
    "PruneTrace",
    "ROW_ALL_MULTI",
    "ROW_ALL_SINGLE",
    "ROW_FORTRESS",
    "ROW_SR_ONLY",
    "STRICT",
    "evaluate_model",
    "experiment_table",
    "feature_groups",
    "fortress_run",
]
