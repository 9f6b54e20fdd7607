"""Fortress: stability-aware feature pruning for snapshot-scored classifiers.

Fortress trains gradient-boosted tree classifiers on historical snapshots of
entity features, measures how much each entity's score wobbles across those
snapshots, attributes the wobble to individual features, and greedily prunes
volatile features whose removal does not hurt (or provably helps) ranking
quality. The result is a smaller feature set whose scores move less between
refreshes while classification quality is preserved.
"""

from __future__ import annotations

from fortress.data import (
    Label,
    PartitionAssignment,
    Sample,
    SnapshotDataset,
    coverage_stats,
    entity_series,
    latest_snapshot_view,
    parse_csv,
    partition_entities,
    write_csv,
)
from fortress.flipflop import (
    FlipFlopComparison,
    FlipFlopReport,
    flip_flop_rate,
    relative_reduction,
    tau_from_percentile,
)
from fortress.metrics import (
    ConfidenceInterval,
    bootstrap_ci,
    bootstrap_pr_auc_ci,
    cv,
    mean_entity_cv,
    paired_delta_significance,
    percentile_nearest_rank,
    pr_auc,
)
from fortress.model import (
    BoostedModel,
    TrainConfig,
    TrainMatrix,
    deserialize,
    load_model,
    loss_curve,
    mask_from_names,
    save_model,
    serialize,
    train,
)
from fortress.pipeline import (
    EvalConfig,
    EvalReport,
    ExperimentResult,
    FortressResult,
    PipelineConfig,
    PruneIteration,
    PruneTrace,
    evaluate_model,
    experiment_table,
    fortress_run,
)
from fortress.report import render
from fortress.stability import (
    StabilityReport,
    build_stability_report,
    high_cv_entities,
    per_feature_cv,
    prune_candidates,
    score_entity_series,
)
from fortress.synth import PlantedTruth, SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BoostedModel",
    "ConfidenceInterval",
    "EvalConfig",
    "EvalReport",
    "ExperimentResult",
    "FlipFlopComparison",
    "FlipFlopReport",
    "FortressResult",
    "Label",
    "PartitionAssignment",
    "PipelineConfig",
    "PlantedTruth",
    "PruneIteration",
    "PruneTrace",
    "Sample",
    "SnapshotDataset",
    "StabilityReport",
    "SynthConfig",
    "TrainConfig",
    "TrainMatrix",
    "bootstrap_ci",
    "bootstrap_pr_auc_ci",
    "build_stability_report",
    "coverage_stats",
    "cv",
    "deserialize",
    "entity_series",
    "evaluate_model",
    "experiment_table",
    "flip_flop_rate",
    "fortress_run",
    "generate",
    "high_cv_entities",
    "latest_snapshot_view",
    "load_model",
    "loss_curve",
    "mask_from_names",
    "mean_entity_cv",
    "paired_delta_significance",
    "parse_csv",
    "partition_entities",
    "per_feature_cv",
    "percentile_nearest_rank",
    "pr_auc",
    "prune_candidates",
    "relative_reduction",
    "render",
    "save_model",
    "score_entity_series",
    "serialize",
    "tau_from_percentile",
    "train",
    "write_csv",
]
