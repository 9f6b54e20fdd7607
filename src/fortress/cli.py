"""Command-line interface.

Subcommands mirror the library pipeline::

    fortress gen        --out data.csv                   synthetic benchmark
    fortress split      --data data.csv --out part.json  entity partition
    fortress train      --data data.csv --out model.json one boosted model
    fortress stability  --data ... --model ...           instability analysis
    fortress prune      --data data.csv --out model.json greedy fortress run
    fortress eval       --data ... --model ...           PR-AUC + CV report
    fortress flipflop   --data ... --model ...           decision churn
    fortress experiment --data data.csv --out table.json four-way comparison
    fortress report     artifact.json                    render any artifact

Conventions shared by all subcommands:

* Exit codes: 0 success, 1 validation error, 2 I/O error or a dead worker
  process.
* ``--data`` is read with ``data.read_dataset``: the first read of a regular
  file writes the parsed dataset next to it as ``<data>.fortress-cache``,
  which later commands load instead of parsing while the file's sha256 is
  unchanged. Deleting the sidecar is always safe.
* ``--config`` points at a run-config JSON with optional sections ``seed``,
  ``synth``, ``train``, ``pipeline``, ``eval``; unknown sections or fields
  are errors.
* Seed precedence: ``--seed`` flag, then the config ``seed``, then the
  ``FORTRESS_SEED`` environment variable, then 42. Sections may pin their
  own ``seed`` to override the run seed for that component only.
* Commands that consume a seed write the fully-resolved configuration next
  to their output as ``<out>.config.json``; artifacts contain no timestamps,
  so a rerun with equal inputs is byte-identical.
* ``--partition FILE`` loads a partition, else ``--part`` picks a split made
  from ``--salt`` and ``--fractions``; with neither, or with ``--part all``,
  every row is used. Both split flags are refused where no split is made.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from fortress._config import is_integer
from fortress.data import (
    PartitionAssignment,
    SnapshotDataset,
    check_fractions,
    partition_entities,
    read_dataset,
    write_csv,
)
from fortress.flipflop import check_tau, flip_flop_rate, relative_reduction, tau_from_percentile
from fortress.metrics import check_percentile
from fortress.model import (
    TrainConfig,
    TrainMatrix,
    dumps_canonical,
    load_json,
    load_model,
    mask_from_names,
    save_model,
    train,
)
from fortress.pipeline import (
    NON_INFERIOR,
    STRICT,
    EvalConfig,
    PipelineConfig,
    evaluate_model,
    experiment_table,
    fortress_run,
)
from fortress.report import render
from fortress.stability import build_stability_report
from fortress.synth import SynthConfig, generate

log = logging.getLogger(__name__)

DEFAULT_FRACTIONS = (0.70, 0.15, 0.15)
DEFAULT_SALT = "fortress"

_RUN_CONFIG_SECTIONS = {"seed", "synth", "train", "pipeline", "eval"}


# ---------------------------------------------------------------------------
# run-config handling


def _read_json_file(path: str | Path) -> dict:
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def _write_json(path: str | Path, doc: dict) -> None:
    Path(path).write_text(dumps_canonical(doc), encoding="utf-8")


def _write_sidecar(out: str | Path, doc: dict) -> None:
    _write_json(str(out) + ".config.json", doc)


def load_run_config(path: str | Path | None) -> dict:
    """Load and validate a run-config JSON; ``None`` yields an empty config."""
    if path is None:
        return {}
    doc = _read_json_file(path)
    unknown = set(doc) - _RUN_CONFIG_SECTIONS
    if unknown:
        raise ValueError(
            f"{path}: unknown run config sections {sorted(unknown)}; "
            f"expected only {sorted(_RUN_CONFIG_SECTIONS)}"
        )
    bad = sorted(k for k in set(doc) - {"seed"} if not isinstance(doc[k], (dict, type(None))))
    if bad:
        raise ValueError(f"{path}: run config sections {bad} must be JSON objects")
    return doc


def resolve_seed(flag_seed: int | None, config: dict) -> int:
    """Seed precedence: flag, config ``seed``, ``FORTRESS_SEED``, then 42."""
    if flag_seed is not None:
        return int(flag_seed)
    if "seed" in config:
        seed = config["seed"]
        if not is_integer(seed):
            raise ValueError(f"run config 'seed' must be an integer, got {seed!r}")
        return seed
    env = os.environ.get("FORTRESS_SEED", "")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"FORTRESS_SEED must be an integer, got {env!r}"
            ) from None
    return 42


def _synth_config(config: dict, seed: int) -> SynthConfig:
    section = dict(config.get("synth") or {})
    section.setdefault("seed", seed)
    return SynthConfig.from_dict(section)


def _train_config(config: dict, seed: int) -> TrainConfig:
    section = dict(config.get("train") or {})
    section.setdefault("seed", seed)
    return TrainConfig.from_dict(section)


def _pipeline_config(config: dict, seed: int, args: argparse.Namespace) -> PipelineConfig:
    section = dict(config.get("pipeline") or {})
    if "train" in section:
        raise ValueError(
            "training settings belong in the top-level 'train' section, "
            "not inside 'pipeline'"
        )
    section.setdefault("seed", seed)
    cfg = PipelineConfig.from_dict(section)
    overrides: dict = {"train": _train_config(config, seed)}
    for name in ("mode", "percentile", "bootstrap_b", "salt"):
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    if getattr(args, "fractions", None) is not None:
        overrides["fractions"] = _parse_fractions(args.fractions)
    return dataclasses.replace(cfg, **overrides)


def _eval_config(config: dict, args: argparse.Namespace) -> EvalConfig:
    section = dict(config.get("eval") or {})
    if args.bootstrap_b is not None:
        section["bootstrap_b"] = args.bootstrap_b
    return EvalConfig.from_dict(section)


def _fractions(args: argparse.Namespace) -> tuple[float, float, float]:
    """The checked ``--fractions``, or the default ones."""
    if not getattr(args, "fractions", None):
        return DEFAULT_FRACTIONS
    return check_fractions(_parse_fractions(args.fractions))


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(
            f"fractions must be three comma-separated numbers, got {text!r}"
        )
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise ValueError(
            f"fractions must be three comma-separated numbers, got {text!r}"
        ) from None
    return (a, b, c)


# ---------------------------------------------------------------------------
# partition scoping


def _load_partition(path: str | Path) -> PartitionAssignment:
    return PartitionAssignment.from_dict(_read_json_file(path))


@dataclasses.dataclass(frozen=True)
class _Scope:
    """The working scope of --partition/--part/--salt/--fractions, resolved
    before any data is read. ``part`` ``"all"`` means the whole dataset;
    otherwise the partition is the one loaded from ``--partition``, or is
    computed from the dataset with ``fractions`` and ``salt``."""

    part: str
    partition: PartitionAssignment | None = None
    fractions: tuple[float, float, float] | None = None
    salt: str = DEFAULT_SALT

    def resolve(self, dataset: SnapshotDataset) -> PartitionAssignment | None:
        if self.fractions is None:
            return self.partition
        return partition_entities(dataset, self.fractions, self.salt)


def _refuse_split_flags(args: argparse.Namespace, why: str) -> None:
    """Refuse ``--salt`` and ``--fractions`` where no split is made from them."""
    for flag in ("--salt", "--fractions"):
        if getattr(args, flag[2:], None):
            raise ValueError(f"{flag} {why}")


def _scope(args: argparse.Namespace, default_part: str) -> _Scope:
    part = getattr(args, "part", None)
    if getattr(args, "partition", None):
        if part == "all":
            raise ValueError("--part all cannot be combined with --partition")
        _refuse_split_flags(args, "cannot be combined with --partition")
        # flag values are lowercase; partition names are canonical uppercase
        return _Scope((part or default_part).upper(), partition=_load_partition(args.partition))
    if part is None or part == "all":
        _refuse_split_flags(args, "needs --part train, val or test")
        return _Scope("all")
    salt = getattr(args, "salt", None) or DEFAULT_SALT
    return _Scope(part.upper(), fractions=_fractions(args), salt=salt)


def _select_entities(
    dataset: SnapshotDataset, partition: PartitionAssignment | None, part: str
) -> list[str]:
    if partition is None:
        return sorted(dataset.entities)
    entities = sorted(set(partition.entities_in(part)) & set(dataset.entities))
    if not entities:
        raise ValueError(f"no dataset entity falls in partition {part!r}")
    return entities


def _select_rows(
    dataset: SnapshotDataset, partition: PartitionAssignment | None, part: str
) -> np.ndarray:
    if partition is None:
        return np.arange(dataset.n_rows, dtype=np.int64)
    return dataset.rows_for(_select_entities(dataset, partition, part))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args: argparse.Namespace) -> None:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    cfg = _synth_config(config, seed)
    dataset, truth = generate(cfg)
    write_csv(dataset, args.out)
    _write_sidecar(args.out, {"kind": "run_config", "seed": seed, "synth": cfg.to_dict()})
    if args.truth:
        _write_json(
            args.truth,
            {
                "kind": "planted_truth",
                "entity_ids": list(truth.entity_ids),
                "relevance": [float(x) for x in truth.relevance],
                "labels": list(truth.labels),
                "regions": list(truth.regions),
                "sr_covered": [bool(x) for x in truth.sr_covered],
                "noise_exposure": [float(x) for x in truth.noise_exposure],
                "roles": dict(truth.roles),
            },
        )
    log.info("wrote %d rows (%d entities) to %s", dataset.n_rows, len(dataset.entities), args.out)


def _cmd_split(args: argparse.Namespace) -> None:
    fractions = _fractions(args)
    dataset = read_dataset(args.data)
    partition = partition_entities(dataset, fractions, args.salt or DEFAULT_SALT)
    _write_json(args.out, partition.to_dict())
    log.info("partition counts: %s", partition.counts())


def _cmd_train(args: argparse.Namespace) -> None:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    cfg = _train_config(config, seed)
    scope = _scope(args, default_part="train")
    dataset = read_dataset(args.data)
    rows = _select_rows(dataset, scope.resolve(dataset), scope.part)
    if rows.size == 0:
        raise ValueError("no rows selected for training")
    mask = None
    if args.mask:
        names = [n for n in args.mask.split(",") if n]
        if not names:
            raise ValueError("--mask must name at least one feature")
        mask = mask_from_names(dataset.schema, names)
    tm = TrainMatrix(dataset.X[rows], dataset.binary_labels()[rows])
    model = train(tm, config=cfg, mask=mask, schema=dataset.schema)
    save_model(model, args.out)
    _write_sidecar(args.out, {"kind": "run_config", "seed": seed, "train": cfg.to_dict()})
    log.info("trained on %d rows (%s scope); model -> %s", rows.size, scope.part, args.out)


def _cmd_stability(args: argparse.Namespace) -> None:
    check_percentile(args.percentile)
    scope = _scope(args, default_part="val")
    dataset = read_dataset(args.data)
    model = load_model(args.model)
    entities = _select_entities(dataset, scope.resolve(dataset), scope.part)
    report = build_stability_report(model, dataset, entities, percentile=args.percentile)
    _write_json(args.out, report.to_dict())
    log.info(
        "stability on %d entities (%s scope): threshold %.4f, %d high-CV",
        len(entities), scope.part, report.cv_threshold, len(report.high_cv_entities),
    )


def _cmd_prune(args: argparse.Namespace) -> None:
    if args.partition:
        _refuse_split_flags(args, "cannot be combined with --partition")
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    cfg = _pipeline_config(config, seed, args)
    dataset = read_dataset(args.data)
    partition = _load_partition(args.partition) if args.partition else None
    result = fortress_run(dataset, cfg, partition=partition)
    save_model(result.model, args.out)
    if args.trace:
        _write_json(args.trace, result.trace.to_dict())
    _write_sidecar(args.out, {"kind": "run_config", "seed": seed, "pipeline": cfg.to_dict()})
    kept = len(result.trace.final_features)
    total = len(result.trace.initial_features)
    log.info("pruned %d of %d features; model -> %s", total - kept, total, args.out)


def _cmd_eval(args: argparse.Namespace) -> None:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    cfg = _eval_config(config, args)
    scope = _scope(args, default_part="test")
    dataset = read_dataset(args.data)
    model = load_model(args.model)
    entities = _select_entities(dataset, scope.resolve(dataset), scope.part)
    report = evaluate_model(
        model, dataset, entities, b=cfg.bootstrap_b, seed=seed, level=cfg.level
    )
    _write_json(args.out, report.to_dict())
    _write_sidecar(args.out, {"kind": "run_config", "seed": seed, "eval": cfg.to_dict()})
    log.info(
        "eval on %d entities (%s scope): pr_auc=%.4f", len(entities), scope.part,
        report.pr_auc.point,
    )


def _cmd_flipflop(args: argparse.Namespace) -> None:
    if args.tau is not None:
        check_tau(args.tau)
    if args.tau_percentile is not None:
        check_percentile(args.tau_percentile)
    scope = _scope(args, default_part="test")
    dataset = read_dataset(args.data)
    model = load_model(args.model)
    base = load_model(args.base_model) if args.base_model else None
    entities = _select_entities(dataset, scope.resolve(dataset), scope.part)
    if args.tau_percentile is not None:
        tau = tau_from_percentile(base or model, dataset, entities, args.tau_percentile)
    elif args.tau is not None:
        tau = args.tau
    else:
        tau = 0.5
    report = flip_flop_rate(model, dataset, entities, tau)
    if base is not None:
        comparison = relative_reduction(flip_flop_rate(base, dataset, entities, tau), report)
        _write_json(args.out, comparison.to_dict())
        log.info(
            "flip-flop (%s scope) tau=%.4f: base %.4f -> %.4f",
            scope.part, tau, comparison.base.overall.rate, comparison.improved.overall.rate,
        )
    else:
        _write_json(args.out, report.to_dict())
        log.info(
            "flip-flop (%s scope) tau=%.4f: rate %.4f", scope.part, tau, report.overall.rate
        )


def _cmd_experiment(args: argparse.Namespace) -> None:
    config = load_run_config(args.config)
    seed = resolve_seed(args.seed, config)
    cfg = _pipeline_config(config, seed, args)
    dataset = read_dataset(args.data)
    result = experiment_table(dataset, cfg)
    _write_json(args.out, result.to_dict())
    _write_sidecar(args.out, {"kind": "run_config", "seed": seed, "pipeline": cfg.to_dict()})
    log.info("experiment table -> %s", args.out)


def _cmd_report(args: argparse.Namespace) -> None:
    doc = _read_json_file(args.artifact)
    sys.stdout.write(render(doc))


# ---------------------------------------------------------------------------
# parser


def _add_scope_flags(p: argparse.ArgumentParser, with_part: bool = True) -> None:
    p.add_argument(
        "--partition", metavar="FILE", help="partition JSON produced by 'fortress split'"
    )
    if with_part:
        p.add_argument(
            "--part",
            choices=("train", "val", "test", "all"),
            help="partition slice to operate on (default depends on the command)",
        )
    _add_split_flags(p)


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--salt", help=f"partition salt (default {DEFAULT_SALT!r})")
    p.add_argument(
        "--fractions",
        metavar="TR,VA,TE",
        help="train,val,test fractions (default 0.70,0.15,0.15)",
    )


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="run-config JSON")
    p.add_argument("--seed", type=int, help="run seed (overrides config and FORTRESS_SEED)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fortress",
        description="Stability-aware feature pruning for snapshot-scored classifiers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", parents=[common], help="generate the synthetic benchmark")
    _add_config_flags(p)
    p.add_argument("--out", required=True, metavar="CSV", help="output dataset path")
    p.add_argument("--truth", metavar="FILE", help="also write the planted ground truth")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("split", parents=[common], help="partition entities by salted hash")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="FILE")
    _add_split_flags(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", parents=[common], help="train one boosted model")
    _add_config_flags(p)
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="FILE", help="model JSON path")
    p.add_argument("--mask", metavar="F1,F2,...", help="restrict to these features")
    _add_scope_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("stability", parents=[common], help="entity/feature instability report")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument(
        "--percentile", type=float, default=75.0, help="high-CV cohort percentile (default 75)"
    )
    _add_scope_flags(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("prune", parents=[common], help="greedy stability-gated pruning run")
    _add_config_flags(p)
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="FILE", help="pruned model JSON path")
    p.add_argument("--trace", metavar="FILE", help="also write the full prune trace")
    p.add_argument("--mode", choices=(STRICT, NON_INFERIOR), help="acceptance gate")
    p.add_argument("--percentile", type=float, help="candidate percentile (default 75)")
    p.add_argument("--bootstrap-b", type=int, help="bootstrap resamples (default 1000)")
    _add_scope_flags(p, with_part=False)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("eval", parents=[common], help="PR-AUC and stability evaluation")
    _add_config_flags(p)
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--bootstrap-b", type=int, help="bootstrap resamples (default 1000)")
    _add_scope_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("flipflop", parents=[common], help="admission flip-flop rates")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument(
        "--base-model", metavar="FILE", help="baseline model; output becomes a comparison"
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau", type=float, help="admission threshold (default 0.5)")
    group.add_argument(
        "--tau-percentile",
        type=float,
        help="derive tau from this percentile of the (base) model's scores",
    )
    _add_scope_flags(p)
    p.set_defaults(func=_cmd_flipflop)

    p = sub.add_parser("experiment", parents=[common], help="four-way comparison table")
    _add_config_flags(p)
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--mode", choices=(STRICT, NON_INFERIOR), help="acceptance gate")
    p.add_argument("--percentile", type=float, help="candidate percentile (default 75)")
    p.add_argument("--bootstrap-b", type=int, help="bootstrap resamples (default 1000)")
    _add_split_flags(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", parents=[common], help="render an artifact as markdown")
    p.add_argument("artifact", metavar="FILE", help="any fortress JSON artifact")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        args.func(args)
    except ValueError as exc:
        print(f"fortress: error: {exc}", file=sys.stderr)
        return 1
    except ChildProcessError as exc:  # an OSError, but no file's fault
        print(f"fortress: worker error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fortress: i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
