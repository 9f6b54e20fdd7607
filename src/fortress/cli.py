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
    fortress report     artifact.json                    render an artifact

Conventions shared by all subcommands:

* Exit codes: 0 success, 1 validation error, 2 I/O error or a dead worker
  process.
* ``--data`` is read with ``data.read_dataset``: the first read of a regular
  file writes the parsed dataset next to it as ``<data>.fortress-cache``,
  which later commands load instead of parsing while the file's sha256 is
  unchanged. Deleting the sidecar is always safe.
* ``--config`` points at a run-config JSON with optional sections ``seed``,
  ``synth``, ``train``, ``pipeline``, ``eval`` (and ``"kind": "run_config"``);
  unknown sections or fields are errors.
* Seed precedence: ``--seed`` flag, then the config ``seed``, then the
  ``FORTRESS_SEED`` environment variable, then 42. Sections may pin their
  own ``seed`` to override the run seed for that component only.
* One entity split rule: ``--partition FILE`` loads a partition and
  refuses ``--salt``, ``--fractions`` and the config's ``pipeline.salt`` and
  ``pipeline.fractions``. A hash split (``--part train|val|test``; always in
  ``split``, ``prune`` and ``experiment``) takes its salt and fractions from
  those flags, else from the config's ``pipeline``, else from the defaults.
  With no split (no ``--part``, or ``--part all``) every row is used, the
  split flags are refused and the config's split keys are ignored.
* Commands that consume a seed write the run they resolved as
  ``<out>.config.json``, in the schema ``--config`` reads, so that
  ``--config <out>.config.json`` reruns them byte for byte; artifacts
  contain no timestamps.
* Every output file is replaced only once it is fully written, so a failed
  command leaves a file it did not finish as it was. JSON inputs must be
  objects.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path
from typing import Sequence

from fortress._config import is_integer
from fortress.data import (
    TEST,
    TRAIN,
    VAL,
    PartitionAssignment,
    SnapshotDataset,
    entities_in_partition,
    partition_entities,
    read_dataset,
    write_csv,
)
from fortress.flipflop import FlipFlopReport, check_tau, flip_flop_rate, relative_reduction
from fortress.metrics import check_percentile
from fortress.model import (
    BoostedModel,
    TrainConfig,
    TrainMatrix,
    load_json,
    load_model,
    mask_from_names,
    save_model,
    train,
    write_json,
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

_RUN_CONFIG_KIND = "run_config"
_RUN_CONFIG_SECTIONS = {"kind", "seed", "synth", "train", "pipeline", "eval"}
_SECTIONS = {"synth": SynthConfig, "train": TrainConfig, "pipeline": PipelineConfig,
             "eval": EvalConfig}
# the keys of the pipeline section that make a hash split, and their flags
_SPLIT_KEYS = ("salt", "fractions")
# flags that override the field of the same name in each section that has one
_FIELD_FLAGS = ("mode", "percentile", "bootstrap_b")


# ---------------------------------------------------------------------------
# run configs


def load_run_config(path: str | Path | None) -> dict:
    """Load and validate a run-config JSON; ``None`` yields an empty config."""
    if path is None:
        return {}
    doc = load_json(path)
    kind = doc.get("kind", _RUN_CONFIG_KIND)
    if kind != _RUN_CONFIG_KIND:
        raise ValueError(f"{path}: a run config has kind {_RUN_CONFIG_KIND!r}, got {kind!r}")
    unknown = set(doc) - _RUN_CONFIG_SECTIONS
    if unknown:
        raise ValueError(
            f"{path}: unknown run config sections {sorted(unknown)}; "
            f"expected only {sorted(_RUN_CONFIG_SECTIONS)}"
        )
    bad = sorted(k for k in set(doc) - {"kind", "seed"}
                 if not isinstance(doc[k], (dict, type(None))))
    if bad:
        raise ValueError(f"{path}: run config sections {bad} must be JSON objects")
    if "train" in (doc.get("pipeline") or {}):
        raise ValueError(
            "training settings belong in the top-level 'train' section, "
            "not inside 'pipeline'"
        )
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


def _parse_fractions(text: str) -> tuple[float, float, float]:
    try:
        a, b, c = (float(p) for p in text.split(","))
    except ValueError:  # not a number, or not three of them
        raise ValueError(
            f"fractions must be three comma-separated numbers, got {text!r}"
        ) from None
    return (a, b, c)


@dataclasses.dataclass(frozen=True)
class _Run:
    """A command's run as :func:`_resolve` made it, before any data is read.

    ``configs`` holds the config of each section the command uses. ``part``
    is the slice it works on: ``"all"`` (every row), or a partition name in
    ``partition`` (loaded from ``--partition``) or in the hash split with
    the (salt, fractions) of ``split``.
    """

    seed: int | None
    configs: dict
    part: str
    partition: PartitionAssignment | None
    split: tuple[str, tuple[float, float, float]] | None

    def partition_of(self, dataset: SnapshotDataset) -> PartitionAssignment | None:
        if self.split is None:
            return self.partition
        salt, fractions = self.split
        return partition_entities(dataset, fractions, salt)

    def entities(self, dataset: SnapshotDataset) -> list[str]:
        if self.part == "all":
            return sorted(dataset.entities)
        entities = entities_in_partition(dataset, self.partition_of(dataset), self.part)
        if not entities:
            raise ValueError(f"no dataset entity falls in partition {self.part!r}")
        return entities

    def write(self, out: str | Path) -> None:
        """Write ``<out>.config.json``, the run config that ``--config``
        reads back as this run."""
        doc = {"kind": _RUN_CONFIG_KIND, "seed": self.seed}
        doc.update((name, cfg.to_dict()) for name, cfg in self.configs.items())
        pipeline = doc.pop("pipeline", {})
        for key in ("train", *_SPLIT_KEYS):  # train is its own section
            pipeline.pop(key, None)
        if self.split is not None:
            pipeline.update(zip(_SPLIT_KEYS, self.split))
        if pipeline:
            doc["pipeline"] = pipeline
        write_json(str(out) + ".config.json", doc)


def _resolve(args: argparse.Namespace, *sections: str, part: str = "all") -> _Run:
    """The run of a command that uses the config ``sections`` (``"train"``
    before ``"pipeline"``, which takes it) and works on ``part`` of a
    ``--partition`` that ``--part`` does not narrow. See the module
    docstring for the split rule."""
    config = load_run_config(args.config) if hasattr(args, "config") else {}
    seed = resolve_seed(args.seed, config) if hasattr(args, "config") else None
    pipeline = dict(config.get("pipeline") or {})
    flags = {key: getattr(args, key, None) for key in _SPLIT_KEYS}
    chosen, partition_file = getattr(args, "part", None), getattr(args, "partition", None)
    # no split where --part is absent or "all", or in a command without split flags
    whole = chosen in (None, "all") if hasattr(args, "part") else not hasattr(args, "salt")
    split = None
    if partition_file:
        if chosen == "all":
            raise ValueError("--part all cannot be combined with --partition")
        _refuse_split_flags(flags, "cannot be combined with --partition")
        for key in _SPLIT_KEYS:
            if key in pipeline:
                raise ValueError(f"pipeline.{key} cannot be combined with --partition")
    elif whole:
        _refuse_split_flags(flags, "needs --part train, val or test")
        part = "all"
    else:
        if flags["salt"] is not None:
            pipeline["salt"] = flags["salt"]
        if flags["fractions"] is not None:
            pipeline["fractions"] = _parse_fractions(flags["fractions"])
        cfg = PipelineConfig.from_dict({k: pipeline[k] for k in _SPLIT_KEYS if k in pipeline})
        split = (cfg.salt, cfg.fractions)
    if chosen not in (None, "all"):
        part = chosen.upper()  # flag values are lowercase, partition names uppercase

    configs: dict = {}
    for name in sections:
        cls = _SECTIONS[name]
        doc = pipeline if name == "pipeline" else dict(config.get(name) or {})
        fields = {f.name for f in dataclasses.fields(cls)}
        if "seed" in fields:
            doc.setdefault("seed", seed)
        doc.update((f, getattr(args, f)) for f in _FIELD_FLAGS
                   if f in fields and getattr(args, f, None) is not None)
        configs[name] = cls.from_dict(doc)
    if "pipeline" in configs:
        configs["pipeline"] = dataclasses.replace(configs["pipeline"], train=configs["train"])
    partition = None
    if partition_file:
        partition = PartitionAssignment.from_dict(load_json(partition_file))
    return _Run(seed, configs, part, partition, split)


def _refuse_split_flags(flags: dict, why: str) -> None:
    """Refuse ``--salt`` and ``--fractions`` where no split is made from them."""
    for key, value in flags.items():
        if value is not None:
            raise ValueError(f"--{key} {why}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args: argparse.Namespace) -> None:
    run = _resolve(args, "synth")
    dataset, truth = generate(run.configs["synth"])
    write_csv(dataset, args.out)
    run.write(args.out)
    if args.truth:
        write_json(
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
    run = _resolve(args)
    partition = run.partition_of(read_dataset(args.data))
    write_json(args.out, partition.to_dict())
    log.info("partition counts: %s", partition.counts())


def _cmd_train(args: argparse.Namespace) -> None:
    run = _resolve(args, "train", part=TRAIN)
    dataset = read_dataset(args.data)
    rows = dataset.rows_for(run.entities(dataset))
    if rows.size == 0:
        raise ValueError("no rows selected for training")
    mask = None
    if args.mask:
        names = [n for n in args.mask.split(",") if n]
        if not names:
            raise ValueError("--mask must name at least one feature")
        mask = mask_from_names(dataset.schema, names)
    tm = TrainMatrix(dataset.X[rows], dataset.binary_labels()[rows])
    model = train(tm, config=run.configs["train"], mask=mask, schema=dataset.schema)
    save_model(model, args.out)
    run.write(args.out)
    log.info("trained on %d rows (%s scope); model -> %s", rows.size, run.part, args.out)


def _cmd_stability(args: argparse.Namespace) -> None:
    check_percentile(args.percentile)
    run = _resolve(args, part=VAL)
    dataset = read_dataset(args.data)
    model = load_model(args.model)
    entities = run.entities(dataset)
    report = build_stability_report(model, dataset, entities, percentile=args.percentile)
    write_json(args.out, report.to_dict())
    log.info(
        "stability on %d entities (%s scope): threshold %.4f, %d high-CV",
        len(entities), run.part, report.cv_threshold, len(report.high_cv_entities),
    )


def _cmd_prune(args: argparse.Namespace) -> None:
    run = _resolve(args, "train", "pipeline")
    dataset = read_dataset(args.data)
    result = fortress_run(dataset, run.configs["pipeline"], partition=run.partition)
    save_model(result.model, args.out)
    if args.trace:
        write_json(args.trace, result.trace.to_dict())
    run.write(args.out)
    kept = len(result.trace.final_features)
    total = len(result.trace.initial_features)
    log.info("pruned %d of %d features; model -> %s", total - kept, total, args.out)


def _cmd_eval(args: argparse.Namespace) -> None:
    run = _resolve(args, "eval", part=TEST)
    cfg = run.configs["eval"]
    dataset = read_dataset(args.data)
    model = load_model(args.model)
    entities = run.entities(dataset)
    report = evaluate_model(
        model, dataset, entities, b=cfg.bootstrap_b, seed=run.seed, level=cfg.level
    )
    write_json(args.out, report.to_dict())
    run.write(args.out)
    log.info(
        "eval on %d entities (%s scope): pr_auc=%.4f", len(entities), run.part,
        report.pr_auc.point,
    )


def _cmd_flipflop(args: argparse.Namespace) -> None:
    if args.tau is not None:
        check_tau(args.tau)
    if args.tau_percentile is not None:
        check_percentile(args.tau_percentile)
    run = _resolve(args, part=TEST)
    dataset = read_dataset(args.data)
    model = load_model(args.model)
    base = load_model(args.base_model) if args.base_model else None
    entities = run.entities(dataset)
    # with --tau-percentile, the model whose scores set tau (the base model
    # if there is one) is scored once, for tau and for its own rate
    tau_model = base or model
    tau_report = None
    if args.tau_percentile is not None:
        tau_report = flip_flop_rate(tau_model, dataset, entities, percentile=args.tau_percentile)
        tau = tau_report.tau
    else:
        tau = 0.5 if args.tau is None else args.tau

    def rate(m: BoostedModel) -> FlipFlopReport:
        if m is tau_model and tau_report is not None:
            return tau_report
        return flip_flop_rate(m, dataset, entities, tau)

    report = rate(model)
    if base is not None:
        comparison = relative_reduction(rate(base), report)
        write_json(args.out, comparison.to_dict())
        log.info(
            "flip-flop (%s scope) tau=%.4f: base %.4f -> %.4f",
            run.part, tau, comparison.base.overall.rate, comparison.improved.overall.rate,
        )
    else:
        write_json(args.out, report.to_dict())
        log.info(
            "flip-flop (%s scope) tau=%.4f: rate %.4f", run.part, tau, report.overall.rate
        )


def _cmd_experiment(args: argparse.Namespace) -> None:
    run = _resolve(args, "train", "pipeline")
    dataset = read_dataset(args.data)
    result = experiment_table(dataset, run.configs["pipeline"])
    write_json(args.out, result.to_dict())
    run.write(args.out)
    log.info("experiment table -> %s", args.out)


def _cmd_report(args: argparse.Namespace) -> None:
    doc = load_json(args.artifact)
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
    default = ",".join(f"{f:.2f}" for f in PipelineConfig.fractions)
    p.add_argument("--salt", help=f"partition salt (default {PipelineConfig.salt!r})")
    p.add_argument(
        "--fractions", metavar="TR,VA,TE", help=f"train,val,test fractions (default {default})"
    )


def _add_gate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=(STRICT, NON_INFERIOR), help="acceptance gate")
    p.add_argument(
        "--percentile", type=float,
        help=f"candidate percentile (default {PipelineConfig.percentile:g})",
    )
    p.add_argument(
        "--bootstrap-b", type=int,
        help=f"bootstrap resamples (default {PipelineConfig.bootstrap_b})",
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

    p = sub.add_parser("split", parents=[common], help="partition entities by salted hash")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="FILE")
    _add_split_flags(p)

    p = sub.add_parser("train", parents=[common], help="train one boosted model")
    _add_config_flags(p)
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="FILE", help="model JSON path")
    p.add_argument("--mask", metavar="F1,F2,...", help="restrict to these features")
    _add_scope_flags(p)

    p = sub.add_parser("stability", parents=[common], help="entity/feature instability report")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument(
        "--percentile", type=float, default=PipelineConfig.percentile,
        help=f"high-CV cohort percentile (default {PipelineConfig.percentile:g})",
    )
    _add_scope_flags(p)

    p = sub.add_parser("prune", parents=[common], help="greedy stability-gated pruning run")
    _add_config_flags(p)
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="FILE", help="pruned model JSON path")
    p.add_argument("--trace", metavar="FILE", help="also write the full prune trace")
    _add_gate_flags(p)
    _add_scope_flags(p, with_part=False)

    p = sub.add_parser("eval", parents=[common], help="PR-AUC and stability evaluation")
    _add_config_flags(p)
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument(
        "--bootstrap-b", type=int,
        help=f"bootstrap resamples (default {EvalConfig.bootstrap_b})",
    )
    _add_scope_flags(p)

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

    p = sub.add_parser("experiment", parents=[common], help="four-way comparison table")
    _add_config_flags(p)
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="FILE")
    _add_gate_flags(p)
    _add_split_flags(p)

    p = sub.add_parser("report", parents=[common], help="render an artifact as markdown")
    p.add_argument("artifact", metavar="FILE", help="a fortress JSON artifact")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing leaves
    no state on it, and it binds no handler (see :func:`main`)."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # basicConfig adds its stderr handler only to a root logger that has
    # none, so the level of -v is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    logging.getLogger().setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        # looked up now, so a wrapper put on a _cmd_* name after the parser
        # was built (a tracer's, a test's) still runs
        globals()[f"_cmd_{args.command}"](args)
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
