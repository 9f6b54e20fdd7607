"""The benchmark's three workloads: set-up, one operation, and output checks.

Each workload makes its inputs from the workload seed in ``setup``; the timed
``run`` hands the program only those inputs. ``outputs`` turns what an
operation produced into bytes, which later operations of a run must repeat
exactly, and ``check`` compares the first operation's outputs with
independent computations (``reference.py``) and required properties. The
program's own seeds (bootstrap, subsampling) stay at their defaults.

Sizes are scaled so that one operation takes a few seconds on two cores; the
README gives the figures at the full pinned benchmark size for comparison.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from fortress import cli
from fortress.data import TRAIN, partition_entities, rows_in_partition, write_csv
from fortress.model import (
    TrainConfig,
    TrainMatrix,
    dumps_canonical,
    mask_from_names,
    save_model,
    serialize,
    train,
)
from fortress.pipeline import STRICT, PipelineConfig, experiment_table
from fortress.synth import SynthConfig, generate

PROGRAM_SEED = 42  # the program's default run seed; the workload seed only shapes data
REL_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _parts(dataset) -> dict:
    """part -> sorted entities, by the benchmark's own hash partition."""
    assignment = ref.partition(dataset.entities)
    return {p: sorted(e for e, q in assignment.items() if q == p) for p in ("TRAIN", "VAL", "TEST")}


def _mean_cv(dataset, rows, scores) -> float:
    return float(np.mean(list(ref.entity_cvs(dataset.entity_ids[rows], scores).values())))


class Prune:
    """One in-process ``fortress prune --mode noninferior --trace`` run."""

    name = "prune"
    digested = ("model.json", "trace.json")

    def __init__(self, smoke: bool) -> None:
        self.n_entities = 60 if smoke else 400
        self.rounds = 5 if smoke else 20
        self.bootstrap_b = 50 if smoke else 200  # scaled with the training; see README

    def setup(self, seed: int, work: Path) -> dict:
        dataset, _ = generate(SynthConfig(n_entities=self.n_entities, seed=seed))
        write_csv(dataset, work / "data.csv")
        (work / "run.json").write_text(json.dumps(
            {"train": {"rounds": self.rounds}, "pipeline": {"bootstrap_b": self.bootstrap_b}}))
        return {"dataset": dataset, "work": work}

    def run(self, st: dict):
        w = st["work"]
        return cli.main(["prune", "--data", str(w / "data.csv"), "--out", str(w / "model.json"),
                         "--trace", str(w / "trace.json"), "--mode", "noninferior",
                         "--config", str(w / "run.json")])

    def outputs(self, st: dict, result) -> dict:
        return {f: (st["work"] / f).read_bytes() for f in self.digested}

    def check(self, st: dict, result, out: dict) -> list[str]:
        if result != 0:
            return [f"prune exited with {result}"]
        ds = st["dataset"]
        trace = json.loads(out["trace.json"])
        model_doc = json.loads(out["model.json"])
        errors = []
        features = list(trace["initial_features"])
        cur_cv = trace["initial_val_mean_cv"]
        for it in trace["iterations"]:
            if it["accepted"]:
                features.remove(it["candidate"])
                if not (it["delta_pr_auc"]["lo"] > -trace["epsilon"]):
                    errors.append(f"{it['candidate']}: accepted with delta.lo {it['delta_pr_auc']['lo']}")
                if not (it["val_mean_cv_after"] < cur_cv):
                    errors.append(f"{it['candidate']}: accepted without a lower VAL mean CV")
            elif it["val_mean_cv_after"] != cur_cv:
                errors.append(f"{it['candidate']}: rejected step changed the VAL mean CV")
            if it["features_after"] != features:
                errors.append(f"{it['candidate']}: features_after disagrees with the accepted steps")
            cur_cv = it["val_mean_cv_after"]
        if trace["final_features"] != features:
            errors.append("final_features != initial features minus accepted candidates")
        if [it["candidate"] for it in trace["iterations"]] != trace["candidates"]:
            errors.append("iterations do not follow the candidate list")

        parts = _parts(ds)
        rows = ds.rows_for(parts["TRAIN"])
        scratch = train(TrainMatrix(ds.X[rows], ds.binary_labels()[rows]),
                        config=TrainConfig(rounds=self.rounds, seed=PROGRAM_SEED),
                        mask=mask_from_names(ds.schema, trace["final_features"]), schema=ds.schema)
        if dumps_canonical(serialize(scratch)).encode() != out["model.json"]:
            errors.append("model differs from a from-scratch train with the final mask")
        val = ds.rows_for(parts["VAL"])
        val_cv = _mean_cv(ds, val, ref.predict(model_doc, ds.X[val]))
        if not _close(val_cv, cur_cv):
            errors.append(f"final VAL mean CV {cur_cv!r} != recomputed {val_cv!r}")
        return errors


class Analysis:
    """One pass of the post-training commands on fixed models."""

    name = "analysis"
    digested = ()
    artifacts = ("data.csv", "partition.json", "stability.json", "eval.json", "flipflop.json")
    tau = 0.5

    def __init__(self, smoke: bool) -> None:
        self.n_entities = 80 if smoke else 1500
        self.rounds = 5 if smoke else 20

    def setup(self, seed: int, work: Path) -> dict:
        dataset, _ = generate(SynthConfig(n_entities=self.n_entities, seed=seed))
        rows = rows_in_partition(dataset, partition_entities(dataset), TRAIN)
        tm = TrainMatrix(dataset.X[rows], dataset.binary_labels()[rows])
        config = TrainConfig(rounds=self.rounds)
        stable = [n for n in dataset.schema if not n.startswith("f_eng_noise_")]
        save_model(train(tm, config=config, schema=dataset.schema), work / "all.json")
        save_model(train(tm, config=config, mask=mask_from_names(dataset.schema, stable),
                         schema=dataset.schema), work / "stable.json")
        (work / "gen.json").write_text(
            json.dumps({"seed": seed, "synth": {"n_entities": self.n_entities}}))
        return {"dataset": dataset, "work": work}

    def run(self, st: dict):
        w = {k: str(st["work"] / k) for k in self.artifacts + ("all.json", "stable.json", "gen.json")}
        data = ["--data", w["data.csv"]]
        part = ["--partition", w["partition.json"]]
        commands = [
            ["gen", "--out", w["data.csv"], "--config", w["gen.json"]],
            ["split", *data, "--out", w["partition.json"]],
            ["stability", *data, "--model", w["all.json"], "--out", w["stability.json"], *part,
             "--part", "val"],
            ["eval", *data, "--model", w["stable.json"], "--out", w["eval.json"], *part,
             "--part", "test"],
            ["flipflop", *data, "--model", w["stable.json"], "--base-model", w["all.json"],
             "--out", w["flipflop.json"], *part, "--part", "test", "--tau", str(self.tau)],
        ] + [["report", w[a]] for a in self.artifacts[1:]]
        codes, reports = [], []
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()) as text:
                codes.append(cli.main(argv))
            reports.append(text.getvalue())
        return codes, reports

    def outputs(self, st: dict, result) -> dict:
        out = {a: (st["work"] / a).read_bytes() for a in self.artifacts}
        out["reports"] = "\x00".join(result[1]).encode()
        return out

    def check(self, st: dict, result, out: dict) -> list[str]:
        codes, reports = result
        if any(codes):
            return [f"command exit codes {codes}"]
        ds = st["dataset"]
        errors = []
        if not _csv_equals(out["data.csv"].decode(), ds):
            errors.append("gen CSV does not parse back equal to generate()")
        assignment = json.loads(out["partition.json"])["assignment"]
        if assignment != ref.partition(ds.entities):
            errors.append("split disagrees with the FNV-1a partition")
        parts = _parts(ds)
        models = {k: json.loads((st["work"] / f"{k}.json").read_text()) for k in ("all", "stable")}

        stab = json.loads(out["stability.json"])
        val = ds.rows_for(parts["VAL"])
        mine = ref.entity_cvs(ds.entity_ids[val], ref.predict(models["all"], ds.X[val]))
        theirs = stab["per_entity_cv"]
        if sorted(theirs) != sorted(mine) or not all(_close(theirs[e], mine[e]) for e in mine):
            errors.append("stability per-entity CVs differ from the recomputation")
        threshold = ref.nearest_rank(theirs.values(), stab["percentile"])
        if stab["cv_threshold"] != threshold:
            errors.append(f"stability threshold {stab['cv_threshold']!r} != {threshold!r}")
        if stab["high_cv_entities"] != sorted(e for e, v in theirs.items() if v >= threshold):
            errors.append("stability cohort differs from the recomputation")

        test = ds.rows_for(parts["TEST"])
        scores = {k: ref.predict(m, ds.X[test]) for k, m in models.items()}
        ev = json.loads(out["eval.json"])
        ap = ref.average_precision(scores["stable"], ds.labels[test] > 0)
        if not _close(ev["pr_auc"]["point"], ap):
            errors.append(f"eval PR-AUC {ev['pr_auc']['point']!r} != {ap!r}")
        mean_cv = _mean_cv(ds, test, scores["stable"])
        if not _close(ev["mean_entity_cv"]["point"], mean_cv):
            errors.append(f"eval mean CV {ev['mean_entity_cv']['point']!r} != {mean_cv!r}")

        ff = json.loads(out["flipflop.json"])
        counts = {k: ref.flip_flops(ds.entity_ids[test], ds.regions[test], s, self.tau)
                  for k, s in scores.items()}
        for side, key in (("base", "all"), ("improved", "stable")):
            got = {r: [v["flipped"], v["total"]] for r, v in ff[side]["per_region"].items()}
            if got != counts[key]:
                errors.append(f"flip-flop {side} counts differ from the independent count")
        rate = {k: sum(c[0] for c in v.values()) / sum(c[1] for c in v.values())
                for k, v in counts.items()}
        reduction = (rate["all"] - rate["stable"]) / rate["all"] if rate["all"] > 0 else None
        got = ff["relative_reduction"]["global"]
        if (got is None) != (reduction is None) or (got is not None and not _close(got, reduction)):
            errors.append(f"flip-flop relative reduction {got!r} != {reduction!r}")
        if not all(r.startswith("# ") for r in reports[-4:]):
            errors.append("a report is not a markdown document")
        return errors


class ExperimentSubsampled:
    """One strict-mode ``experiment_table`` with row and column subsampling."""

    name = "experiment-subsampled"
    digested = ("table.json",)

    def __init__(self, smoke: bool) -> None:
        self.n_entities = 80 if smoke else 300
        self.config = PipelineConfig(mode=STRICT, train=TrainConfig(
            rounds=5 if smoke else 20, row_subsample=0.8, col_subsample=0.8))

    def setup(self, seed: int, work: Path) -> dict:
        dataset, _ = generate(SynthConfig(n_entities=self.n_entities, seed=seed))
        return {"dataset": dataset}

    def run(self, st: dict):
        return experiment_table(st["dataset"], self.config)

    def outputs(self, st: dict, result) -> dict:
        return {"table.json": dumps_canonical(result.to_dict()).encode()}

    def check(self, st: dict, result, out: dict) -> list[str]:
        ds = st["dataset"]
        test = ds.rows_for(_parts(ds)["TEST"])
        errors = []
        for row in result.rows:
            scores = ref.predict(serialize(result.models[row.name]), ds.X[test])
            ap = ref.average_precision(scores, ds.labels[test] > 0)
            if not _close(row.pr_auc.point, ap):
                errors.append(f"{row.name}: PR-AUC {row.pr_auc.point!r} != {ap!r}")
            mean_cv = _mean_cv(ds, test, scores)
            if not _close(row.mean_entity_cv.point, mean_cv):
                errors.append(f"{row.name}: mean CV {row.mean_entity_cv.point!r} != {mean_cv!r}")
        if result.rows[0].mean_entity_cv.point != 0.0:
            errors.append("semantic-only row has a non-zero mean CV")
        return errors


def _csv_equals(text: str, ds) -> bool:
    """Field-by-field comparison of a snapshot CSV with a dataset, parsed
    here with ``str.split`` rather than the program's reader."""
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != ds.n_rows + 2:
        return False
    header = ["entity_id", "snapshot_id", "region", "label", *ds.schema]
    if lines[0].split(",") != header:
        return False
    names = ("BAD", "ACCEPTABLE", "GOOD", "EXCELLENT")
    for i, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        if cells[:4] != [ds.entity_ids[i], ds.snapshot_ids[i], ds.regions[i], names[ds.labels[i]]]:
            return False
        values = np.array([float(c) if c else np.nan for c in cells[4:]])
        if not np.array_equal(values, ds.X[i], equal_nan=True):
            return False
    return True


WORKLOADS = {w.name: w for w in (Prune, Analysis, ExperimentSubsampled)}
