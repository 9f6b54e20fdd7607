"""End-to-end acceptance suite for the released package.

Each test here is one release gate, asserted at its stated tolerance against
the pinned default benchmark (default synthetic config, seed 42) or against
the independent metric oracles. Every test prints exactly one verdict line of
the form ``[acceptance] <gate>: PASS|FAIL (<measurements>)`` so a transcript
of this module doubles as the acceptance report; the verdict line is printed
before the assertion fires, so it appears for failing gates too.

The expensive artifacts (benchmark generation, the greedy prune runs, the
four-row experiment) come from session-scoped fixtures in ``conftest.py`` and
are shared with the module tests, so this suite adds two full CLI pipeline
runs (the determinism gate) on top of one prune run per mode.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from oracles import random_ap_instance, reference_average_precision, reference_cv

from fortress import metrics
from fortress.cli import main
from fortress.data import PARTS, TEST, TRAIN, VAL, partition_entities
from fortress.flipflop import flip_flop_rate, relative_reduction
from fortress.model import (
    TrainConfig,
    TrainMatrix,
    deserialize,
    dumps_canonical,
    log_loss_from_margins,
    loss_curve,
    serialize,
    train,
)
from fortress.pipeline import (
    ROW_ALL_MULTI,
    ROW_ALL_SINGLE,
    ROW_FORTRESS,
    ROW_SR_ONLY,
)
from fortress.synth import _entity_names


def _verdict(gate: str, ok: bool, detail: str) -> None:
    """Print the one-line verdict, then enforce it."""
    line = f"[acceptance] {gate}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


class TestAcceptance:
    def test_1_metric_oracle_equivalence(self):
        """pr_auc and cv match independent references to 1e-12, in under 10 s."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        max_ap_err = 0.0
        for _ in range(1000):
            scores, labels = random_ap_instance(rng)
            err = abs(metrics.pr_auc(scores, labels) - reference_average_precision(scores, labels))
            max_ap_err = max(max_ap_err, err)
        max_cv_err = 0.0
        for _ in range(1000):
            values = rng.uniform(0.05, 2.0, size=int(rng.integers(2, 25)))
            err = abs(metrics.cv(values) - reference_cv(values))
            max_cv_err = max(max_cv_err, err)
        elapsed = time.perf_counter() - t0
        ok = max_ap_err <= 1e-12 and max_cv_err <= 1e-12 and elapsed < 10.0
        _verdict(
            "metric oracle equivalence",
            ok,
            f"max |ap err| {max_ap_err:.2e}, max |cv err| {max_cv_err:.2e}, {elapsed:.1f}s",
        )

    def test_2_planted_feature_recovery(self, noninferior_run, bench_truth):
        """Noninferior pruning on the default benchmark removes >= 6 of the 8
        planted pure-noise features and none of the informative or
        snapshot-constant ones, in under 5 minutes."""
        result, seconds = noninferior_run
        removed = set(result.trace.initial_features) - set(result.trace.final_features)
        by_role = {"eng_noise": 0, "eng_info": 0, "sr": 0}
        for name in removed:
            by_role[bench_truth.roles[name]] += 1
        ok = (
            by_role["eng_noise"] >= 6
            and by_role["sr"] == 0
            and by_role["eng_info"] == 0
            and seconds < 300.0
        )
        _verdict(
            "planted-feature recovery",
            ok,
            f"removed {by_role['eng_noise']}/8 noise, {by_role['eng_info']}/15 info, "
            f"{by_role['sr']}/2 snapshot-constant; {seconds:.0f}s",
        )

    def test_3_experiment_trend_reproduction(self, experiment):
        """The four-row comparison reproduces the expected quality/stability
        ordering on the default benchmark."""
        pr = {r.name: r.pr_auc.point for r in experiment.rows}
        cv = {
            r.name: (r.mean_entity_cv.point if r.mean_entity_cv is not None else None)
            for r in experiment.rows
        }
        checks = [
            pr[ROW_SR_ONLY] < pr[ROW_ALL_SINGLE],
            cv[ROW_SR_ONLY] < cv[ROW_ALL_SINGLE],
            cv[ROW_ALL_MULTI] < cv[ROW_ALL_SINGLE],
            cv[ROW_FORTRESS] <= cv[ROW_ALL_MULTI],
            pr[ROW_FORTRESS] >= pr[ROW_ALL_MULTI] - 0.005,
        ]
        _verdict(
            "experiment trend reproduction",
            all(checks),
            f"pr_auc sr/single/multi/fortress = {pr[ROW_SR_ONLY]:.4f}/"
            f"{pr[ROW_ALL_SINGLE]:.4f}/{pr[ROW_ALL_MULTI]:.4f}/{pr[ROW_FORTRESS]:.4f}; "
            f"cv = {cv[ROW_SR_ONLY]:.4f}/{cv[ROW_ALL_SINGLE]:.4f}/"
            f"{cv[ROW_ALL_MULTI]:.4f}/{cv[ROW_FORTRESS]:.4f}",
        )

    def test_4_flip_flop_reduction(self, experiment, bench_dataset):
        """The final model flip-flops at least 5% less (relative, tau = 0.5)
        than the single-snapshot baseline, with >= 4 of 6 regions improving."""
        entities = experiment.fortress.partition.entities_in(TEST)
        base = flip_flop_rate(
            experiment.models[ROW_ALL_SINGLE], bench_dataset, entities, tau=0.5
        )
        improved = flip_flop_rate(
            experiment.models[ROW_FORTRESS], bench_dataset, entities, tau=0.5
        )
        comparison = relative_reduction(base, improved)
        positive = sum(1 for v in comparison.per_region.values() if v is not None and v > 0)
        ok = (
            comparison.overall is not None
            and comparison.overall >= 0.05
            and len(comparison.per_region) == 6
            and positive >= 4
        )
        overall = "n/a" if comparison.overall is None else f"{comparison.overall:.1%}"
        _verdict(
            "flip-flop reduction",
            ok,
            f"global relative reduction {overall} "
            f"({base.overall.rate:.3f} -> {improved.overall.rate:.3f}), "
            f"{positive}/{len(comparison.per_region)} regions positive",
        )

    def test_5_strict_mode_soundness(self, experiment, bench_dataset):
        """Strict mode only ever accepts significant improvements, and the
        final model's validation PR-AUC never falls below the baseline's."""
        run = experiment.fortress
        assert run.trace.mode == "strict"
        unsound = [
            it.candidate for it in run.trace.iterations if it.accepted and not it.delta.lo > 0
        ]
        rows = bench_dataset.rows_for(run.partition.entities_in(VAL))
        y = bench_dataset.binary_labels()[rows]
        final_pr = metrics.pr_auc(run.model.predict(bench_dataset.X[rows]), y)
        initial_pr = run.trace.initial_val_pr_auc
        accepted = sum(1 for it in run.trace.iterations if it.accepted)
        ok = not unsound and final_pr >= initial_pr
        _verdict(
            "strict-mode soundness",
            ok,
            f"{accepted} accepted, {len(unsound)} without ci.lo > 0; "
            f"val pr_auc {initial_pr:.4f} -> {final_pr:.4f}",
        )

    def test_6_pipeline_determinism(self, tmp_path, capsys):
        """gen -> prune -> eval at seed 42 twice: byte-identical model JSON,
        prune trace, and rendered reports."""

        def run(workdir):
            workdir.mkdir()
            data = workdir / "data.csv"
            model = workdir / "model.json"
            trace = workdir / "trace.json"
            report = workdir / "eval.json"
            for argv in (
                ["gen", "--seed", "42", "--out", str(data)],
                ["prune", "--seed", "42", "--data", str(data), "--out", str(model),
                 "--trace", str(trace)],
                ["eval", "--seed", "42", "--data", str(data), "--model", str(model),
                 "--out", str(report)],
            ):
                assert main(argv) == 0
            capsys.readouterr()  # drop progress output; keep report capture clean
            rendered = []
            for artifact in (model, trace, report):
                assert main(["report", str(artifact)]) == 0
                rendered.append(capsys.readouterr().out)
            return (
                model.read_bytes(),
                trace.read_bytes(),
                report.read_bytes(),
                rendered,
            )

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        same_model = first[0] == second[0]
        same_trace = first[1] == second[1]
        same_eval = first[2] == second[2]
        same_reports = first[3] == second[3]
        ok = same_model and same_trace and same_eval and same_reports
        _verdict(
            "pipeline determinism",
            ok,
            f"model identical={same_model}, trace identical={same_trace}, "
            f"eval identical={same_eval}, reports identical={same_reports}; "
            f"model {len(first[0])} bytes, trace {len(first[1])} bytes",
        )

    def test_7_partition_quality(self):
        """100,000 generator-style keys split within +/-1% of 70/15/15, and
        every single entity lands in exactly one partition."""
        n = 100_000
        keys = _entity_names(n, 5)
        assignment = partition_entities(keys)
        members = {part: set(assignment.entities_in(part)) for part in PARTS}
        fractions = {part: len(members[part]) / n for part in PARTS}
        within = (
            abs(fractions[TRAIN] - 0.70) <= 0.01
            and abs(fractions[VAL] - 0.15) <= 0.01
            and abs(fractions[TEST] - 0.15) <= 0.01
        )
        # Exhaustive disjointness: each key is in the one set its assigned
        # part names, and in neither of the other two.
        disjoint = all(
            sum(key in members[part] for part in PARTS) == 1
            and key in members[assignment.part_of(key)]
            for key in keys
        )
        total = sum(len(members[part]) for part in PARTS)
        ok = within and disjoint and total == n
        _verdict(
            "partition quality",
            ok,
            f"fractions {fractions[TRAIN]:.4f}/{fractions[VAL]:.4f}/{fractions[TEST]:.4f}, "
            f"disjoint={disjoint}",
        )

    def test_8_model_sanity(self, bench_dataset, bench_partition, bench_baseline):
        """Training loss never increases on the benchmark; depth-2 boosting
        solves XOR exactly; serialization preserves scores bit for bit."""
        rows = bench_dataset.rows_for(bench_partition.entities_in(TRAIN))
        X = bench_dataset.X[rows]
        y = bench_dataset.binary_labels()[rows]
        curve = loss_curve(bench_baseline, X, y)
        base_loss = log_loss_from_margins(
            np.full(len(y), bench_baseline.base_score), y
        )
        full = np.concatenate([[base_loss], curve])
        monotone = bool(np.all(np.diff(full) <= 0.0))

        cells = [
            ((0.0, 0.0), 0, 16),
            ((0.0, 1.0), 1, 8),
            ((1.0, 0.0), 1, 12),
            ((1.0, 1.0), 0, 12),
        ]
        xor_rows, xor_labels = [], []
        for (a, b), label, count in cells:
            xor_rows += [(a, b)] * count
            xor_labels += [label] * count
        Xx = np.array(xor_rows, dtype=np.float64)
        yx = np.array(xor_labels, dtype=np.float64)
        xor_model = train(TrainMatrix(Xx, yx), config=TrainConfig(rounds=50, max_depth=2))
        xor_acc = float(np.mean((xor_model.predict(Xx) >= 0.5) == (yx == 1.0)))

        rng = np.random.default_rng(314)
        Xr = rng.normal(size=(1000, bench_dataset.n_features))
        Xr[rng.random(Xr.shape) < 0.3] = np.nan
        before = bench_baseline.predict(Xr)
        restored = deserialize(json.loads(dumps_canonical(serialize(bench_baseline))))
        after = restored.predict(Xr)
        exact = bool(np.array_equal(before, after))

        ok = monotone and xor_acc == 1.0 and exact
        _verdict(
            "model sanity",
            ok,
            f"loss curve monotone={monotone} over {len(full)} points, "
            f"xor accuracy {xor_acc:.3f}, scores exact after round-trip={exact}",
        )
