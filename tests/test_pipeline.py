"""Unit tests for the fortress pipeline (greedy prune, evaluation, experiment)."""

from __future__ import annotations

import logging
import multiprocessing
import threading

import numpy as np
import pytest

from fortress import pipeline
from fortress.data import (
    TEST,
    TRAIN,
    build_dataset,
    latest_snapshot_view,
    partition_entities,
    rows_in_partition,
)
from fortress.model import (
    TrainConfig,
    TrainMatrix,
    dumps_canonical,
    mask_from_names,
    serialize,
    train,
)
from fortress.pipeline import (
    NON_INFERIOR,
    ROW_ALL_MULTI,
    ROW_ALL_SINGLE,
    ROW_FORTRESS,
    ROW_SR_ONLY,
    STRICT,
    PipelineConfig,
    evaluate_model,
    experiment_table,
    feature_groups,
    fortress_run,
)
from fortress.rng import mix64
from fortress.synth import SynthConfig, generate

SMALL_SYNTH = SynthConfig(n_entities=300, snapshots=4, seed=11)
FAST = PipelineConfig(
    train=TrainConfig(rounds=25),
    bootstrap_b=120,
    candidates=4,
    mode=NON_INFERIOR,
    seed=5,
)


@pytest.fixture(scope="module")
def small_run():
    dataset, _ = generate(SMALL_SYNTH)
    return dataset, fortress_run(dataset, FAST)


def _replay_trace(trace):
    """Re-walk the greedy bookkeeping and assert every invariant."""
    features = list(trace.initial_features)
    cur_cv = trace.initial_val_mean_cv
    for it in trace.iterations:
        if it.accepted:
            expected = tuple(f for f in features if f != it.candidate)
            assert it.features_after == expected
            assert it.val_mean_cv_after < cur_cv  # noninferior: strict decrease
            assert it.delta.lo > -trace.epsilon
            features = list(expected)
            cur_cv = it.val_mean_cv_after
        else:
            assert it.features_after == tuple(features)
            assert it.val_mean_cv_after == cur_cv
    assert tuple(features) == trace.final_features


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.mode == STRICT
        assert cfg.candidates == "auto"
        assert cfg.epsilon == 0.002
        assert cfg.bootstrap_b == 1000
        assert cfg.fractions == (0.70, 0.15, 0.15)

    def test_dict_round_trip(self):
        clone = PipelineConfig.from_dict(FAST.to_dict())
        assert clone == FAST

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"mode": "relaxed"}, "mode"),
            ({"epsilon": -0.001}, "epsilon"),
            ({"percentile": 0.0}, "percentile"),
            ({"percentile": 101.0}, "percentile"),
            ({"bootstrap_b": 1}, "at least 2 resamples, got 1"),
            ({"level": 1.5}, "level"),
            ({"level": 0.0}, "level"),
            ({"candidates": 0}, "candidate count must be >= 1"),
            ({"candidates": "many"}, "candidate count"),
            ({"candidates": True}, "candidate count"),
            ({"fractions": (0.5, 0.5, 0.5)}, "sum to 1"),
            ({"fractions": (0.5, 0.5)}, "exactly 3"),
            ({"fractions": (1.2, -0.1, -0.1)}, "non-negative"),
            ({"fractions": (float("nan"), 0.5, 0.5)}, "finite"),
            ({"epsilon": float("nan")}, "epsilon must be >= 0, got nan"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, match):
        # raised at construction, before any training
        with pytest.raises(ValueError, match=match):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"bootstrap_b": 2.5}, "bootstrap resamples must be an integer, got 2.5"),
            ({"bootstrap_b": 1000.0}, "bootstrap resamples must be an integer, got 1000.0"),
            ({"bootstrap_b": True}, "bootstrap resamples must be an integer, got True"),
            ({"level": "0.9"}, "level must be a number, got '0.9'"),
            ({"epsilon": "0"}, "epsilon must be a number, got '0'"),
            ({"percentile": None}, "percentile must be a number, got None"),
        ],
    )
    def test_from_dict_rejects_bad_types(self, doc, message):
        with pytest.raises(ValueError) as exc:
            PipelineConfig.from_dict(doc)
        assert str(exc.value) == message

    def test_from_dict_rejects_unknown_and_bad_fractions(self):
        with pytest.raises(ValueError, match="unknown pipeline config"):
            PipelineConfig.from_dict({"bogus": 1})
        with pytest.raises(ValueError, match="exactly 3"):
            PipelineConfig.from_dict({"fractions": [0.8, 0.2]})


class TestFeatureGroups:
    def test_prefix_split(self):
        schema = ("f_sr_0", "f_eng_0", "f_sr_1", "f_eng_noise_3")
        sr, eng = feature_groups(schema)
        assert sr == ("f_sr_0", "f_sr_1")
        assert eng == ("f_eng_0", "f_eng_noise_3")

    def test_untagged_feature_rejected(self):
        with pytest.raises(ValueError, match="f_other"):
            feature_groups(("f_sr_0", "f_other"))


class TestFortressRun:
    def test_trace_structure(self, small_run):
        _, result = small_run
        trace = result.trace
        assert trace.mode == NON_INFERIOR
        assert trace.epsilon == FAST.epsilon
        assert trace.bootstrap_b == FAST.bootstrap_b
        assert trace.seed == FAST.seed
        assert len(trace.initial_features) == 25
        assert trace.initial_features == result.baseline.active_features()
        assert len(trace.candidates) == 4
        # one pass, in candidate-rank order, no recomputation
        assert tuple(it.candidate for it in trace.iterations) == trace.candidates

    def test_trace_replays_consistently(self, small_run):
        _, result = small_run
        _replay_trace(result.trace)
        assert result.model.active_features() == result.trace.final_features

    def test_candidates_come_from_stability_ranking(self, small_run):
        _, result = small_run
        ranked = tuple(n for n, _ in result.stability.feature_cv_ranking[:4])
        assert result.trace.candidates == ranked

    def test_partition_respects_config(self, small_run):
        dataset, result = small_run
        expected = partition_entities(dataset.entities, FAST.fractions, FAST.salt)
        assert result.partition.assignment == expected.assignment

    def test_explicit_partition_is_used(self):
        dataset, _ = generate(SMALL_SYNTH)
        part = partition_entities(dataset.entities, salt="elsewhere")
        result = fortress_run(dataset, FAST, partition=part)
        assert result.partition is part

    def test_run_is_deterministic(self, small_run):
        dataset, first = small_run
        second = fortress_run(dataset, FAST)
        assert dumps_canonical(serialize(second.model)) == dumps_canonical(
            serialize(first.model)
        )
        assert dumps_canonical(second.trace.to_dict()) == dumps_canonical(
            first.trace.to_dict()
        )

    def test_final_model_equals_fresh_train(self, small_run):
        # candidates are retrained from the current model's trees; the result
        # must still be the model a fresh train with the final mask gives
        dataset, result = small_run
        rows = rows_in_partition(dataset, result.partition, TRAIN)
        fresh = train(
            TrainMatrix(dataset.X[rows], dataset.binary_labels()[rows]),
            config=FAST.train,
            mask=mask_from_names(dataset.schema, result.trace.final_features),
            schema=dataset.schema,
        )
        assert dumps_canonical(serialize(result.model)) == dumps_canonical(serialize(fresh))

    def test_trace_document_shape(self, small_run):
        _, result = small_run
        doc = result.trace.to_dict()
        assert doc["kind"] == "prune_trace"
        assert set(doc["iterations"][0]) == {
            "candidate", "delta_pr_auc", "accepted", "features_after",
            "val_mean_cv_after",
        }

    def test_snapshot_constant_dataset_accepts_nothing(self):
        # Freeze every entity at its first-snapshot values: no feature moves,
        # so no removal can strictly decrease validation score CV. The
        # snapshot count must be a power of two so the mean of identical
        # scores is exact and every per-entity CV is 0.0 rather than ~1e-17
        # of rounding noise (which a removal could "strictly decrease").
        dataset, _ = generate(SynthConfig(n_entities=250, snapshots=4, seed=4))
        X = dataset.X.copy().reshape(250, 4, 25)
        X[:] = X[:, :1, :]
        frozen = build_dataset(
            dataset.schema, dataset.snapshot_kind, dataset.entity_ids,
            dataset.snapshot_ids, dataset.regions, dataset.labels,
            X.reshape(1000, 25), sort=False, validate=False,
        )
        result = fortress_run(frozen, FAST)
        assert all(not it.accepted for it in result.trace.iterations)
        assert result.trace.final_features == result.trace.initial_features
        assert result.trace.initial_val_mean_cv == 0.0

    def test_single_snapshot_dataset_rejected(self):
        dataset, _ = generate(SynthConfig(n_entities=120, snapshots=1, seed=4))
        with pytest.raises(ValueError, match="2 or more snapshots"):
            fortress_run(dataset, FAST)

    def test_strict_mode_acceptances_are_sound(self):
        dataset, _ = generate(SMALL_SYNTH)
        cfg = PipelineConfig(
            train=TrainConfig(rounds=25), bootstrap_b=120, candidates=4,
            mode=STRICT, seed=5,
        )
        result = fortress_run(dataset, cfg)
        for it in result.trace.iterations:
            assert it.accepted == (it.delta.lo > 0.0)


class TestEvaluateModel:
    def test_report_fields_and_determinism(self, small_run):
        dataset, result = small_run
        test_ents = result.partition.entities_in(TEST)
        rep_a = evaluate_model(result.model, dataset, test_ents, b=100, seed=9)
        rep_b = evaluate_model(result.model, dataset, test_ents, b=100, seed=9)
        assert rep_a.pr_auc.to_dict() == rep_b.pr_auc.to_dict()
        assert rep_a.mean_entity_cv.to_dict() == rep_b.mean_entity_cv.to_dict()
        assert rep_a.n_entities == len(test_ents)
        assert rep_a.n_rows == len(test_ents) * 4
        assert rep_a.n_multi_snapshot_entities == len(test_ents)
        assert 0.0 <= rep_a.pr_auc.point <= 1.0
        assert rep_a.pr_auc.lo <= rep_a.pr_auc.point <= rep_a.pr_auc.hi
        assert rep_a.mean_entity_cv.point > 0.0

    def test_seed_moves_interval_not_point(self, small_run):
        dataset, result = small_run
        test_ents = result.partition.entities_in(TEST)
        rep_a = evaluate_model(result.model, dataset, test_ents, b=100, seed=1)
        rep_b = evaluate_model(result.model, dataset, test_ents, b=100, seed=2)
        assert rep_a.pr_auc.point == rep_b.pr_auc.point
        assert (rep_a.pr_auc.lo, rep_a.pr_auc.hi) != (rep_b.pr_auc.lo, rep_b.pr_auc.hi)

    def test_reordered_feature_columns_rejected(self, small_run):
        dataset, result = small_run
        reversed_cols = build_dataset(
            dataset.schema[::-1], dataset.snapshot_kind, dataset.entity_ids,
            dataset.snapshot_ids, dataset.regions, dataset.labels,
            dataset.X[:, ::-1], sort=False, validate=False,
        )
        with pytest.raises(ValueError, match="model schema does not match dataset schema"):
            evaluate_model(result.model, reversed_cols, result.partition.entities_in(TEST))

    def test_single_snapshot_entities_have_no_cv_interval(self, small_run):
        dataset, result = small_run
        flat = latest_snapshot_view(dataset)
        ents = result.partition.entities_in(TEST)
        rep = evaluate_model(result.model, flat, ents, b=50, seed=3)
        assert rep.mean_entity_cv is None
        assert rep.n_multi_snapshot_entities == 0
        doc = rep.to_dict()
        assert doc["kind"] == "eval_report"
        assert doc["mean_entity_cv"] is None


@pytest.fixture(scope="module")
def small_experiment():
    dataset, _ = generate(SMALL_SYNTH)
    return experiment_table(dataset, FAST)


class TestExperimentTable:
    def test_row_order_and_names(self, small_experiment):
        names = [r.name for r in small_experiment.rows]
        assert names == [ROW_SR_ONLY, ROW_ALL_SINGLE, ROW_ALL_MULTI, ROW_FORTRESS]

    def test_models_and_core_exposed(self, small_experiment):
        assert set(small_experiment.models) == {
            ROW_SR_ONLY, ROW_ALL_SINGLE, ROW_ALL_MULTI, ROW_FORTRESS,
        }
        assert small_experiment.fortress is not None
        assert small_experiment.fortress.trace.mode == NON_INFERIOR

    def test_sr_only_model_uses_only_sr_features(self, small_experiment):
        model = small_experiment.models[ROW_SR_ONLY]
        assert model.active_features() == ("f_sr_0", "f_sr_1")

    def test_all_rows_evaluated_on_shared_multi_snapshot_test_rows(self, small_experiment):
        # Single-snapshot *training* still gets a stability verdict because
        # every row is scored on the same multi-snapshot TEST rows. A model
        # reading only snapshot-constant SR features cannot wobble at all.
        assert small_experiment.row(ROW_SR_ONLY).mean_entity_cv.point == 0.0
        assert small_experiment.row(ROW_ALL_SINGLE).mean_entity_cv.point > 0.0
        assert small_experiment.row(ROW_ALL_MULTI).mean_entity_cv.point > 0.0

    def test_row_lookup_rejects_unknown(self, small_experiment):
        with pytest.raises(ValueError, match="no experiment row"):
            small_experiment.row("bogus")

    def test_document_shape(self, small_experiment):
        doc = small_experiment.to_dict()
        assert doc["kind"] == "experiment_result"
        assert len(doc["rows"]) == 4

    def test_all_sr_schema_collapses_first_two_rows(self):
        dataset, _ = generate(
            SynthConfig(n_entities=220, snapshots=2, k_eng_info=0, k_eng_noise=0, seed=8)
        )
        cfg = PipelineConfig(
            train=TrainConfig(rounds=15), bootstrap_b=60, candidates=1,
            mode=NON_INFERIOR, seed=5,
        )
        result = experiment_table(dataset, cfg)
        row1 = result.row(ROW_SR_ONLY)
        row2 = result.row(ROW_ALL_SINGLE)
        assert row1.pr_auc.point == row2.pr_auc.point


def _artifacts(result):
    """Canonical bytes of what a fortress run or experiment table produced."""
    if isinstance(result, pipeline.ExperimentResult):
        models = [serialize(result.models[r.name]) for r in result.rows]
        return (dumps_canonical(result.to_dict()), *map(dumps_canonical, models),
                *_artifacts(result.fortress))
    return (dumps_canonical(result.trace.to_dict()), dumps_canonical(serialize(result.model)),
            dumps_canonical(serialize(result.baseline)))


def _at_workers(monkeypatch, n, run):
    monkeypatch.setattr(pipeline, "_worker_count", lambda: n)
    out = run()
    assert multiprocessing.active_children() == []
    return out


def _in_daemon(queue, dataset):
    try:
        queue.put(_artifacts(fortress_run(dataset, FAST)))
    except Exception as exc:  # report it, so the parent does not wait in vain
        queue.put(repr(exc))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
class TestCandidateWorkers:
    """Candidates evaluated ahead on worker processes commit exactly as the
    serial loop does."""

    CFG = PipelineConfig(
        train=TrainConfig(rounds=25), bootstrap_b=120, candidates=8,
        mode=NON_INFERIOR, seed=5,
    )

    def test_fortress_run_identical_across_worker_counts(self, monkeypatch):
        dataset, _ = generate(SMALL_SYNTH)
        runs = [_at_workers(monkeypatch, n, lambda: fortress_run(dataset, self.CFG))
                for n in (1, 2, 3)]
        accepted = [k for k, it in enumerate(runs[0].trace.iterations) if it.accepted]
        # restarts after an acceptance, with candidates left to evaluate
        assert accepted and accepted[0] < self.CFG.candidates - 1
        assert _artifacts(runs[1]) == _artifacts(runs[0])
        assert _artifacts(runs[2]) == _artifacts(runs[0])
        # and later candidates were evaluated against the accepted state
        result = runs[0]
        rows = rows_in_partition(dataset, result.partition, TRAIN)
        fresh = train(
            TrainMatrix(dataset.X[rows], dataset.binary_labels()[rows]),
            config=self.CFG.train,
            mask=mask_from_names(dataset.schema, result.trace.final_features),
            schema=dataset.schema,
        )
        assert dumps_canonical(serialize(result.model)) == dumps_canonical(serialize(fresh))

    def test_experiment_table_identical_across_worker_counts(self, monkeypatch):
        dataset, _ = generate(SMALL_SYNTH)
        cfg = PipelineConfig(
            train=TrainConfig(rounds=10, row_subsample=0.8, col_subsample=0.8),
            bootstrap_b=60, candidates=5, seed=5,
        )
        serial, forked = (_at_workers(monkeypatch, n, lambda: experiment_table(dataset, cfg))
                          for n in (1, 2))
        assert _artifacts(forked) == _artifacts(serial)

    def test_failing_candidate_raises_at_the_same_candidate(self, monkeypatch, caplog):
        dataset, _ = generate(SMALL_SYNTH)
        failing = {mix64(self.CFG.seed, i): i for i in range(2, 8)}
        real = pipeline.paired_delta_significance

        def paired(*args, seed, **kwargs):
            if seed in failing:
                raise ValueError(f"bootstrap failed at candidate {failing[seed]}")
            return real(*args, seed=seed, **kwargs)

        monkeypatch.setattr(pipeline, "paired_delta_significance", paired)
        caplog.set_level(logging.INFO, logger=pipeline.__name__)
        for n in (1, 2):
            caplog.clear()
            with pytest.raises(ValueError, match="bootstrap failed at candidate 2$"):
                _at_workers(monkeypatch, n, lambda: fortress_run(dataset, self.CFG))
            assert multiprocessing.active_children() == []
            committed = [r.getMessage().split()[1] for r in caplog.records
                         if r.getMessage().startswith("prune ")]
            assert committed == ["1/8", "2/8"]

    def test_daemonic_process_falls_back_to_serial(self, monkeypatch):
        # a daemonic process may not start children, so a pool there would fail
        dataset, _ = generate(SMALL_SYNTH)
        monkeypatch.setattr(pipeline, "_worker_count", lambda: 2)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_in_daemon, args=(queue, dataset), daemon=True)
        child.start()
        got = queue.get(timeout=300)
        child.join(timeout=60)
        assert not child.is_alive()
        assert got == _at_workers(monkeypatch, 1, lambda: _artifacts(fortress_run(dataset, FAST)))

    def test_other_threads_keep_the_pass_serial(self, monkeypatch):
        # forking now would copy locks the other thread may hold
        dataset, _ = generate(SMALL_SYNTH)
        serial = _at_workers(monkeypatch, 1, lambda: _artifacts(fortress_run(dataset, FAST)))

        def no_pool(method=None):
            raise AssertionError("a pool was started while another thread ran")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            assert _at_workers(monkeypatch, 2, lambda: _artifacts(fortress_run(dataset, FAST))) == serial
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()


def _classified(monkeypatch):
    """Records ``(dropped column, settled)`` for every candidate the prune
    loop classifies."""
    seen = []
    real = pipeline._keeps_every_tree

    def recording(model, tm, config, mask):
        settled = real(model, tm, config, mask)
        seen.append((int(np.nonzero(model.mask & ~mask)[0][0]), settled))
        return settled

    monkeypatch.setattr(pipeline, "_keeps_every_tree", recording)
    return seen


class TestSettledCandidates:
    """A candidate the current model never splits on is settled in the
    calling process, with the outcome its retrain would have had."""

    # noninferior: an acceptance makes a settled candidate a used feature
    NONINFERIOR = PipelineConfig(
        train=TrainConfig(rounds=25), bootstrap_b=60, candidates=12, mode=NON_INFERIOR,
        seed=5,
    )
    STRICT = PipelineConfig(
        train=TrainConfig(rounds=25), bootstrap_b=60, candidates=12, seed=5
    )
    # two-level trees over six rounds split on none of the candidates
    UNUSED = PipelineConfig(
        train=TrainConfig(rounds=6, max_depth=2), bootstrap_b=60, candidates=8,
        mode=NON_INFERIOR, seed=5,
    )

    @pytest.mark.parametrize("cfg", [NONINFERIOR, STRICT], ids=["noninferior", "strict"])
    def test_settling_equals_retraining(self, monkeypatch, cfg):
        dataset, _ = generate(SMALL_SYNTH)
        seen = _classified(monkeypatch)
        settled = _at_workers(monkeypatch, 1, lambda: fortress_run(dataset, cfg))
        assert any(s for _, s in seen) and not all(s for _, s in seen)
        if cfg.mode == NON_INFERIOR:
            assert any(it.accepted for it in settled.trace.iterations)
            # classification is redone after an acceptance, and a column
            # settled against the old model is retrained against the new one
            first = {}
            for j, s in seen:
                first.setdefault(j, s)
            assert any(first[j] and not s for j, s in seen)
        monkeypatch.setattr(pipeline, "_keeps_every_tree", lambda *args: False)
        retrained = _at_workers(monkeypatch, 1, lambda: fortress_run(dataset, cfg))
        assert _artifacts(settled) == _artifacts(retrained)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_no_worker_starts_when_every_candidate_is_unused(self, monkeypatch):
        dataset, _ = generate(SMALL_SYNTH)

        def run():
            return _artifacts(fortress_run(dataset, self.UNUSED))

        monkeypatch.setattr(pipeline, "_keeps_every_tree", lambda *args: False)
        retrained = _at_workers(monkeypatch, 2, run)
        monkeypatch.undo()

        def no_pool(method=None):
            raise AssertionError("a worker was started")

        seen = _classified(monkeypatch)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        settled = _at_workers(monkeypatch, 2, run)
        assert len(seen) == self.UNUSED.candidates and all(s for _, s in seen)
        assert settled == retrained
