"""Unit tests for the stability analysis (cohort selection and attribution)."""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

from fortress.data import VAL, build_dataset
from fortress.flipflop import flip_flop_rate, tau_from_percentile
from fortress.model import BoostedModel, TrainConfig, Tree
from fortress.pipeline import evaluate_model
from fortress.stability import (
    AUTO,
    build_stability_report,
    high_cv_entities,
    per_feature_cv,
    prune_candidates,
    score_entities,
    score_entity_series,
)


def _dataset(schema, rows):
    """rows: list of (entity, snapshot, values...)."""
    return build_dataset(
        schema=schema,
        snapshot_kind="int",
        entity_ids=np.array([r[0] for r in rows]),
        snapshot_ids=np.array([str(r[1]) for r in rows]),
        regions=np.array(["r"] * len(rows)),
        labels=np.array([1] * len(rows)),
        X=np.array([list(r[2:]) for r in rows], dtype=np.float64),
    )


def _step_model(schema, feature_ix, threshold=0.5):
    """margin -1 below threshold, +1 at or above; NaN goes left."""
    tree = Tree.from_node_dict(
        {
            "feature": feature_ix,
            "threshold": threshold,
            "default": "left",
            "left": {"weight": -1.0},
            "right": {"weight": 1.0},
        }
    )
    return BoostedModel(
        schema=tuple(schema),
        mask=np.ones(len(schema), dtype=np.bool_),
        base_score=0.0,
        config=TrainConfig(rounds=1),
        trees=[tree],
    )


class TestScoreEntitySeries:
    SCHEMA = ("f_a", "f_b")

    def _toy(self):
        return _dataset(
            self.SCHEMA,
            [
                ("e1", 0, 0.0, 9.0),
                ("e1", 1, 1.0, 9.0),
                ("e2", 0, 1.0, 9.0),
            ],
        )

    def test_scores_follow_snapshot_order(self):
        series = score_entity_series(_step_model(self.SCHEMA, 0), self._toy())
        assert set(series) == {"e1", "e2"}
        np.testing.assert_allclose(
            series["e1"], [1 / (1 + np.e), np.e / (1 + np.e)], rtol=1e-12
        )
        assert series["e2"].shape == (1,)

    def test_subset_and_empty_selection(self):
        model = _step_model(self.SCHEMA, 0)
        assert set(score_entity_series(model, self._toy(), ["e2"])) == {"e2"}
        assert score_entity_series(model, self._toy(), []) == {}

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            score_entity_series(_step_model(("f_a",), 0), self._toy())

    def test_unknown_entity_rejected(self):
        with pytest.raises(ValueError, match="unknown entity"):
            score_entity_series(_step_model(self.SCHEMA, 0), self._toy(), ["zzz"])


# every caller of score_entities, with the message it gives an empty selection
SCORING_CALLERS = [
    (score_entity_series, None),
    (flip_flop_rate, "cannot evaluate flip-flops on an empty entity set"),
    (tau_from_percentile, "cannot derive tau from an empty entity set"),
    (functools.partial(evaluate_model, b=20), "cannot evaluate on an empty entity set"),
]


class TestScoreEntities:
    SCHEMA = ("f_a", "f_b")

    def _toy(self):
        return _dataset(
            self.SCHEMA,
            [("e2", 0, 1.0, 9.0), ("e1", 1, 1.0, 9.0), ("e1", 0, 0.0, 9.0), ("e3", 0, 0.2, 9.0)],
        )

    def test_sorted_distinct_entities_their_rows_and_scores(self):
        ds, model = self._toy(), _step_model(self.SCHEMA, 0)
        entities, rows, scores = score_entities(model, ds, ["e3", "e1", "e3"])
        assert entities == ["e1", "e3"]
        assert rows.tolist() == ds.rows_for(["e1", "e3"]).tolist() == [0, 1, 3]
        assert scores.tolist() == model.predict(ds.X[[0, 1, 3]]).tolist()
        everything = score_entities(model, ds)
        assert everything[0] == ["e1", "e2", "e3"] and everything[1].tolist() == [0, 1, 2, 3]

    def test_rows_out_of_canonical_order_keep_their_entity(self):
        ds = build_dataset(
            self.SCHEMA, "int", np.array(["e2", "e2", "e1"]), np.array(["0", "1", "0"]),
            np.array(["r"] * 3), np.array([1, 1, 1]), np.array([[0.0, 9.0], [1.0, 9.0], [1.0, 9.0]]),
            sort=False,
        )
        model = _step_model(self.SCHEMA, 0)
        series = score_entity_series(model, ds)
        assert list(series) == ["e1", "e2"]
        for e, scores in series.items():
            start, stop = ds.entity_rows(e)
            assert scores.tolist() == model.predict(ds.X[start:stop]).tolist()

    def test_empty_selection_scores_no_rows(self):
        entities, rows, scores = score_entities(_step_model(self.SCHEMA, 0), self._toy(), [])
        assert entities == [] and rows.size == 0 and scores.size == 0

    @pytest.mark.parametrize("caller, message", SCORING_CALLERS)
    def test_empty_selection_message(self, caller, message):
        if message is None:
            assert caller(_step_model(self.SCHEMA, 0), self._toy(), []) == {}
            return
        with pytest.raises(ValueError) as exc:
            caller(_step_model(self.SCHEMA, 0), self._toy(), [])
        assert str(exc.value) == message

    @pytest.mark.parametrize("caller", [c for c, _ in SCORING_CALLERS])
    @pytest.mark.parametrize("ids", [["e1"], []])
    def test_schema_message_comes_first(self, caller, ids):
        with pytest.raises(ValueError) as exc:
            caller(_step_model(("f_a",), 0), self._toy(), ids)
        assert str(exc.value) == (
            "model schema does not match dataset schema; model has 1 features, dataset 2"
        )

    @pytest.mark.parametrize("caller", [c for c, _ in SCORING_CALLERS])
    def test_unknown_entity_message(self, caller):
        with pytest.raises(ValueError) as exc:
            caller(_step_model(self.SCHEMA, 0), self._toy(), ["e1", "zzz"])
        assert str(exc.value) == "unknown entity id: 'zzz'"


class TestHighCvEntities:
    def test_nearest_rank_threshold_on_four_entities(self):
        series = {
            "flat": [1.0, 1.0],     # cv 0
            "mild": [3.0, 5.0],     # cv 0.25
            "warm": [1.0, 2.0],     # cv 1/3
            "wild": [2.0, 6.0],     # cv 0.5
        }
        cohort = high_cv_entities(series, percentile=75.0)
        assert cohort.threshold == pytest.approx(1 / 3)
        assert cohort.selected == ("warm", "wild")
        assert cohort.per_entity_cv["flat"] == 0.0

    def test_identical_cvs_select_everyone(self):
        series = {f"e{i}": [2.0, 4.0] for i in range(5)}
        cohort = high_cv_entities(series)
        assert len(cohort.selected) == 5

    def test_short_series_are_skipped(self):
        series = {"long": [1.0, 2.0], "short": [5.0], "other": [1.0, 3.0]}
        cohort = high_cv_entities(series)
        assert "short" not in cohort.per_entity_cv
        assert set(cohort.per_entity_cv) == {"long", "other"}

    def test_all_short_is_an_error(self):
        with pytest.raises(ValueError, match="2 or more snapshots"):
            high_cv_entities({"a": [1.0], "b": [2.0]})

    def test_percentile_100_keeps_only_max(self):
        series = {"a": [1.0, 2.0], "b": [1.0, 3.0], "c": [1.0, 4.0]}
        cohort = high_cv_entities(series, percentile=100.0)
        assert cohort.selected == ("c",)

    def test_cohort_never_empty(self, rng):
        series = {f"e{i}": rng.random(4) + 0.5 for i in range(30)}
        assert len(high_cv_entities(series, percentile=100.0).selected) >= 1


class TestPerFeatureCv:
    def test_median_over_contributing_entities(self):
        ds = _dataset(
            ("f_a", "f_b"),
            [
                ("e1", 0, 1.0, -1.0),
                ("e1", 1, 3.0, 1.0),
                ("e2", 0, 2.0, 5.0),
                ("e2", 1, 2.0, 5.0),
            ],
        )
        ranking = dict(per_feature_cv(ds, ["e1", "e2"]))
        # f_a: e1 gives pstdev/|mean| = 1/2, e2 gives 0 -> median 0.25
        assert ranking["f_a"] == pytest.approx(0.25)
        # f_b: e1 is zero-mean so the eps denominator explodes the ratio
        assert ranking["f_b"] > 1e11

    def test_snapshot_constant_feature_scores_zero(self):
        ds = _dataset(
            ("f_const", "f_moves"),
            [("e", 0, 7.0, 1.0), ("e", 1, 7.0, 2.0), ("e", 2, 7.0, 4.0)],
        )
        ranking = per_feature_cv(ds, ["e"])
        assert ranking[0][0] == "f_moves"
        assert dict(ranking)["f_const"] == 0.0

    def test_no_contributor_ranks_after_equal_zero_with_contributors(self):
        ds = _dataset(
            ("f_gone", "f_const"),
            [("e", 0, np.nan, 3.0), ("e", 1, np.nan, 3.0)],
        )
        ranking = per_feature_cv(ds, ["e"])
        assert ranking == (("f_const", 0.0), ("f_gone", 0.0))

    def test_single_present_value_does_not_contribute(self):
        ds = _dataset(
            ("f_a",),
            [("e", 0, 5.0), ("e", 1, np.nan), ("f", 0, 1.0), ("f", 1, 2.0)],
        )
        # e has one present value -> only f contributes: cv = 0.5/1.5
        ranking = per_feature_cv(ds, ["e", "f"])
        assert ranking[0][1] == pytest.approx(0.5 / 1.5)

    def test_ties_fall_back_to_schema_position(self):
        ds = _dataset(
            ("f_b", "f_a"),
            [("e", 0, 1.0, 1.0), ("e", 1, 2.0, 2.0)],
        )
        assert [n for n, _ in per_feature_cv(ds, ["e"])] == ["f_b", "f_a"]

    def test_feature_names_restrict_the_ranking(self):
        ds = _dataset(
            ("f_a", "f_b"),
            [("e", 0, 1.0, 9.0), ("e", 1, 2.0, 9.0)],
        )
        assert [n for n, _ in per_feature_cv(ds, ["e"], ["f_b"])] == ["f_b"]

    def test_errors(self):
        ds = _dataset(("f_a",), [("e", 0, 1.0), ("e", 1, 2.0)])
        with pytest.raises(ValueError, match="empty entity set"):
            per_feature_cv(ds, [])
        with pytest.raises(ValueError, match="not in dataset schema"):
            per_feature_cv(ds, ["e"], ["f_zzz"])


class TestPruneCandidates:
    RANKING = tuple((f"f_{i}", 1.0 - i / 30) for i in range(25))

    def test_auto_takes_ceil_half(self):
        picked = prune_candidates(self.RANKING, AUTO)
        assert len(picked) == 13
        assert picked == tuple(f"f_{i}" for i in range(13))

    def test_explicit_k(self):
        assert prune_candidates(self.RANKING, 3) == ("f_0", "f_1", "f_2")
        assert len(prune_candidates(self.RANKING, 25)) == 25

    def test_auto_on_single_feature(self):
        assert prune_candidates((("f_only", 0.5),)) == ("f_only",)

    @pytest.mark.parametrize("k", [0, -2, 26])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValueError):
            prune_candidates(self.RANKING, k)

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValueError, match="empty ranking"):
            prune_candidates(())


class TestSnapshotConstantModelScores:
    def test_sr_only_model_has_zero_score_cv_everywhere(self):
        # A model that only reads snapshot-constant columns cannot wobble,
        # even for entities whose SR values are missing (NaN every snapshot).
        ds = _dataset(
            ("f_sr_0", "f_eng_0"),
            [
                ("e1", 0, 0.8, 1.0),
                ("e1", 1, 0.8, 9.0),
                ("e2", 0, np.nan, 2.0),
                ("e2", 1, np.nan, -3.0),
            ],
        )
        model = _step_model(ds.schema, 0)
        cohort = high_cv_entities(score_entity_series(model, ds))
        assert all(v == 0.0 for v in cohort.per_entity_cv.values())


@pytest.fixture(scope="module")
def report(bench_dataset, bench_partition, bench_baseline):
    val = [e for e in bench_dataset.entities if bench_partition.part_of(e) == VAL]
    return build_stability_report(bench_baseline, bench_dataset, val, 75.0)


class TestBenchmarkReport:
    """Stability analysis on the default benchmark, baseline model, VAL split."""

    def test_cohort_is_top_quartile(self, report):
        n_scored = len(report.per_entity_cv)
        frac = len(report.high_cv_entities) / n_scored
        assert 0.24 <= frac <= 0.30
        assert report.cv_threshold > 0.0
        assert all(
            report.per_entity_cv[e] >= report.cv_threshold
            for e in report.high_cv_entities
        )

    def test_planted_noise_features_rank_top8(self, report):
        top8 = {name for name, _ in report.feature_cv_ranking[:8]}
        assert top8 == {f"f_eng_noise_{j}" for j in range(8)}

    def test_auto_candidates_include_all_noise(self, report):
        picked = prune_candidates(report.feature_cv_ranking, AUTO)
        assert len(picked) == 13
        assert {f"f_eng_noise_{j}" for j in range(8)} <= set(picked)

    def test_sr_features_rank_last(self, report):
        tail = {name for name, _ in report.feature_cv_ranking[-2:]}
        assert tail == {"f_sr_0", "f_sr_1"}

    def test_cohort_mildly_enriched_in_planted_disturbance(self, report, bench):
        # The cohort skews toward entities whose planted disturbances were
        # objectively larger. The skew is mild: realized disturbance variance
        # is tightly concentrated across 23 features, and score wobble also
        # tracks proximity to the decision boundary.
        _, truth = bench
        ix = {e: i for i, e in enumerate(truth.entity_ids)}
        med = float(np.median(truth.noise_exposure))
        coh = np.array([truth.noise_exposure[ix[e]] for e in report.high_cv_entities])
        rest = np.array([truth.noise_exposure[ix[e]] for e in report.per_entity_cv])
        frac_coh = float(np.mean(coh > med))
        frac_all = float(np.mean(rest > med))
        assert frac_coh > frac_all * 1.05

    def test_report_dict_is_json_ready(self, report):
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["kind"] == "stability_report"
        assert [tuple(pair) for pair in doc["feature_cv_ranking"]] == list(report.feature_cv_ranking)
        assert tuple(doc["high_cv_entities"]) == report.high_cv_entities
        assert doc["cv_threshold"] == report.cv_threshold
        assert doc["per_entity_cv"] == report.per_entity_cv
