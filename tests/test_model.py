"""Unit tests for the boosted-tree trainer and model artifact."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fortress import model as model_module
from fortress.model import (
    BoostedModel,
    TrainConfig,
    TrainMatrix,
    Tree,
    deserialize,
    dumps_canonical,
    load_model,
    log_loss_from_margins,
    loss_curve,
    mask_from_names,
    save_model,
    serialize,
    train,
)


def _xor_dataset():
    # Unbalanced cell counts so a constant or single-feature model cannot
    # reach accuracy 1.0: 16x(0,0)->0, 8x(0,1)->1, 12x(1,0)->1, 12x(1,1)->0.
    cells = [((0.0, 0.0), 0, 16), ((0.0, 1.0), 1, 8), ((1.0, 0.0), 1, 12), ((1.0, 1.0), 0, 12)]
    rows, labels = [], []
    for (a, b), lab, count in cells:
        rows += [(a, b)] * count
        labels += [lab] * count
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.float64)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.rounds == 100
        assert cfg.max_depth == 3
        assert cfg.learning_rate == 0.1
        assert cfg.l2_lambda == 1.0
        assert cfg.min_child_hessian == 1.0
        assert cfg.gain_threshold == 0.0
        assert cfg.row_subsample == 1.0
        assert cfg.col_subsample == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"max_depth": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"l2_lambda": -0.1},
            {"min_child_hessian": -1.0},
            {"row_subsample": 0.0},
            {"col_subsample": 1.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_rejects_zero_lambda_with_zero_min_child_hessian(self):
        with pytest.raises(ValueError, match="must not both be 0"):
            TrainConfig(l2_lambda=0.0, min_child_hessian=0.0)
        TrainConfig(l2_lambda=0.0, min_child_hessian=1.0)
        TrainConfig(l2_lambda=1.0, min_child_hessian=0.0)

    def test_dict_round_trip(self):
        cfg = TrainConfig(rounds=7, max_depth=2, learning_rate=0.3, seed=9)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig.from_dict({"rounds": 5, "bogus": 1})


class TestTrainMatrix:
    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            TrainMatrix(np.zeros(4), np.zeros(4))  # 1-d X
        with pytest.raises(ValueError):
            TrainMatrix(np.zeros((4, 2)), np.zeros(3))  # length mismatch
        with pytest.raises(ValueError):
            TrainMatrix(np.zeros((4, 2)), np.array([0.0, 1.0, 0.5, 1.0]))
        bad = np.zeros((4, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            TrainMatrix(bad, np.array([0.0, 1.0, 0.0, 1.0]))

    def test_presort_is_cached_and_stable(self, rng):
        X = np.round(rng.random((30, 3)), 1)
        X[rng.random((30, 3)) < 0.2] = np.nan
        tm = TrainMatrix(X, (rng.random(30) < 0.5).astype(float))
        assert tm.presort is tm.presort
        vals_sorted, sort_rows, offsets = tm.presort
        for j in range(3):
            seg = vals_sorted[offsets[j] : offsets[j + 1]]
            assert not np.isnan(seg).any()
            assert np.all(np.diff(seg) >= 0)
            assert seg.size == np.count_nonzero(~np.isnan(X[:, j]))
            # stable: rows with equal values keep ascending row order
            rows = sort_rows[offsets[j] : offsets[j + 1]]
            for v in np.unique(seg):
                tied = rows[seg == v]
                assert np.all(np.diff(tied) > 0)


class TestTrainBasics:
    def test_single_class_labels_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            train(np.zeros((5, 2)), np.zeros(5))

    def test_matrix_and_y_are_mutually_exclusive(self, rng):
        X = rng.random((10, 2))
        y = (rng.random(10) < 0.5).astype(float)
        tm = TrainMatrix(X, y)
        with pytest.raises(ValueError, match="not both"):
            train(tm, y)
        with pytest.raises(ValueError, match="y is required"):
            train(X)

    def test_base_score_is_log_odds_of_positive_rate(self, rng):
        X = rng.random((40, 2))
        y = np.array([1.0] * 10 + [0.0] * 30)
        model = train(X, y, TrainConfig(rounds=1))
        assert model.base_score == math.log((10 / 40) / (30 / 40))

    def test_default_schema_and_custom_schema(self, rng):
        X = rng.random((20, 3))
        y = (rng.random(20) < 0.5).astype(float)
        assert train(X, y, TrainConfig(rounds=1)).schema == ("x0", "x1", "x2")
        named = train(X, y, TrainConfig(rounds=1), schema=["a", "b", "c"])
        assert named.schema == ("a", "b", "c")
        with pytest.raises(ValueError, match="schema"):
            train(X, y, TrainConfig(rounds=1), schema=["a", "b"])

    def test_rounds_produce_that_many_trees(self, rng):
        X = rng.random((30, 2))
        y = (X[:, 0] > 0.5).astype(float)
        model = train(X, y, TrainConfig(rounds=6))
        assert len(model.trees) == 6


class TestZeroHessianNode:
    """With ``l2_lambda = 0`` a node whose scores are all saturated has
    ``H + lambda == 0``: it becomes a leaf of weight 0 without a split
    search, where both the search and the leaf weight used to divide by 0."""

    def test_saturated_root_is_a_zero_leaf(self, monkeypatch):
        # 35 positives and 1 negative on a constant feature: by round 4 the
        # 70% row sample scores every row at exactly p = 1, so h = p(1-p) = 0
        X = np.zeros((36, 1))
        y = np.ones(36)
        y[0] = 0.0
        cfg = TrainConfig(
            rounds=6, max_depth=1, learning_rate=1.0, l2_lambda=0.0, min_child_hessian=1.0,
            row_subsample=0.7, seed=5,
        )
        searched = []
        real = model_module.K.best_split
        monkeypatch.setattr(
            model_module.K, "best_split", lambda *a: searched.append(1) or real(*a)
        )
        model = train(X, y, cfg)
        assert [t.weight[0].hex() for t in model.trees[4:]] == ["0x0.0p+0", "0x0.0p+0"]
        assert all(t.n_nodes == 1 for t in model.trees)
        assert len(searched) == 4
        assert model.predict(X[:1]) == 1.0


class TestHandComputedSplit:
    """One round, one split, on a 4-row problem small enough to do on paper."""

    CFG = TrainConfig(rounds=1, max_depth=1, min_child_hessian=0.0)

    def _model(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        return train(X, y, self.CFG)

    def test_structure_threshold_and_default(self):
        tree = self._model().trees[0]
        assert tree.feature[0] == 0
        # midpoint of the adjacent distinct values 1 and 2
        assert tree.threshold[0] == 1.5
        # no missing values: both default directions tie, ties resolve left
        assert bool(tree.default_left[0]) is True

    def test_leaf_weights_match_closed_form(self):
        # p = 0.5 everywhere at round 0, so g = +-0.5 and h = 0.25 per row;
        # weight = -G/(H+lambda)*lr with G=+-1.0, H=0.5.
        tree = self._model().trees[0]
        expected = (1.0 / (0.5 + 1.0)) * self.CFG.learning_rate
        left, right = int(tree.left[0]), int(tree.right[0])
        assert tree.weight[left] == -expected
        assert tree.weight[right] == expected

    def test_margins_are_base_plus_leaf(self):
        model = self._model()
        margins = model.predict_margin(np.array([[0.0], [3.0]]))
        w = (1.0 / 1.5) * self.CFG.learning_rate
        assert model.base_score == 0.0
        assert margins[0] == -w
        assert margins[1] == w


class TestRouting:
    def _one_split_model(self, default):
        tree = Tree.from_node_dict(
            {
                "feature": 0,
                "threshold": 0.5,
                "default": default,
                "left": {"weight": -1.0},
                "right": {"weight": 1.0},
            }
        )
        return BoostedModel(
            schema=("x0",),
            mask=np.array([True]),
            base_score=0.0,
            config=TrainConfig(rounds=1),
            trees=[tree],
        )

    def test_value_below_goes_left_at_or_above_goes_right(self):
        model = self._one_split_model("right")
        X = np.array([[0.2], [0.5], [0.7]])
        assert model.predict_margin(X).tolist() == [-1.0, 1.0, 1.0]

    @pytest.mark.parametrize("default,expected", [("left", -1.0), ("right", 1.0)])
    def test_nan_routes_by_default_direction(self, default, expected):
        model = self._one_split_model(default)
        assert model.predict_margin(np.array([[np.nan]]))[0] == expected


class TestLearning:
    def test_xor_depth2_reaches_perfect_accuracy(self):
        X, y = _xor_dataset()
        model = train(X, y, TrainConfig(rounds=50, max_depth=2))
        pred = (model.predict(X) >= 0.5).astype(float)
        assert np.array_equal(pred, y)

    def test_xor_depth1_cannot_separate(self):
        X, y = _xor_dataset()
        model = train(X, y, TrainConfig(rounds=50, max_depth=1))
        pred = (model.predict(X) >= 0.5).astype(float)
        assert not np.array_equal(pred, y)

    def test_separable_problem_loss_strictly_decreases(self, rng):
        X = rng.random((200, 3))
        y = (X[:, 0] > 0.5).astype(float)
        model = train(X, y, TrainConfig(rounds=10))
        curve = loss_curve(model, X, y)
        assert curve.size == 10
        assert np.all(np.diff(curve) < 0)
        assert np.array_equal((model.predict(X) >= 0.5).astype(float), y)

    def test_loss_curve_starts_below_base_loss(self, rng):
        X = rng.random((120, 4))
        y = (X[:, 1] > 0.3).astype(float)
        model = train(X, y, TrainConfig(rounds=5))
        base = log_loss_from_margins(np.full(120, model.base_score), y)
        assert loss_curve(model, X, y)[0] < base


class TestMaskAndBlocking:
    def test_mask_limits_features_used(self, rng):
        X = rng.random((150, 4))
        y = (X[:, 0] + X[:, 2] > 1.0).astype(float)
        mask = np.array([False, True, False, True])
        model = train(X, y, TrainConfig(rounds=20), mask=mask)
        assert set(model.features_used()) <= {1, 3}
        assert model.active_features() == ("x1", "x3")

    def test_empty_mask_rejected(self, rng):
        X = rng.random((10, 2))
        y = (rng.random(10) < 0.5).astype(float)
        with pytest.raises(ValueError, match="mask"):
            train(X, y, mask=np.array([False, False]))
        with pytest.raises(ValueError, match="mask"):
            train(X, y, mask=np.array([True]))

    def test_mask_from_names(self):
        schema = ("a", "b", "c")
        assert mask_from_names(schema, ["c", "a"]).tolist() == [True, False, True]
        with pytest.raises(ValueError, match="not in schema"):
            mask_from_names(schema, ["a", "zzz"])

    def test_huge_gain_threshold_blocks_all_splits(self, rng):
        X = rng.random((100, 3))
        y = (X[:, 0] > 0.5).astype(float)
        model = train(X, y, TrainConfig(rounds=5, gain_threshold=100.0))
        assert model.features_used() == ()
        # Every tree is a bare leaf; scores stay at the prior positive rate.
        assert np.max(np.abs(model.predict(X) - np.mean(y))) < 1e-12

    def test_min_child_hessian_blocks_small_leaves(self):
        # Four rows at h=0.25 each: any split leaves H < 1.0 on both sides.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train(X, y, TrainConfig(rounds=3))
        assert model.features_used() == ()


class TestDeterminismAndSubsampling:
    def test_repeat_training_is_byte_identical(self, rng):
        X = rng.random((200, 5))
        X[rng.random((200, 5)) < 0.15] = np.nan
        y = (rng.random(200) < 0.4).astype(float)
        cfg = TrainConfig(rounds=15, max_depth=3, row_subsample=0.7, col_subsample=0.6, seed=3)
        a = dumps_canonical(serialize(train(X, y, cfg)))
        b = dumps_canonical(serialize(train(X, y, cfg)))
        assert a == b

    def test_subsample_seed_changes_model(self, rng):
        X = rng.random((200, 5))
        y = (rng.random(200) < 0.4).astype(float)
        base = dict(rounds=10, row_subsample=0.7, col_subsample=0.6)
        a = serialize(train(X, y, TrainConfig(seed=1, **base)))
        b = serialize(train(X, y, TrainConfig(seed=2, **base)))
        assert dumps_canonical(a) != dumps_canonical(b)

    def test_full_sample_ignores_seed(self, rng):
        X = rng.random((150, 4))
        y = (X[:, 0] > 0.4).astype(float)
        a = serialize(train(X, y, TrainConfig(rounds=8, seed=1)))
        b = serialize(train(X, y, TrainConfig(rounds=8, seed=2)))
        a["config"]["seed"] = b["config"]["seed"] = 0
        assert dumps_canonical(a) == dumps_canonical(b)


def _train_configs(col_subsample):
    # TrainConfig rejects l2_lambda == min_child_hessian == 0
    regularization = st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 1.0])
    ).filter(lambda lam_h: lam_h != (0.0, 0.0))
    return regularization.flatmap(lambda lam_h: st.builds(
        TrainConfig,
        rounds=st.integers(1, 8),
        max_depth=st.integers(1, 3),
        learning_rate=st.sampled_from([0.1, 0.5, 1.0]),
        l2_lambda=st.just(lam_h[0]),
        min_child_hessian=st.just(lam_h[1]),
        gain_threshold=st.sampled_from([0.0, 0.05]),
        row_subsample=st.sampled_from([1.0, 0.7]),
        col_subsample=col_subsample,
        seed=st.integers(0, 1000),
    ))


@st.composite
def _warm_start_cases(draw, col_subsample=st.just(1.0)):
    """(matrix, config, mask): random data with ties, missing values, a
    duplicated column (equal gains across features) and an active constant
    column (never splittable), and a mask with at least three active
    features."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(30, 100))
    d = draw(st.integers(4, 7))
    constant = draw(st.integers(1, d - 3))
    X = np.floor(rng.random((n, d)) * draw(st.sampled_from([4, 1000])))
    X[:, d - 2] = X[:, 0]
    X[:, constant] = 1.0
    X[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.2]))] = np.nan
    y = (np.nan_to_num(X) @ rng.normal(size=d) + rng.normal(size=n) > 0).astype(float)
    y[:2] = (0.0, 1.0)
    mask = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)), dtype=np.bool_)
    mask[[0, constant, d - 1]] = True
    return TrainMatrix(X, y), draw(_train_configs(col_subsample)), mask


def _without(mask, j):
    out = mask.copy()
    out[j] = False
    return out


class TestWarmStart:
    @settings(max_examples=60, deadline=None)
    @given(case=_warm_start_cases(st.sampled_from([1.0, 0.7])), data=st.data())
    def test_retrain_from_prefix_equals_fresh_train(self, case, data):
        tm, cfg, mask = case
        prior = train(tm, config=cfg, mask=mask)
        drop = data.draw(st.sampled_from(np.nonzero(mask)[0].tolist()))
        after = _without(mask, drop)
        warm = train(tm, config=cfg, mask=after, warm_start=prior)
        fresh = train(tm, config=cfg, mask=after)
        assert dumps_canonical(serialize(warm)) == dumps_canonical(serialize(fresh))
        if cfg.col_subsample == 1.0:
            # every tree before the first split on the dropped feature is reused
            clean = [drop not in tree.feature for tree in prior.trees] + [False]
            assert warm.rounds_reused == clean.index(False)
            assert all(a is b for a, b in zip(warm.trees[:warm.rounds_reused], prior.trees))

    @settings(max_examples=40, deadline=None)
    @given(case=_warm_start_cases(), data=st.data())
    def test_unused_feature_trains_zero_rounds(self, case, data):
        tm, cfg, mask = case
        prior = train(tm, config=cfg, mask=mask)
        unused = sorted(set(np.nonzero(mask)[0].tolist()) - set(prior.features_used()))
        warm = train(tm, config=cfg, mask=_without(mask, data.draw(st.sampled_from(unused))),
                     warm_start=prior)
        assert warm.rounds_reused == cfg.rounds
        assert all(a is b for a, b in zip(warm.trees, prior.trees))

    @settings(max_examples=30, deadline=None)
    @given(case=_warm_start_cases(st.sampled_from([0.5, 0.7, 0.9])), data=st.data())
    def test_column_subsampling_reuses_no_tree(self, case, data):
        tm, cfg, mask = case
        prior = train(tm, config=cfg, mask=mask)
        drop = data.draw(st.sampled_from(np.nonzero(mask)[0].tolist()))
        warm = train(tm, config=cfg, mask=_without(mask, drop), warm_start=prior)
        assert warm.rounds_reused == 0
        assert not any(a is b for a, b in zip(warm.trees, prior.trees))

    def test_prior_from_elsewhere_is_not_reused(self, rng):
        X = rng.random((120, 4))
        X[:, 3] = 0.5  # never split on, so dropping it reuses every tree
        y = (X[:, 0] + X[:, 1] > 1.0).astype(float)
        tm = TrainMatrix(X, y)
        cfg = TrainConfig(rounds=6)
        prior = train(tm, config=cfg)
        mask = np.array([True, True, True, False])
        unusable = [
            train(TrainMatrix(X, y), config=cfg),  # another matrix, same values
            train(tm, config=TrainConfig(rounds=6, learning_rate=0.2)),
            train(tm, config=cfg, mask=[True, True, False, True]),  # mask would add x2
            deserialize(serialize(prior)),  # no training matrix attached
        ]
        fresh = dumps_canonical(serialize(train(tm, config=cfg, mask=mask)))
        assert train(tm, config=cfg, mask=mask, warm_start=prior).rounds_reused == 6
        for other in unusable:
            warm = train(tm, config=cfg, mask=mask, warm_start=other)
            assert warm.rounds_reused == 0
            assert dumps_canonical(serialize(warm)) == fresh


class TestSerialization:
    def _trained(self, rng):
        X = rng.random((300, 6))
        X[rng.random((300, 6)) < 0.2] = np.nan
        y = ((np.nan_to_num(X[:, 0]) + np.nan_to_num(X[:, 3])) > 0.9).astype(float)
        return train(X, y, TrainConfig(rounds=20), schema=[f"f{j}" for j in range(6)])

    def test_round_trip_preserves_scores_exactly(self, rng):
        model = self._trained(rng)
        clone = deserialize(serialize(model))
        Xq = rng.random((1000, 6))
        Xq[rng.random((1000, 6)) < 0.3] = np.nan
        assert np.array_equal(model.predict_margin(Xq), clone.predict_margin(Xq))
        assert clone.schema == model.schema
        assert clone.config == model.config
        assert np.array_equal(clone.mask, model.mask)

    def test_file_round_trip_is_byte_stable(self, rng, tmp_path):
        model = self._trained(rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        assert text == dumps_canonical(serialize(model))
        assert dumps_canonical(serialize(load_model(path))) == text

    def test_document_shape(self, rng):
        doc = serialize(self._trained(rng))
        assert doc["kind"] == "boosted_model"
        assert doc["version"] == 1
        assert len(doc["trees"]) == 20
        root = doc["trees"][0]
        assert root["default"] in ("left", "right")
        json.dumps(doc)  # must be JSON-ready without custom encoders

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(version=99),
            lambda d: d.pop("trees"),
            lambda d: d.pop("base_score"),
            lambda d: d["trees"][0].pop("threshold"),
            lambda d: d["trees"][0].update(default="sideways"),
            lambda d: d.update(mask=[True]),
        ],
    )
    def test_deserialize_rejects_malformed_documents(self, rng, mutate):
        doc = serialize(self._trained(rng))
        mutate(doc)
        with pytest.raises(ValueError):
            deserialize(doc)

    def test_deserialize_refuses_a_mistyped_config(self, rng):
        doc = serialize(self._trained(rng))
        doc["config"]["rounds"] = 2.5
        with pytest.raises(ValueError, match="^rounds must be an integer, got 2.5$"):
            deserialize(doc)

    def test_node_dict_round_trip_rebuilds_the_trainer_arrays(self, rng):
        for tree in self._trained(rng).trees:
            clone = Tree.from_node_dict(tree.to_node_dict())
            for name in ("feature", "threshold", "default_left", "left", "right", "weight"):
                expected, got = getattr(tree, name), getattr(clone, name)
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)

    def test_load_model_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_model(path)


class TestPredictApi:
    def test_single_row_returns_float(self, rng):
        X = rng.random((50, 2))
        y = (X[:, 0] > 0.5).astype(float)
        model = train(X, y, TrainConfig(rounds=3))
        out = model.predict([0.2, 0.9])
        assert isinstance(out, float)
        assert 0.0 < out < 1.0

    def test_wrong_width_rejected(self, rng):
        X = rng.random((50, 2))
        y = (X[:, 0] > 0.5).astype(float)
        model = train(X, y, TrainConfig(rounds=3))
        with pytest.raises(ValueError, match="schema width"):
            model.predict_margin(np.zeros((4, 3)))
