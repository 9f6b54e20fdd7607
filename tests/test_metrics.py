"""Metrics: CV, average precision, percentiles, and entity bootstraps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fortress.metrics import (
    ABS_MEAN_EPS,
    MEAN,
    _increments,
    bootstrap_ci,
    bootstrap_pr_auc_ci,
    cv,
    mean_entity_cv,
    paired_delta_significance,
    percentile_nearest_rank,
    pr_auc,
)
from oracles import (
    random_ap_instance,
    reference_average_precision,
    reference_cv,
    reference_percentile_nearest_rank,
)


class TestCv:
    def test_constant_series_is_zero(self):
        assert cv([0.5, 0.5, 0.5]) == 0.0

    def test_hand_value(self):
        # mu = 0.3, population sigma = 0.1
        assert cv([0.2, 0.4]) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_abs_mean_eps_degenerate_mean(self):
        # sigma = 1, |mu| = 0: the epsilon guard caps the ratio at 1e12
        assert cv([-1.0, 1.0], mode=ABS_MEAN_EPS) == pytest.approx(1e12)

    def test_matches_reference_on_random_series(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            values = rng.uniform(0.05, 1.0, size=n)
            assert cv(values, MEAN) == pytest.approx(reference_cv(values), abs=1e-12)
            # a near-zero mean amplifies last-ulp summation differences, so
            # the signed-series comparison is relative rather than absolute
            signed = rng.normal(size=n)
            assert cv(signed, ABS_MEAN_EPS) == pytest.approx(
                reference_cv(signed, mean_abs_eps=True), rel=1e-9
            )

    def test_scale_invariance(self, rng):
        values = rng.uniform(0.1, 1.0, size=17)
        assert cv(values * 37.5) == pytest.approx(cv(values), rel=1e-12)

    @pytest.mark.parametrize(
        "values, mode",
        [
            ([0.5], MEAN),
            ([], MEAN),
            ([0.0, 0.0], MEAN),  # non-positive mean
            ([-0.2, 0.1], MEAN),
            ([0.1, np.nan], MEAN),
            ([0.1, np.inf], MEAN),
        ],
    )
    def test_rejects_invalid_series(self, values, mode):
        with pytest.raises(ValueError):
            cv(values, mode)

    def test_rejects_unknown_mode_and_bad_shape(self):
        with pytest.raises(ValueError):
            cv([0.1, 0.2], mode="median")
        with pytest.raises(ValueError):
            cv(np.ones((2, 2)))


class TestPrAuc:
    def test_perfect_ranking(self):
        assert pr_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_hand_block_value(self):
        # blocks: [-] then [+] then [+]: AP = 1/2 * 1/2 + 1/2 * 2/3 = 7/12
        assert pr_auc([0.9, 0.8, 0.7], [0, 1, 1]) == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_all_tied_scores_give_prevalence(self):
        assert pr_auc([0.3] * 8, [1, 0, 0, 1, 0, 0, 0, 1]) == pytest.approx(3.0 / 8.0)

    def test_tie_order_independence(self, rng):
        scores, labels = random_ap_instance(rng)
        perm = rng.permutation(scores.size)
        assert pr_auc(scores, labels) == pr_auc(scores[perm], labels[perm])

    @given(
        rows=st.lists(st.tuples(st.sampled_from([0.1, 0.5, 0.7, 2.0]), st.integers(0, 1)),
                      min_size=1, max_size=40).filter(lambda r: any(y for _, y in r)),
        data=st.data(),
    )
    def test_reordering_tied_scores_keeps_ap(self, rows, data):
        # four score levels make most rows tied; the permutation keeps the
        # rows sorted by score, so only the order within each tie moves
        ranked = sorted(rows, key=lambda r: r[0])
        shuffled = sorted(data.draw(st.permutations(ranked)), key=lambda r: r[0])
        scores, labels = (np.array(col) for col in zip(*ranked))
        scores2, labels2 = (np.array(col) for col in zip(*shuffled))
        assert pr_auc(scores, labels) == pr_auc(scores2, labels2)

    def test_monotone_transform_invariance(self, rng):
        scores, labels = random_ap_instance(rng)
        assert pr_auc(scores, labels) == pr_auc(np.exp(3.0 * scores) + 7.0, labels)

    def test_matches_reference_on_random_instances(self, rng):
        for _ in range(250):
            scores, labels = random_ap_instance(rng)
            assert pr_auc(scores, labels) == pytest.approx(
                reference_average_precision(scores, labels), abs=1e-12
            )

    @pytest.mark.parametrize(
        "scores, labels",
        [
            ([], []),
            ([0.1, 0.2], [0, 0]),  # no positives
            ([0.1], [1, 0]),  # length mismatch
            ([0.1, np.nan], [1, 0]),
            ([0.1, 0.2], [1, 2]),  # non-binary
        ],
    )
    def test_rejects_invalid_input(self, scores, labels):
        with pytest.raises(ValueError):
            pr_auc(scores, labels)


class TestRecallIncrements:
    """``_increments`` replaces ``np.diff(recall, prepend=0.0)`` in the AP
    sums, so it must agree with it bit for bit."""

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60).filter(any))
    def test_matches_diff_on_recall_curves_with_ties(self, positives_per_block):
        # a block without positives repeats the previous recall exactly
        tp = np.cumsum(np.array(positives_per_block, dtype=np.float64))
        recall = tp / tp[-1]
        assert _increments(recall).tobytes() == np.diff(recall, prepend=0.0).tobytes()

    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=40))
    def test_matches_diff_on_any_floats(self, values):
        x = np.array(values, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            assert _increments(x).tobytes() == np.diff(x, prepend=0.0).tobytes()


class TestPercentileNearestRank:
    def test_hand_cases(self):
        assert percentile_nearest_rank([1, 2, 3, 4], 75) == 3.0
        assert percentile_nearest_rank([5], 75) == 5.0
        assert percentile_nearest_rank([3, 1, 2], 100) == 3.0

    def test_always_returns_an_element(self, rng):
        values = rng.normal(size=23)
        for p in (1, 10, 33.4, 50, 75, 99, 100):
            assert percentile_nearest_rank(values, p) in values

    def test_matches_reference(self, rng):
        for _ in range(200):
            values = rng.normal(size=int(rng.integers(1, 30)))
            p = float(rng.uniform(0.5, 100.0))
            assert percentile_nearest_rank(values, p) == reference_percentile_nearest_rank(
                values, p
            )

    def test_uniform_draws_land_near_p75(self, rng):
        values = rng.random(1000)
        assert 0.70 <= percentile_nearest_rank(values, 75) <= 0.80

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            percentile_nearest_rank([], 50)
        with pytest.raises(ValueError):
            percentile_nearest_rank([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile_nearest_rank([1.0], 100.5)
        with pytest.raises(ValueError):
            percentile_nearest_rank([np.nan], 50)


class TestBootstrapCi:
    def test_constant_statistic_collapses(self):
        ci = bootstrap_ci(lambda e: 3.25, np.arange(10), b=100, seed=1)
        assert ci.lo == ci.point == ci.hi == 3.25

    def test_determinism(self, rng):
        values = rng.normal(size=50)
        stat = lambda e: float(np.mean(values[e]))
        a = bootstrap_ci(stat, np.arange(50), b=200, seed=9)
        b = bootstrap_ci(stat, np.arange(50), b=200, seed=9)
        assert (a.lo, a.point, a.hi) == (b.lo, b.point, b.hi)
        c = bootstrap_ci(stat, np.arange(50), b=200, seed=10)
        assert (a.lo, a.hi) != (c.lo, c.hi)

    def test_width_matches_normal_theory(self, rng):
        # mean of 500 N(0,1) entities: 95% CI width ~ 2 * 1.96 / sqrt(500) ~ 0.175
        values = rng.normal(size=500)
        ci = bootstrap_ci(lambda e: float(np.mean(e)), values, b=1000, seed=3)
        assert 0.14 <= ci.hi - ci.lo <= 0.21

    def test_undefined_resamples_are_redrawn(self, rng):
        values = rng.normal(size=40)

        def picky(e):
            m = float(np.mean(e))
            if m < -0.2:
                raise ValueError("undefined here")
            return m

        ci = bootstrap_ci(picky, values, b=150, seed=4)
        assert ci.resamples == 150
        assert np.isfinite(ci.lo) and np.isfinite(ci.hi)

    def test_point_undefined_propagates(self):
        def never(e):
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            bootstrap_ci(never, np.arange(5), b=2, seed=0)

    def test_always_undefined_resamples_error_out(self):
        calls = {"n": 0}

        def resample_hostile(e):
            calls["n"] += 1
            if calls["n"] == 1:  # the full-sample point estimate
                return 0.0
            raise ValueError("undefined on every resample")

        with pytest.raises(ValueError, match="undefined too often"):
            bootstrap_ci(resample_hostile, np.arange(5), b=2, seed=0)

    def test_rejects_invalid_input(self):
        stat = lambda e: 0.0
        with pytest.raises(ValueError):
            bootstrap_ci(stat, np.arange(1), b=100, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci(stat, np.arange(10), b=1, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci(stat, np.arange(10), b=100, seed=0, level=1.0)
        with pytest.raises(ValueError):
            bootstrap_ci(stat, np.ones((2, 2)), b=100, seed=0)


class TestBootstrapPrAucCi:
    def test_equals_generic_bootstrap_with_materialized_rows(self, rng):
        # The weighted fast path must agree value-for-value with resampling
        # entity rows explicitly and rerunning plain pr_auc.
        n_ent = 30
        ents = np.repeat([f"e{i:02d}" for i in range(n_ent)], 4)
        scores = rng.random(ents.size)
        labels = (rng.random(ents.size) < 0.5).astype(float)
        labels[:4] = 1.0  # ensure positives survive most resamples
        by_ent = {e: np.nonzero(ents == e)[0] for e in np.unique(ents)}

        def materialized(chosen):
            rows = np.concatenate([by_ent[e] for e in chosen])
            return pr_auc(scores[rows], labels[rows])

        fast = bootstrap_pr_auc_ci(scores, labels, ents, b=120, seed=11)
        slow = bootstrap_ci(materialized, np.unique(ents), b=120, seed=11)
        assert fast.point == slow.point
        # row weights change the float summation order, so agreement is to
        # the last couple of ulps rather than bitwise
        assert fast.lo == pytest.approx(slow.lo, rel=1e-12)
        assert fast.hi == pytest.approx(slow.hi, rel=1e-12)

    def test_determinism(self, rng):
        ents = np.repeat([f"e{i}" for i in range(20)], 3)
        scores = rng.random(60)
        labels = (rng.random(60) < 0.5).astype(float)
        labels[0] = 1.0
        a = bootstrap_pr_auc_ci(scores, labels, ents, b=100, seed=5)
        b = bootstrap_pr_auc_ci(scores, labels, ents, b=100, seed=5)
        assert (a.lo, a.point, a.hi) == (b.lo, b.point, b.hi)


class TestPairedDeltaSignificance:
    def test_identical_models_are_a_wash(self, rng):
        ents = np.repeat([f"e{i}" for i in range(25)], 2)
        scores = rng.random(50)
        labels = (rng.random(50) < 0.5).astype(float)
        labels[0] = 1.0
        out = paired_delta_significance(scores, scores, labels, ents, b=100, seed=2)
        assert out.delta.point == 0.0
        assert out.delta.lo == out.delta.hi == 0.0
        assert out.significant_improvement is False

    def test_perfect_vs_random_is_significantly_worse(self, rng):
        n_ent = 120
        ents = np.repeat([f"e{i:03d}" for i in range(n_ent)], 2)
        labels = (rng.random(ents.size) < 0.5).astype(float)
        labels[0] = 1.0
        perfect = labels + rng.random(ents.size) * 1e-6
        random_scores = rng.random(ents.size)
        out = paired_delta_significance(perfect, random_scores, labels, ents, b=300, seed=6)
        assert out.delta.hi < 0.0
        assert out.significant_improvement is False

    def test_significance_flag_matches_interval(self, rng):
        ents = np.repeat([f"e{i}" for i in range(40)], 2)
        labels = (rng.random(80) < 0.5).astype(float)
        labels[0] = 1.0
        good = labels + rng.normal(scale=0.05, size=80)
        bad = rng.random(80)
        out = paired_delta_significance(bad, good, labels, ents, b=300, seed=7)
        assert out.significant_improvement == (out.delta.lo > 0.0)

    def test_rejects_misaligned_input(self, rng):
        with pytest.raises(ValueError):
            paired_delta_significance([0.1, 0.2], [0.1], [1, 0], ["a", "b"])
        with pytest.raises(ValueError):
            paired_delta_significance([0.1, 0.2], [0.1, 0.2], [1, 0], ["a"])


class TestMeanEntityCv:
    def test_averages_multi_snapshot_entities_only(self):
        series = {
            "a": np.array([0.2, 0.4]),  # cv = 1/3
            "b": np.array([0.5, 0.5, 0.5]),  # cv = 0
            "c": np.array([0.9]),  # skipped
        }
        assert mean_entity_cv(series) == pytest.approx(1.0 / 6.0)

    def test_undefined_without_multi_snapshot_entities(self):
        with pytest.raises(ValueError):
            mean_entity_cv({"a": [0.5], "b": [0.7]})
