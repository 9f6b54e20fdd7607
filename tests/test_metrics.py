"""Metrics: CV, average precision, percentiles, and entity bootstraps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fortress import metrics
from fortress.metrics import (
    ABS_MEAN_EPS,
    MEAN,
    _increments,
    bootstrap_ci,
    bootstrap_pr_auc_ci,
    cv,
    entity_cvs,
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
    reference_weighted_ap,
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


class TestBatchedAp:
    """The AP bootstraps score a batch of resamples as 2-D integer cumsums;
    each value equals the scalar weighted average precision of its resample
    bit for bit, and the resamples without a positive row are dropped."""

    @staticmethod
    def _hexes(scores, y, entity_of_row, n_ent, draws):
        helper = metrics._WeightedAp(scores, y, entity_of_row, n_ent)
        got = metrics._ap_values(helper.ap, y, entity_of_row, n_ent)(draws)
        expected = []
        for row in draws:
            weights = np.bincount(row, minlength=n_ent)[entity_of_row]
            try:
                expected.append(reference_weighted_ap(scores, y, weights))
            except ValueError:
                continue
        return [v.hex() for v in got.tolist()], [v.hex() for v in expected]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_ent = int(rng.integers(2, 10))
        entity_of_row = np.repeat(np.arange(n_ent), rng.integers(1, 6, size=n_ent))
        n = entity_of_row.size
        scores = rng.choice(rng.random(int(rng.integers(1, 6))), size=n)  # ties
        y = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(np.float64)
        y[int(rng.integers(0, n))] = 1.0
        draws = rng.integers(0, n_ent, size=(int(rng.integers(1, 40)), n_ent))
        got, expected = self._hexes(scores, y, entity_of_row, n_ent, draws)
        assert got == expected

    def test_drops_resamples_without_a_positive_row(self):
        # only entity 0 has a positive row; rows 1 and 3 never draw it
        entity_of_row = np.array([0, 0, 1, 1, 2, 2, 3])
        scores = np.array([0.5, 0.25, 0.5, 0.75, 0.25, 0.5, 0.5])
        y = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        draws = np.array([[0, 1, 2, 3], [1, 1, 2, 3], [0, 0, 0, 0], [3, 2, 1, 1], [2, 0, 3, 0]])
        got, expected = self._hexes(scores, y, entity_of_row, 4, draws)
        assert len(got) == 3
        assert got == expected


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


class TestEntityCvs:
    def test_skips_single_score_entities_and_keeps_series_order(self):
        series = {
            "z": np.array([0.2, 0.4]),
            "a": [0.9],
            "m": [0.5, 0.5, 0.5],
            "b": np.array([], dtype=float),
            "c": (0.1, 0.3),
        }
        out = entity_cvs(series)
        assert list(out) == ["z", "m", "c"]
        assert out == {"z": cv([0.2, 0.4]), "m": 0.0, "c": cv([0.1, 0.3])}

    def test_empty_series(self):
        assert entity_cvs({}) == {}


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


class TestBootstrapGolden:
    """Pinned intervals and messages of the three entity bootstraps.

    The inputs force redraws: the ``bootstrap_ci`` statistic is undefined on
    resamples with a negative mean, and only one of six entities carries
    positive labels, so many resamples have no positive row. Any change to
    the attempt sequence, the redraw rule or the percentile pick moves a
    pinned bit.
    """

    VALUES = np.array([0.31, -0.42, 0.17, 0.88, -0.05, 0.64, -0.73, 0.29, 0.12, -0.36, 0.51, 0.07])
    ENTS = np.repeat([f"e{i}" for i in range(6)], 2)
    LABELS = np.array([0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=float)
    SA = np.array([0.9, 0.1, 0.8, 0.7, 0.3, 0.3, 0.6, 0.2, 0.5, 0.4, 0.35, 0.05])
    SB = np.array([0.2, 0.1, 0.95, 0.6, 0.3, 0.45, 0.1, 0.2, 0.5, 0.15, 0.35, 0.05])

    @staticmethod
    def _hex(ci):
        return (ci.point.hex(), ci.lo.hex(), ci.hi.hex())

    @pytest.fixture
    def attempts(self, monkeypatch):
        """Counts the resamples drawn, defined or not. The loop stops at the
        b-th defined resample, so the count less b is the number of
        undefined resamples that were redrawn."""
        count = {"n": 0}
        monkeypatch.setattr(metrics.BootstrapDraws, "rows", _counting_rows(count))
        return count

    def test_bootstrap_ci(self):
        calls = {"n": 0}

        def nonnegative_mean(e):
            calls["n"] += 1
            m = float(np.mean(e))
            if m < 0.0:
                raise ValueError("undefined here")
            return m

        ci = bootstrap_ci(nonnegative_mean, self.VALUES, b=40, seed=3)
        assert self._hex(ci) == ("0x1.e81b4e81b4e81p-4", "0x1.b4e81b4e81b60p-9", "0x1.58bf258bf258cp-2")
        assert calls["n"] == 1 + 40 + 9  # the point, 40 resamples, 9 redraws

    def test_bootstrap_pr_auc_ci(self, attempts):
        ci = bootstrap_pr_auc_ci(self.SA, self.LABELS, self.ENTS, b=30, seed=5)
        assert self._hex(ci) == ("0x1.2aaaaaaaaaaaap-1", "0x1.1111111111111p-2", "0x1.0000000000000p+0")
        assert attempts["n"] - 30 == 21  # resamples without a positive row

    def test_paired_delta_significance(self, attempts):
        out = paired_delta_significance(self.SA, self.SB, self.LABELS, self.ENTS, b=30, seed=9)
        assert self._hex(out.delta) == ("0x1.aaaaaaaaaaaacp-2", "0x0.0p+0", "0x1.2aaaaaaaaaaabp-1")
        assert out.significant_improvement is False
        assert attempts["n"] - 30 == 18  # resamples without a positive row

    def test_paired_delta_of_identical_scores(self, attempts):
        out = paired_delta_significance(self.SA, self.SA, self.LABELS, self.ENTS, b=30, seed=9)
        assert self._hex(out.delta) == ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0")
        assert out.significant_improvement is False
        assert attempts["n"] == 30 + 18  # the same redraws as SA against SB

    @staticmethod
    def _first_entity_only(monkeypatch):
        """Makes every resample draw entity e0, which has no positive row."""

        def rows(self, start, count):
            return np.zeros((count, self.size), dtype=np.int64)

        monkeypatch.setattr(metrics.BootstrapDraws, "rows", rows)

    def test_identical_scores_undefined_too_often(self, monkeypatch):
        self._first_entity_only(monkeypatch)
        with pytest.raises(ValueError) as exc:
            paired_delta_significance(self.SA, self.SA, self.LABELS, self.ENTS, b=4, seed=0)
        assert str(exc.value) == (
            "paired bootstrap undefined too often: 0 of 4 resamples after 40 attempts"
        )

    def test_undefined_too_often_messages(self, monkeypatch):
        def point_only(e):
            if e.size == 5 and np.array_equal(e, np.arange(5)):
                return 0.0
            raise ValueError("undefined on a resample")

        with pytest.raises(ValueError) as exc:
            bootstrap_ci(point_only, np.arange(5), b=3, seed=0)
        assert str(exc.value) == (
            "bootstrap statistic undefined too often: 0 of 3 resamples after 30 attempts"
        )

        self._first_entity_only(monkeypatch)
        with pytest.raises(ValueError) as exc:
            bootstrap_pr_auc_ci(self.SA, self.LABELS, self.ENTS, b=2, seed=0)
        assert str(exc.value) == (
            "bootstrap statistic undefined too often: 0 of 2 resamples after 20 attempts"
        )
        with pytest.raises(ValueError) as exc:
            paired_delta_significance(self.SA, self.SB, self.LABELS, self.ENTS, b=4, seed=0)
        assert str(exc.value) == (
            "paired bootstrap undefined too often: 0 of 4 resamples after 40 attempts"
        )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(entities=np.ones((2, 2))), "entities must be 1-d, got shape (2, 2)"),
            (dict(entities=np.arange(1)), "bootstrap needs at least 2 entities, got 1"),
            (dict(b=1), "bootstrap needs at least 2 resamples, got 1"),
            (dict(level=1.0), "level must be in (0, 1), got 1.0"),
            (dict(b=2.5), "bootstrap resamples must be an integer, got 2.5"),
            (dict(b=False), "bootstrap resamples must be an integer, got False"),
            (dict(level="0.9"), "level must be a number, got '0.9'"),
        ],
    )
    def test_bootstrap_ci_input_messages(self, kwargs, message):
        args = dict(statistic=lambda e: 0.0, entities=np.arange(10), b=100, seed=0)
        with pytest.raises(ValueError) as exc:
            bootstrap_ci(**{**args, **kwargs})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(labels=[[1.0, 0.0]]), "labels must be 1-d, got shape (1, 2)"),
            (dict(labels=[1.0, 2.0]), "labels must be binary (0/1)"),
            (dict(entity_ids=["a"]), "scores, labels, entity_ids must share one shape, got (2,), (2,), (1,)"),
            (dict(scores=[], labels=[], entity_ids=[]), "pr_auc is undefined on empty input"),
            (dict(scores=[0.1, np.inf]), "pr_auc is undefined for non-finite scores"),
            (dict(entity_ids=["a", "a"]), "bootstrap needs at least 2 entities, got 1"),
            (dict(b=1), "bootstrap needs at least 2 resamples, got 1"),
            (dict(level=0.0), "level must be in (0, 1), got 0.0"),
        ],
    )
    def test_bootstrap_pr_auc_ci_input_messages(self, kwargs, message):
        args = dict(scores=[0.1, 0.2], labels=[1.0, 0.0], entity_ids=["a", "b"], b=100, seed=0)
        with pytest.raises(ValueError) as exc:
            bootstrap_pr_auc_ci(**{**args, **kwargs})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(labels=[1.0, 0.5]), "labels must be binary (0/1)"),
            (
                dict(scores_b=[0.1]),
                "scores_a, scores_b, labels, entity_ids must share one shape, got (2,), (1,), (2,), (2,)",
            ),
            (
                dict(scores_a=[], scores_b=[], labels=[], entity_ids=[]),
                "paired delta is undefined on empty input",
            ),
            (dict(scores_b=[np.nan, 0.2]), "paired delta is undefined for non-finite scores"),
            (dict(entity_ids=["a", "a"]), "paired bootstrap needs at least 2 entities, got 1"),
            (dict(b=0), "bootstrap needs at least 2 resamples, got 0"),
            (dict(level=1.5), "level must be in (0, 1), got 1.5"),
        ],
    )
    def test_paired_delta_input_messages(self, kwargs, message):
        args = dict(
            scores_a=[0.1, 0.2], scores_b=[0.3, 0.1], labels=[1.0, 0.0], entity_ids=["a", "b"],
            b=100, seed=0,
        )
        with pytest.raises(ValueError) as exc:
            paired_delta_significance(**{**args, **kwargs})
        assert str(exc.value) == message


def _counting_rows(count):
    """``BootstrapDraws.rows`` that adds the number of attempts it returns to
    ``count["n"]``."""
    real = metrics.BootstrapDraws.rows

    def rows(self, start, count_):
        count["n"] += count_
        return real(self, start, count_)

    return rows


def _paired_outcome(sa, sb, labels, ents, b, seed):
    """Hex interval, verdict and resample count of a paired bootstrap, or its
    error message and resample count."""
    count = {"n": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics.BootstrapDraws, "rows", _counting_rows(count))
        try:
            out = paired_delta_significance(sa, sb, labels, ents, b=b, seed=seed)
        except ValueError as exc:
            return str(exc), count["n"]
    d = out.delta
    return (d.point.hex(), d.lo.hex(), d.hi.hex(), out.significant_improvement), count["n"]


class TestIdenticalScores:
    """``paired_delta_significance`` of a model against itself equals the
    general bootstrap, which it reaches when ``np.array_equal`` says no."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(2, 40))
    def test_equals_the_general_bootstrap(self, seed, b):
        rng = np.random.default_rng(seed)
        n_ent = int(rng.integers(2, 9))
        ents = np.repeat([f"e{k}" for k in range(n_ent)], rng.integers(1, 4, size=n_ent))
        n = ents.size
        scores = rng.choice(rng.random(int(rng.integers(1, 5))), size=n)  # ties
        labels = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(np.float64)
        labels[int(rng.integers(0, n))] = 1.0
        fast = _paired_outcome(scores, scores.copy(), labels, ents, b, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "array_equal", lambda a, b: False)
            slow = _paired_outcome(scores, scores.copy(), labels, ents, b, seed)
        assert fast == slow
