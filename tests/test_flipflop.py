"""Unit tests for admission flip-flop rates and comparisons."""

from __future__ import annotations

import numpy as np
import pytest

from fortress.data import build_dataset
from fortress.flipflop import (
    FlipFlopReport,
    RegionRate,
    flip_flop_rate,
    relative_reduction,
    tau_from_percentile,
)
from fortress.model import BoostedModel, TrainConfig, Tree


def _identity_model(schema=("f_a",)):
    """Margin equals 4*(x0 - 0.5) via two stacked splits; monotone in x0.

    Simpler: a single split at 0.5 with leaf margins +-2 gives scores
    sigmoid(-2)=0.119 and sigmoid(+2)=0.881, cleanly straddling tau=0.5.
    """
    tree = Tree.from_node_dict(
        {
            "feature": 0,
            "threshold": 0.5,
            "default": "left",
            "left": {"weight": -2.0},
            "right": {"weight": 2.0},
        }
    )
    return BoostedModel(
        schema=tuple(schema),
        mask=np.ones(len(schema), dtype=np.bool_),
        base_score=0.0,
        config=TrainConfig(rounds=1),
        trees=[tree],
    )


def _dataset(rows, schema=("f_a",)):
    """rows: (entity, snapshot, region, x0)."""
    return build_dataset(
        schema=schema,
        snapshot_kind="int",
        entity_ids=np.array([r[0] for r in rows]),
        snapshot_ids=np.array([str(r[1]) for r in rows]),
        regions=np.array([r[2] for r in rows]),
        labels=np.array([1] * len(rows)),
        X=np.array([[r[3]] for r in rows], dtype=np.float64),
    )


HAND_ROWS = [
    # north: stay-low (no flip), cross (flip), single snapshot (excluded)
    ("n_low", 0, "north", 0.1), ("n_low", 1, "north", 0.2),
    ("n_cross", 0, "north", 0.1), ("n_cross", 1, "north", 0.9),
    ("n_single", 0, "north", 0.9),
    # south: stay-high, cross twice (still one flipped entity)
    ("s_high", 0, "south", 0.8), ("s_high", 1, "south", 0.9),
    ("s_zig", 0, "south", 0.9), ("s_zig", 1, "south", 0.1), ("s_zig", 2, "south", 0.9),
]


class TestFlipFlopRate:
    def test_hand_counted_rates(self):
        report = flip_flop_rate(_identity_model(), _dataset(HAND_ROWS), tau=0.5)
        assert report.per_region["north"].to_dict() == {
            "flipped": 1, "total": 2, "rate": 0.5,
        }
        assert report.per_region["south"].to_dict() == {
            "flipped": 1, "total": 2, "rate": 0.5,
        }
        assert report.overall.flipped == 2
        assert report.overall.total == 4  # n_single excluded
        assert report.overall.rate == 0.5

    def test_score_equal_to_tau_is_admitted(self):
        # entity at constant margin 2 -> score sigmoid(2); tau == that score
        # means always admitted, hence no flip.
        model = _identity_model()
        ds = _dataset([("e", 0, "r", 0.9), ("e", 1, "r", 0.1)])
        tau = float(model.predict(np.array([[0.9]]))[0])
        report = flip_flop_rate(model, ds, tau=tau)
        # snapshot 0 sits exactly at tau (admitted); snapshot 1 is below
        assert report.overall.flipped == 1
        low_tau = float(model.predict(np.array([[0.1]]))[0])
        assert flip_flop_rate(model, ds, tau=low_tau).overall.flipped == 0

    def test_region_comes_from_first_snapshot(self):
        rows = [("e", 0, "alpha", 0.1), ("e", 1, "beta", 0.9)]
        ds = _dataset(rows)
        report = flip_flop_rate(_identity_model(), ds)
        assert set(report.per_region) == {"alpha"}

    def test_an_entity_counts_in_the_region_of_its_oldest_snapshot(self):
        # "moves" flips while it moves from alpha to beta; "stays" does not
        rows = [
            ("moves", 0, "alpha", 0.1), ("moves", 1, "beta", 0.9), ("moves", 2, "beta", 0.9),
            ("stays", 0, "beta", 0.1), ("stays", 1, "beta", 0.2),
        ]
        report = flip_flop_rate(_identity_model(), _dataset(rows))
        assert {r: v.to_dict() for r, v in report.per_region.items()} == {
            "alpha": {"flipped": 1, "total": 1, "rate": 1.0},
            "beta": {"flipped": 0, "total": 1, "rate": 0.0},
        }

    def test_entity_subset(self):
        report = flip_flop_rate(
            _identity_model(), _dataset(HAND_ROWS), entity_ids=["n_low", "n_cross"]
        )
        assert report.overall.total == 2
        assert report.overall.flipped == 1

    def test_errors(self):
        ds = _dataset(HAND_ROWS)
        model = _identity_model()
        with pytest.raises(ValueError, match="finite"):
            flip_flop_rate(model, ds, tau=float("nan"))
        with pytest.raises(ValueError, match="schema"):
            flip_flop_rate(_identity_model(schema=("f_a", "f_b")), ds)
        with pytest.raises(ValueError, match="empty entity set"):
            flip_flop_rate(model, ds, entity_ids=[])
        with pytest.raises(ValueError, match="2 or more snapshots"):
            flip_flop_rate(model, ds, entity_ids=["n_single"])

    def test_report_dict_shape(self):
        doc = flip_flop_rate(_identity_model(), _dataset(HAND_ROWS)).to_dict()
        assert doc["kind"] == "flipflop_report"
        assert doc["tau"] == 0.5
        assert doc["global"]["rate"] == 0.5
        assert sorted(doc["per_region"]) == ["north", "south"]


class TestRelativeReduction:
    def _report(self, region_stats, tau=0.5):
        per_region = {r: RegionRate(f, t) for r, (f, t) in region_stats.items()}
        overall = RegionRate(
            sum(v.flipped for v in per_region.values()),
            sum(v.total for v in per_region.values()),
        )
        return FlipFlopReport(tau=tau, per_region=per_region, overall=overall)

    def test_identity_comparison_is_zero(self):
        a = self._report({"r1": (2, 10), "r2": (1, 5)})
        cmp = relative_reduction(a, a)
        assert cmp.overall == 0.0
        assert cmp.per_region == {"r1": 0.0, "r2": 0.0}

    def test_hand_computed_reduction(self):
        base = self._report({"r1": (4, 10), "r2": (2, 10)})
        improved = self._report({"r1": (1, 10), "r2": (2, 10)})
        cmp = relative_reduction(base, improved)
        assert cmp.per_region["r1"] == pytest.approx(0.75)
        assert cmp.per_region["r2"] == 0.0
        assert cmp.overall == pytest.approx((0.3 - 0.15) / 0.3)

    def test_zero_baseline_region_is_none(self):
        base = self._report({"r1": (0, 10), "r2": (5, 10)})
        improved = self._report({"r1": (0, 10), "r2": (1, 10)})
        cmp = relative_reduction(base, improved)
        assert cmp.per_region["r1"] is None
        assert cmp.per_region["r2"] == pytest.approx(0.8)
        assert cmp.overall == pytest.approx(0.8)

    def test_zero_baseline_overall_is_none(self):
        base = self._report({"r1": (0, 10)})
        improved = self._report({"r1": (0, 10)})
        assert relative_reduction(base, improved).overall is None

    def test_negative_reduction_when_improved_is_worse(self):
        base = self._report({"r1": (2, 10)})
        worse = self._report({"r1": (4, 10)})
        assert relative_reduction(base, worse).per_region["r1"] == pytest.approx(-1.0)

    def test_mismatches_rejected(self):
        a = self._report({"r1": (1, 10)})
        with pytest.raises(ValueError, match="mismatched tau"):
            relative_reduction(a, self._report({"r1": (1, 10)}, tau=0.6))
        with pytest.raises(ValueError, match="mismatched region sets"):
            relative_reduction(a, self._report({"r2": (1, 10)}))
        with pytest.raises(ValueError, match="mismatched entity totals"):
            relative_reduction(a, self._report({"r1": (1, 12)}))

    def test_comparison_dict_shape(self):
        base = self._report({"r1": (4, 10)})
        improved = self._report({"r1": (1, 10)})
        doc = relative_reduction(base, improved).to_dict()
        assert doc["kind"] == "flipflop_comparison"
        assert doc["relative_reduction"]["global"] == pytest.approx(0.75)
        assert doc["base"]["global"]["flipped"] == 4


class TestTauFromPercentile:
    def test_median_of_scores(self):
        model = _identity_model()
        ds = _dataset([("e", 0, "r", 0.1), ("e", 1, "r", 0.9), ("f", 0, "r", 0.1)])
        tau = tau_from_percentile(model, ds, percentile=50.0)
        lo = float(model.predict(np.array([[0.1]]))[0])
        assert tau == lo  # two of three scores are the low one

    def test_is_an_actual_score(self, rng):
        model = _identity_model()
        rows = [(f"e{i}", t, "r", float(rng.random())) for i in range(20) for t in range(2)]
        ds = _dataset(rows)
        tau = tau_from_percentile(model, ds, percentile=80.0)
        scores = model.predict(ds.X)
        assert tau in scores

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty entity set"):
            tau_from_percentile(_identity_model(), _dataset(HAND_ROWS), entity_ids=[])
