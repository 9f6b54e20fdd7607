"""The entity-block scoring against the per-entity loops it replaced.

``metrics.block_cvs`` and its users (``entity_cvs``, ``per_feature_cv``,
``bootstrap_mean_ci``, the flip-flop counts) must give the scalar loops of
``tests/oracles.py`` bit for bit, so every comparison here is of
``float.hex``, and the refusals must raise the scalar messages.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_entity_cvs, reference_flip_flops, reference_per_feature_cv

from fortress.data import build_dataset
from fortress.flipflop import _flip_flop_report
from fortress.metrics import (
    ABS_MEAN_EPS, MEAN, block_cvs, bootstrap_ci, bootstrap_mean_ci, cv, entity_cvs,
)
from fortress.stability import per_feature_cv

# lengths from 2 to 300 cross numpy's pairwise-summation boundaries at 8
# (the unrolled block) and at 128 (the first split)
LENGTHS = st.lists(st.integers(2, 300), min_size=1, max_size=12)
SEEDS = st.integers(0, 2**32 - 1)
SCALES = st.sampled_from([1e-6, 1e-3, 1.0, 37.5, 1e6])


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _values(seed: int, size: int, scale: float, offset: float) -> np.ndarray:
    return offset + scale * np.random.default_rng(seed).standard_normal(size)


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestBlockCvs:
    @settings(max_examples=60, deadline=None)
    @given(LENGTHS, SEEDS, SCALES, st.sampled_from([MEAN, ABS_MEAN_EPS]))
    def test_each_block_is_cv_bit_for_bit(self, lengths, seed, scale, mode):
        # in "mean" mode the values sit well above 0, so every mean is positive
        offset = 10.0 * scale if mode == MEAN else 0.0
        counts = np.array(lengths)
        values = _values(seed, int(counts.sum()), scale, offset)
        # one value before the first block, so that no start is 0
        values = np.concatenate([[0.0], values])
        starts = 1 + np.cumsum(counts) - counts
        got = block_cvs(values, starts, counts, mode)
        want = [cv(values[s:s + c], mode) for s, c in zip(starts, counts)]
        assert _hex(got) == _hex(want)

    def test_no_block(self):
        assert block_cvs(np.empty(0), [], []).shape == (0,)

    def test_blocks_may_overlap_and_come_in_any_order(self):
        values = np.array([0.3, 0.9, 0.4, 0.8, 0.5])
        starts, counts = np.array([2, 0, 1]), np.array([3, 2, 4])
        got = block_cvs(values, starts, counts)
        assert _hex(got) == _hex([cv(values[s:s + c]) for s, c in zip(starts, counts)])

    @pytest.mark.parametrize("bad, mode", [
        ([0.5, -0.5], MEAN),
        ([-0.25, -0.5, 0.1], MEAN),
        ([0.5, np.nan], MEAN),
        ([0.5, np.inf], ABS_MEAN_EPS),
        ([0.5], MEAN),
    ])
    def test_a_refused_block_raises_the_scalar_message(self, bad, mode):
        values = np.array([0.2, 0.4, *bad, 0.1, 0.2])
        starts, counts = [0, 2, 2 + len(bad)], [2, len(bad), 2]
        assert _message(lambda: block_cvs(values, starts, counts, mode)) == _message(
            lambda: cv(bad, mode)
        )

    def test_the_first_refused_block_in_block_order_raises(self):
        # block 1 has a non-positive mean, block 2 a NaN; block 1 comes first
        # although block 2 has the smaller length
        values = np.array([0.2, 0.4, -0.1, -0.2, -0.3, np.nan, 0.5])
        got = _message(lambda: block_cvs(values, [0, 2, 5], [2, 3, 2]))
        assert got == _message(lambda: cv([-0.1, -0.2, -0.3]))

    def test_unknown_mode(self):
        assert _message(lambda: block_cvs([0.1, 0.2], [0], [2], "median")) == _message(
            lambda: cv([0.1, 0.2], "median")
        )


class TestEntityCvs:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 300), min_size=0, max_size=15), SEEDS)
    def test_equals_the_per_entity_loop(self, lengths, seed):
        values = _values(seed, sum(lengths), 0.1, 0.5)
        bounds = np.cumsum([0, *lengths])
        series = {f"e{i}": values[a:b] for i, (a, b) in enumerate(zip(bounds, bounds[1:]))}
        got, want = entity_cvs(series), reference_entity_cvs(series)
        assert list(got) == list(want)
        assert _hex(got.values()) == _hex(want.values())

    @pytest.mark.parametrize("bad", [[0.5, -0.7], [0.0, 0.0], [0.5, np.nan], [np.inf, 0.5]])
    def test_refusals_raise_the_scalar_messages(self, bad):
        series = {"a": [0.2, 0.4], "b": bad, "c": [0.3, 0.3]}
        assert _message(lambda: entity_cvs(series)) == _message(
            lambda: reference_entity_cvs(series)
        )

    def test_a_series_that_is_not_1d(self):
        series = {"a": [0.2, 0.4], "b": np.ones((2, 2))}
        assert _message(lambda: entity_cvs(series)) == _message(
            lambda: reference_entity_cvs(series)
        )


def _dataset(schema, entity_of_row, X, regions=None):
    n = len(entity_of_row)
    snapshots = [str(i - entity_of_row.index(e)) for i, e in enumerate(entity_of_row)]
    return build_dataset(
        schema=schema,
        snapshot_kind="int",
        entity_ids=np.array(entity_of_row),
        snapshot_ids=np.array(snapshots),
        regions=np.array(regions if regions is not None else ["r"] * n),
        labels=np.ones(n, dtype=np.int64),
        X=np.asarray(X, dtype=np.float64),
        sort=False,
        validate=False,
    )


def _random_dataset(seed: int, lengths: list[int], d: int, missing: float, regions: int = 1):
    """Entities ``e000``, ... with ``lengths`` rows each and ``d`` features
    ``f_0``, ...: normal cells, a ``missing`` share of them NaN, the last
    feature NaN throughout, and each row in one of ``regions`` regions."""
    rng = np.random.default_rng(seed)
    entity_of_row = [f"e{i:03d}" for i, k in enumerate(lengths) for _ in range(k)]
    X = rng.standard_normal((len(entity_of_row), d)) * rng.choice([0.01, 1.0, 100.0], size=d)
    X += rng.choice([0.0, 5.0], size=d)
    X[rng.random(X.shape) < missing] = np.nan
    X[:, -1] = np.nan
    region_of_row = [f"region_{i}" for i in rng.integers(0, regions, size=len(entity_of_row))]
    return _dataset(tuple(f"f_{j}" for j in range(d)), entity_of_row, X, region_of_row)


class TestPerFeatureCv:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=20), SEEDS, st.integers(2, 6),
        st.sampled_from([0.0, 0.2, 0.6]), st.data(),
    )
    def test_equals_the_per_entity_loop(self, lengths, seed, d, missing, data):
        ds = _random_dataset(seed, lengths, d, missing)
        cohort = data.draw(st.lists(st.sampled_from(ds.entities), min_size=1, unique=True))
        names = data.draw(st.none() | st.lists(st.sampled_from(ds.schema), min_size=1, unique=True))
        got = per_feature_cv(ds, cohort, names)
        want = reference_per_feature_cv(ds, cohort, names)
        assert [n for n, _ in got] == [n for n, _ in want]
        assert _hex(v for _, v in got) == _hex(v for _, v in want)

    def test_single_row_entities_and_an_all_missing_column(self):
        ds = _dataset(
            ("f_a", "f_gone", "f_b"), ["a", "b", "b", "c"],
            [[1.0, np.nan, 3.0], [2.0, np.nan, np.nan], [4.0, np.nan, 5.0], [7.0, np.nan, 1.0]],
        )
        got = per_feature_cv(ds, ["a", "b", "c"])
        assert got == reference_per_feature_cv(ds, ["a", "b", "c"])
        assert dict(got) == {"f_a": cv([2.0, 4.0], ABS_MEAN_EPS), "f_b": 0.0, "f_gone": 0.0}

    def test_a_non_finite_value_raises_the_scalar_message(self):
        ds = _dataset(("f_a",), ["a", "a", "b", "b"], [[1.0], [2.0], [np.inf], [3.0]])
        assert _message(lambda: per_feature_cv(ds, ["a", "b"])) == _message(
            lambda: reference_per_feature_cv(ds, ["a", "b"])
        )


class TestBootstrapMeanCi:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 400), SEEDS, st.integers(2, 300), st.floats(0.5, 0.99))
    def test_equals_bootstrap_ci_of_the_mean(self, n, seed, b, level):
        v = _values(seed, n, 0.05, 0.2)
        got = bootstrap_mean_ci(v, b=b, seed=seed, level=level)
        want = bootstrap_ci(
            lambda idx: float(np.mean(v[idx])), np.arange(v.size), b=b, seed=seed, level=level
        )
        assert got.to_dict().keys() == want.to_dict().keys()
        for key, value in want.to_dict().items():
            assert float(getattr(got, key)).hex() == float(value).hex(), key

    @pytest.mark.parametrize("values, b, level", [
        ([0.5], 100, 0.95), ([], 100, 0.95), ([0.1, 0.2], 1, 0.95), ([0.1, 0.2], 100, 1.0),
    ])
    def test_refusals_raise_the_bootstrap_ci_messages(self, values, b, level):
        v = np.array(values, dtype=np.float64)
        assert _message(lambda: bootstrap_mean_ci(v, b=b, level=level)) == _message(
            lambda: bootstrap_ci(lambda idx: float(np.mean(v[idx])), np.arange(v.size), b=b,
                                 level=level)
        )


class TestFlipFlopCounts:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=25), SEEDS, st.integers(1, 4),
        st.sampled_from([0.25, 0.5, 0.75]), st.data(),
    )
    def test_equals_the_per_entity_loop(self, lengths, seed, regions, tau, data):
        # regions are drawn per row, so entities change region between snapshots
        ds = _random_dataset(seed, lengths, 1, 0.0, regions)
        chosen = sorted(data.draw(st.lists(st.sampled_from(ds.entities), min_size=1, unique=True)))
        rows = ds.rows_for(chosen)
        # scores on a grid of quarters, so that many sit exactly at tau
        scores = np.random.default_rng(seed + 1).integers(0, 5, size=rows.size) / 4.0
        want = reference_flip_flops(ds, chosen, scores, tau)
        if not want:
            with pytest.raises(ValueError, match="2 or more snapshots"):
                _flip_flop_report(ds, chosen, rows, scores, tau)
            return
        report = _flip_flop_report(ds, chosen, rows, scores, tau)
        got = {r: [v.flipped, v.total] for r, v in report.per_region.items()}
        assert list(got.items()) == list(want.items())
        assert all(type(x) is int for pair in got.values() for x in pair)
