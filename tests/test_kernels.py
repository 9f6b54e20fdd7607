"""Kernel checks: the split search and the ensemble margins equal the scalar
references of ``tests/oracles.py`` bit for bit."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fortress import _kernels as K
from fortress.model import (
    TrainConfig,
    TrainMatrix,
    _first_best,
    _node_sums,
    train,
)
from oracles import reference_best_split, reference_predict_margin


def _random_problem(rng, n=80, d=6, missing=0.0):
    X = rng.random((n, d))
    if missing:
        X[rng.random((n, d)) < missing] = np.nan
    y = (rng.random(n) < 0.5).astype(np.float64)
    y[0], y[1] = 0.0, 1.0
    return X, y


def _split_inputs(rng, n=60, d=5, missing=0.3, ties=True):
    X = rng.random((n, d))
    if ties:
        # coarse quantization forces duplicated values inside each column
        X = np.round(X * 8.0) / 8.0
    X[rng.random((n, d)) < missing] = np.nan
    tm = TrainMatrix(X, (rng.random(n) < 0.5).astype(np.float64))
    vals_sorted, sort_rows, offsets = tm.presort
    margins = rng.normal(scale=0.5, size=n)
    p = 1.0 / (1.0 + np.exp(-margins))
    y = (rng.random(n) < 0.5).astype(np.float64)
    g = p - y
    h = p * (1.0 - p)
    in_node = rng.random(n) < 0.8
    rows = np.nonzero(in_node)[0]
    g_total = float(np.cumsum(g[rows])[-1]) if rows.size else 0.0
    h_total = float(np.cumsum(h[rows])[-1]) if rows.size else 0.0
    active = np.arange(d, dtype=np.int64)
    return (vals_sorted, sort_rows, offsets, in_node, g, h, g_total, h_total,
            active, 1.0, 0.0, 1e-3)


@st.composite
def _search_cases(draw):
    """Arguments of one split search, and the ``batch`` tuple that selects
    its batched pass: coarse or fine values (tied values, and tied gains
    when every gradient is equal), missing cells, a column duplicated from
    column 0 (tied gains across features), sometimes an all-missing or a
    constant column, an active subset, a node of any size down to one row
    or none, and regularization at the edges ``TrainConfig`` allows. With
    the first round's gradients every hessian is 0.25 exactly, so a
    ``min_child_hessian`` of 0.5 is met exactly by a two-row child."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 6))
    X = np.floor(rng.random((n, d)) * draw(st.sampled_from([2, 5, 1000])))
    X[:, d - 1] = X[:, 0]
    X[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = np.nan
    odd = draw(st.sampled_from([None, "all missing", "constant"]))
    if odd is not None:
        X[:, draw(st.integers(0, d - 1))] = np.nan if odd == "all missing" else 3.0
    y = (rng.random(n) < 0.5).astype(np.float64)
    tm = TrainMatrix(X, y)
    vals_sorted, sort_rows, offsets = tm.presort
    if draw(st.booleans()):
        margins = rng.normal(scale=draw(st.sampled_from([0.5, 4.0])), size=n)
    else:
        margins = np.zeros(n)  # the first round: one gradient per label
    p = 1.0 / (1.0 + np.exp(-margins))
    g = p - y
    h = p * (1.0 - p)
    share = draw(st.sampled_from([0.0, "one row", 0.3, 0.8, 1.0]))
    if share == "one row":
        in_node = np.zeros(n, dtype=np.bool_)
        in_node[rng.integers(n)] = True
    else:
        in_node = rng.random(n) < share
    rows = np.nonzero(in_node)[0]
    g_total, h_total = _node_sums(g, h, rows) if rows.size else (0.0, 0.0)
    active = np.array(sorted(draw(st.sets(st.integers(0, d - 1)))), dtype=np.int64)
    # TrainConfig rejects l2_lambda == min_child_hessian == 0; an empty node
    # has h_total == 0, so it needs l2_lambda > 0 for the parent score
    lam, min_h = draw(st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 1e-3, 0.5, 1.0])
    ).filter(lambda lh: lh[0] > 0.0 or (lh[1] > 0.0 and rows.size > 0)))
    gamma = draw(st.sampled_from([0.0, 0.05, 0.5]))
    args = (vals_sorted, sort_rows, offsets, in_node, g, h, g_total, h_total,
            active, lam, gamma, min_h)
    return args, (tm.X, tm.ranks, rows)


def _split_nodes():
    """The split search arguments of :func:`_search_cases`."""
    return _search_cases().map(lambda case: case[0])


def _split_bits(result):
    gain, feature, threshold, default_left = result
    return float(gain).hex(), int(feature), float(threshold).hex(), bool(default_left)


class TestSplitSearchOracle:
    """``best_split_numpy`` against the sequential loop of ``tests/oracles.py``."""

    @settings(max_examples=300, deadline=None)
    @given(args=_split_nodes())
    def test_bitwise_equal_to_sequential_reference(self, args):
        assert _split_bits(K.best_split_numpy(*args)) == _split_bits(
            reference_best_split(*args)
        )

    def test_no_candidate_returns_sentinel(self, rng):
        args = list(_split_inputs(rng, n=8))
        args[3] = np.zeros_like(args[3])  # empty node
        args[6] = args[7] = 0.0
        sentinel = (float("-inf").hex(), -1, float("nan").hex(), False)
        assert _split_bits(K.best_split_numpy(*args)) == sentinel
        assert _split_bits(reference_best_split(*args)) == sentinel
        args = list(_split_inputs(rng, n=8))
        args[8] = np.empty(0, dtype=np.int64)  # no active feature
        assert _split_bits(K.best_split_numpy(*args)) == sentinel


class TestBatchedSearch:
    """The batched pass for small nodes against the sequential reference
    and the per-feature scan, bit for bit, whatever the chunk size."""

    @settings(max_examples=300, deadline=None)
    @given(case=_search_cases(), chunk=st.sampled_from([1, 16, K._CHUNK_CELLS]))
    def test_bitwise_equal_to_reference_and_per_feature_scan(self, case, chunk):
        # chunk 1 puts one feature in each chunk, 16 a few for small nodes
        args, batch = case
        with mock.patch.object(K, "_CHUNK_CELLS", chunk):
            got = _split_bits(K.best_split_numpy(*args, batch))
        assert got == _split_bits(reference_best_split(*args))
        assert got == _split_bits(K.best_split_numpy(*args))

    @pytest.mark.parametrize("chunk", [40, 80, 4096], ids=["1-feature", "2-feature", "one"])
    def test_a_tie_across_chunks_goes_to_the_lower_index(self, rng, chunk):
        # 40 rows: chunks of one feature, of features {0, 1} and {2, 3},
        # or all four in one; the tied features 1 and 2 straddle a chunk
        # boundary in the first two
        n = 40
        X = rng.random((n, 4))
        y = (rng.random(n) < 0.5).astype(np.float64)
        X[:, 1] = X[:, 2] = y + 0.1 * rng.random(n)
        tm = TrainMatrix(X, y)
        g, h = 0.5 - y, np.full(n, 0.25)
        rows = np.arange(n)
        args = (*tm.presort, np.ones(n, dtype=np.bool_), g, h, *_node_sums(g, h, rows),
                np.arange(4), 1.0, 0.0, 1e-3)
        with mock.patch.object(K, "_CHUNK_CELLS", chunk):
            got = K.best_split_numpy(*args, (tm.X, tm.ranks, rows))
            alone = K.best_split_numpy(*args[:8], np.array([2]), *args[9:],
                                       (tm.X, tm.ranks, rows))
        assert got[1] == 1 and alone[1] == 2 and alone[0] == got[0]
        assert _split_bits(got) == _split_bits(K.best_split_numpy(*args))

    def test_fewer_than_two_rows_return_the_sentinel(self, rng):
        args = list(_split_inputs(rng, n=8))
        tm = TrainMatrix(np.zeros((8, 5)), np.arange(8) % 2.0)
        sentinel = (float("-inf").hex(), -1, float("nan").hex(), False)
        for rows in (np.empty(0, dtype=np.int64), np.array([3])):
            got = K.best_split_numpy(*args, (tm.X, tm.ranks, rows))
            assert _split_bits(got) == sentinel


def _halves(args):
    """The split searches over ``active[0::2]`` and ``active[1::2]``, the two
    shares of a search split with the helper of ``model.train``."""
    active = args[8]
    return [K.best_split_numpy(*args[:8], part, *args[9:])
            for part in (active[0::2], active[1::2])]


class TestSplitHalves:
    """Merging the two interleaved halves of the active features equals
    one search over all of them, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(args=_split_nodes())
    def test_merged_halves_equal_the_full_search(self, args):
        # the strategy's last column copies column 0; with an even number
        # of active features the two copies fall in different halves
        assert _split_bits(_first_best(*_halves(args))) == _split_bits(
            K.best_split_numpy(*args)
        )

    @pytest.mark.parametrize("copies", [(0, 1), (1, 2)], ids=["even-first", "odd-first"])
    def test_a_tie_across_the_halves_goes_to_the_lower_index(self, rng, copies):
        n = 40
        X = rng.random((n, 3))
        y = (rng.random(n) < 0.5).astype(np.float64)
        X[:, copies[0]] = X[:, copies[1]] = y + 0.1 * rng.random(n)
        vals_sorted, sort_rows, offsets = TrainMatrix(X, y).presort
        g, h = 0.5 - y, np.full(n, 0.25)
        args = (vals_sorted, sort_rows, offsets, np.ones(n, dtype=np.bool_), g, h,
                *_node_sums(g, h, np.arange(n)), np.arange(3), 1.0, 0.0, 1e-3)
        even, odd = _halves(args)
        assert even[0] == odd[0] and even[1] != odd[1]
        assert _first_best(even, odd)[1] == copies[0]
        assert _split_bits(_first_best(even, odd)) == _split_bits(K.best_split_numpy(*args))


class TestPredictOracle:
    """``predict_margin_numpy`` against the scalar walk of ``tests/oracles.py``."""

    @pytest.mark.parametrize("missing", [0.0, 0.3], ids=["dense", "nan-cells"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_scalar_walk(self, seed, missing):
        rng = np.random.default_rng(seed)
        X, y = _random_problem(rng, n=150, d=7, missing=0.25)
        model = train(X, y, TrainConfig(rounds=12, max_depth=3, seed=seed))
        arena = model._ensure_arena()
        feat, thr, roots = arena[0], arena[1], arena[6]
        Xq = rng.random((60, 7))
        Xq[rng.random((60, 7)) < missing] = np.nan
        # cells exactly at a split threshold, where a present value goes
        # right; the last one of each row is at a root's split, which every
        # walk reaches
        internal = np.flatnonzero(feat >= 0)
        split_roots = roots[feat[roots] >= 0]
        for i in range(40):
            for node in (*rng.choice(internal, size=3), split_roots[i % split_roots.size]):
                Xq[i, feat[node]] = thr[node]
        got = K.predict_margin_numpy(Xq, *arena, model.base_score)
        want = reference_predict_margin(Xq, *arena, model.base_score)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
