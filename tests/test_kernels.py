"""Kernel checks: the numpy split search equals a sequential reference bit for
bit, and the numba kernels and the numpy fallbacks agree bitwise."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fortress import _kernels as K
from fortress.model import (
    TrainConfig,
    TrainMatrix,
    _node_sums,
    dumps_canonical,
    serialize,
    train,
)
from oracles import reference_best_split

needs_numba = pytest.mark.skipif(not K.HAS_NUMBA, reason="numba not installed")


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
def _split_nodes(draw):
    """Arguments of one split search: coarse or fine values (tied values,
    and tied gains when every gradient is equal), missing cells, a column
    duplicated from column 0 (tied gains across features), an active
    subset, a node of any size down to empty, and regularization at the
    edges ``TrainConfig`` allows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 6))
    X = np.floor(rng.random((n, d)) * draw(st.sampled_from([2, 5, 1000])))
    X[:, d - 1] = X[:, 0]
    X[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = np.nan
    y = (rng.random(n) < 0.5).astype(np.float64)
    vals_sorted, sort_rows, offsets = TrainMatrix(X, y).presort
    if draw(st.booleans()):
        margins = rng.normal(scale=draw(st.sampled_from([0.5, 4.0])), size=n)
    else:
        margins = np.zeros(n)  # the first round: one gradient per label
    p = 1.0 / (1.0 + np.exp(-margins))
    g = p - y
    h = p * (1.0 - p)
    in_node = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    rows = np.nonzero(in_node)[0]
    g_total, h_total = _node_sums(g, h, rows) if rows.size else (0.0, 0.0)
    active = np.array(sorted(draw(st.sets(st.integers(0, d - 1)))), dtype=np.int64)
    # TrainConfig rejects l2_lambda == min_child_hessian == 0; an empty node
    # has h_total == 0, so it needs l2_lambda > 0 for the parent score
    lam, min_h = draw(st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 1e-3, 1.0])
    ).filter(lambda lh: lh[0] > 0.0 or (lh[1] > 0.0 and rows.size > 0)))
    gamma = draw(st.sampled_from([0.0, 0.05, 0.5]))
    return (vals_sorted, sort_rows, offsets, in_node, g, h, g_total, h_total,
            active, lam, gamma, min_h)


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


@needs_numba
class TestSplitSearchParity:
    def test_bitwise_equal_on_random_nodes(self, rng):
        for _ in range(40):
            args = _split_inputs(rng)
            got_nb = K.best_split_numba(*args)
            got_np = K.best_split_numpy(*args)
            assert got_nb[0] == got_np[0]  # gain, including -inf
            assert got_nb[1] == got_np[1]  # feature index
            assert (got_nb[2] == got_np[2]) or (
                np.isnan(got_nb[2]) and np.isnan(got_np[2])
            )
            assert got_nb[3] == got_np[3]  # default direction

    def test_no_candidate_returns_sentinel(self, rng):
        args = list(_split_inputs(rng, n=8))
        args[3] = np.zeros_like(args[3])  # empty node
        for fn in (K.best_split_numba, K.best_split_numpy):
            gain, feature, threshold, default_left = fn(*args)
            assert gain == float("-inf")
            assert feature == -1
            assert np.isnan(threshold)
            assert default_left is False or default_left == 0


@needs_numba
class TestPredictParity:
    def test_bitwise_equal_margins(self, rng):
        X, y = _random_problem(rng, n=150, d=7, missing=0.25)
        model = train(X, y, TrainConfig(rounds=12, max_depth=3))
        feat, thr, dl, left, right, wt, roots = model._ensure_arena()
        Xq = rng.random((40, 7))
        Xq[rng.random((40, 7)) < 0.3] = np.nan
        m_nb = K.predict_margin_numba(Xq, feat, thr, dl, left, right, wt, roots, model.base_score)
        m_np = K.predict_margin_numpy(Xq, feat, thr, dl, left, right, wt, roots, model.base_score)
        assert np.array_equal(m_nb, m_np)


class TestBackendSelection:
    def test_backend_name_reports_active_backend(self):
        assert K.backend_name() in ("numba", "numpy")
        assert (K.backend_name() == "numba") == K.USE_NUMBA

    @needs_numba
    def test_env_flag_trains_byte_identical_model(self, rng, tmp_path):
        """The headline dual-route check: a model trained under the numpy
        fallback (selected via FORTRESS_DISABLE_NUMBA in a subprocess)
        serializes byte-identically to one trained with numba in-process."""
        X, y = _random_problem(rng, n=400, d=8, missing=0.2)
        np.save(tmp_path / "X.npy", X)
        np.save(tmp_path / "y.npy", y)
        cfg = TrainConfig(rounds=25, max_depth=4, row_subsample=0.8, col_subsample=0.8, seed=7)

        assert K.USE_NUMBA, "test requires the in-process backend to be numba"
        here = serialize(train(X, y, cfg))

        script = textwrap.dedent(
            """
            import json, sys
            import numpy as np
            from fortress import _kernels
            from fortress.model import TrainConfig, serialize, train

            assert _kernels.backend_name() == "numpy", _kernels.backend_name()
            X = np.load(sys.argv[1])
            y = np.load(sys.argv[2])
            cfg = TrainConfig(rounds=25, max_depth=4, row_subsample=0.8,
                              col_subsample=0.8, seed=7)
            print(json.dumps(serialize(train(X, y, cfg))))
            """
        )
        env = dict(os.environ, FORTRESS_DISABLE_NUMBA="1")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "X.npy"), str(tmp_path / "y.npy")],
            capture_output=True, text=True, env=env, check=True,
        )
        there = json.loads(proc.stdout)
        assert dumps_canonical(there) == dumps_canonical(here)
