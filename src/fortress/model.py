"""Gradient-boosted decision trees with logistic loss and sparsity-aware splits.

The trainer is deliberately small and exact rather than clever: second-order
boosting (gradient ``p - y``, hessian ``p (1 - p)``), exact greedy splits over
the sorted present values of each feature, and a learned per-split default
direction for missing values (whichever side yields the higher gain, left on
ties). Routing follows ``value < threshold -> left``, ``value >= threshold ->
right``, ``missing -> default direction``. Among equal-gain splits the lowest
feature index wins, then the lowest threshold, which together with the fixed
scan order makes training a pure function of (data, mask, config).

Split gain and leaf weights follow the standard second-order formulas:

    gain = 1/2 * [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                  - (G_L+G_R)^2/(H_L+H_R+lambda)] - gain_threshold
    leaf weight = -G/(H+lambda) * learning_rate

A round may yield a single-leaf tree when no split clears the gain threshold
and the minimum child hessian. A node with ``H + lambda == 0`` (lambda 0 and
every row's score saturated) is a leaf of weight 0: with lambda 0 the minimum
child hessian is above 0, so no split of it is admissible.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from fortress import _fork, _kernels as K
from fortress._config import Config
from fortress.data import _replacing
from fortress.rng import spawn

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainConfig(Config):
    """Hyperparameters of the boosted-tree trainer.

    ``row_subsample`` and ``col_subsample`` are fractions in (0, 1]; at the
    default 1.0 no sampling happens and ``seed`` has no effect on training.
    Per-round sampling generators are derived as ``mix64(seed, round)``.
    """

    section = "train"

    rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    l2_lambda: float = 1.0
    min_child_hessian: float = 1.0
    gain_threshold: float = 0.0
    row_subsample: float = 1.0
    col_subsample: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        self.check_types()
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.l2_lambda < 0.0:
            raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.min_child_hessian < 0.0:
            raise ValueError(
                f"min_child_hessian must be >= 0, got {self.min_child_hessian}"
            )
        if self.l2_lambda == 0.0 and self.min_child_hessian == 0.0:
            # with both at 0 a split may make a child whose rows all have
            # saturated scores (hessian sum 0); its gain and leaf weight
            # would then divide by 0
            raise ValueError(
                "l2_lambda and min_child_hessian must not both be 0; "
                "set either above 0"
            )
        if not (0.0 < self.row_subsample <= 1.0):
            raise ValueError(f"row_subsample must be in (0, 1], got {self.row_subsample}")
        if not (0.0 < self.col_subsample <= 1.0):
            raise ValueError(f"col_subsample must be in (0, 1], got {self.col_subsample}")
        self.check_finite()


class TrainMatrix:
    """A training design matrix with cached per-feature presort.

    The exact greedy search needs each feature's present values in sorted
    order. That order does not depend on the boosting round, the node, or the
    feature mask, so it is computed once and shared across every model
    trained on the same matrix (the pruning loop retrains many times).
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} does not match X rows {X.shape[0]}")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("y must be binary (0/1)")
        if np.any(np.isinf(X)):
            raise ValueError("X must not contain infinities (NaN encodes missing)")
        self.X = X
        self.y = y
        self._presort: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._ranks: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    @property
    def presort(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vals_sorted, sort_rows, offsets): present values of each feature in
        ascending order (stable, so ties keep row order), concatenated."""
        if self._presort is None:
            d = self.n_features
            offsets = np.zeros(d + 1, dtype=np.int64)
            rows_parts: list[np.ndarray] = []
            vals_parts: list[np.ndarray] = []
            for j in range(d):
                col = self.X[:, j]
                present = np.nonzero(~np.isnan(col))[0]
                order = np.argsort(col[present], kind="stable")
                rows_j = present[order].astype(np.int64)
                rows_parts.append(rows_j)
                vals_parts.append(col[rows_j])
                offsets[j + 1] = offsets[j] + rows_j.size
            sort_rows = (
                np.concatenate(rows_parts) if rows_parts else np.empty(0, np.int64)
            )
            vals_sorted = (
                np.concatenate(vals_parts) if vals_parts else np.empty(0, np.float64)
            )
            self._presort = (vals_sorted, sort_rows, offsets)
        return self._presort

    @property
    def ranks(self) -> np.ndarray:
        """The rank table of the batched split search: an ``(n, d)`` array
        holding each cell's position in its feature's presorted values, and
        ``n`` for a missing cell; ``uint16`` when ``n < 65,535``. Built on
        first use, like the presort."""
        if self._ranks is None:
            _, sort_rows, offsets = self.presort
            n, d = self.X.shape
            dtype = np.uint16 if n < 65535 else np.uint32
            ranks = np.full((n, d), n, dtype=dtype)
            # a feature at a time, so no temporary grows past one column
            bounds = offsets.tolist()
            for j in range(d):
                ranks[sort_rows[bounds[j]:bounds[j + 1]], j] = np.arange(
                    bounds[j + 1] - bounds[j], dtype=dtype
                )
            self._ranks = ranks
        return self._ranks


@dataclass
class Tree:
    """One regression tree in flat preorder arrays; ``feature == -1`` marks a
    leaf. Leaf weights already include the learning rate."""

    feature: np.ndarray
    threshold: np.ndarray
    default_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def to_node_dict(self, node: int = 0) -> dict:
        if self.feature[node] < 0:
            return {"weight": float(self.weight[node])}
        return {
            "feature": int(self.feature[node]),
            "threshold": float(self.threshold[node]),
            "default": "left" if self.default_left[node] else "right",
            "left": self.to_node_dict(int(self.left[node])),
            "right": self.to_node_dict(int(self.right[node])),
        }

    @classmethod
    def from_node_dict(cls, doc: dict, n_features: int | None = None) -> "Tree":
        """Inverse of :meth:`to_node_dict`; refuses a node that cannot be
        scored: a non-finite threshold or weight, or a split feature outside
        ``[0, n_features)``."""
        builder = _TreeBuilder()

        def finite(value: object, name: str) -> float:
            out = float(value)
            if not math.isfinite(out):
                raise ValueError(f"malformed tree node: {name} {out!r} is not finite")
            return out

        def walk(node: dict) -> int:
            idx = builder.add()
            if "weight" in node:
                builder.weight[idx] = finite(node["weight"], "weight")
                return idx
            try:
                feat = int(node["feature"])
                thr = float(node["threshold"])
                default = node["default"]
                left_doc = node["left"]
                right_doc = node["right"]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed tree node: {exc}") from None
            if default not in ("left", "right"):
                raise ValueError(f"malformed tree node: default {default!r}")
            if feat < 0 or (n_features is not None and feat >= n_features):
                width = "" if n_features is None else f" of {n_features} features"
                raise ValueError(
                    f"malformed tree node: split feature {feat} is outside the schema{width}"
                )
            builder.feature[idx] = feat
            builder.threshold[idx] = finite(thr, "threshold")
            builder.default_left[idx] = default == "left"
            builder.left[idx] = walk(left_doc)
            builder.right[idx] = walk(right_doc)
            return idx

        walk(doc)
        return builder.finish()


@dataclass
class BoostedModel:
    """A trained ensemble plus everything needed to reproduce its scores.

    ``rounds_reused`` counts the leading trees :func:`train` took over from
    its ``warm_start`` model instead of growing them; it is not serialized.
    """

    schema: tuple[str, ...]
    mask: np.ndarray
    base_score: float
    config: TrainConfig
    trees: list[Tree]
    rounds_reused: int = field(default=0, repr=False, compare=False)
    # weak reference to the TrainMatrix the model was trained on; a later
    # train() may reuse its trees only on that same matrix
    _matrix: weakref.ref | None = field(default=None, repr=False, compare=False)

    @property
    def n_features(self) -> int:
        return len(self.schema)

    def active_features(self) -> tuple[str, ...]:
        return tuple(n for n, m in zip(self.schema, self.mask) if m)

    def check_schema(self, schema: Sequence[str]) -> None:
        """Raise ``ValueError`` unless ``schema`` names the model's feature
        columns in the model's order."""
        if tuple(self.schema) != tuple(schema):
            raise ValueError(
                "model schema does not match dataset schema; "
                f"model has {len(self.schema)} features, dataset {len(schema)}"
            )

    def features_used(self) -> tuple[int, ...]:
        used: set[int] = set()
        for tree in self.trees:
            used.update(int(f) for f in tree.feature if f >= 0)
        return tuple(sorted(used))

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        return K.predict_margin(self._check_matrix(X), self.trees, self.base_score)

    def predict(self, X: np.ndarray | Sequence[float]) -> np.ndarray | float:
        """Probability of the positive class for a row or a matrix of rows.

        Missing values (NaN) are routed by each split's default direction, so
        prediction is total: any row of the right width gets a score.
        """
        arr = np.asarray(X, dtype=np.float64)
        single = arr.ndim == 1
        margins = self.predict_margin(arr.reshape(1, -1) if single else arr)
        probs = _sigmoid(margins)
        return float(probs[0]) if single else probs

    def _check_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"feature matrix shape {X.shape} does not match schema width "
                f"{self.n_features}"
            )
        return X


def _sigmoid(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    nonneg = m >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-m[nonneg]))
    em = np.exp(m[~nonneg])
    out[~nonneg] = em / (1.0 + em)
    return out


def _node_sums(g: np.ndarray, h: np.ndarray, rows: np.ndarray) -> tuple[float, float]:
    # Sequential (cumsum-order) sums, as the split kernel takes its prefix
    # sums.
    return float(np.cumsum(g[rows])[-1]), float(np.cumsum(h[rows])[-1])


def _route_left(col: np.ndarray, threshold: float, default_left: bool) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        below = col < threshold
    return np.where(np.isnan(col), default_left, below)


class _TreeBuilder:
    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.default_left: list[bool] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.weight: list[float] = []

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(math.nan)
        self.default_left.append(False)
        self.left.append(-1)
        self.right.append(-1)
        self.weight.append(0.0)
        return len(self.feature) - 1

    def finish(self) -> Tree:
        return Tree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            default_left=np.array(self.default_left, dtype=np.bool_),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            weight=np.array(self.weight, dtype=np.float64),
        )


# one split search request (g_total, h_total, lambda, gamma, min child
# hessian, active count) and its answer (gain, feature, threshold, default
# left); each is one write below PIPE_BUF, so a read gets all of it or, once
# the writer is gone, nothing
_REQUEST = struct.Struct("=5dq")
_REPLY = struct.Struct("=dqd?")


def _first_best(a: tuple, b: tuple) -> tuple:
    """Of two split searches over disjoint features, the split the search
    over all of them returns: it keeps the first best feature in index
    order, so a higher gain wins and an equal gain goes to the lower index."""
    return b if b[0] > a[0] or (b[0] == a[0] and b[1] < a[1]) else a


class _SplitHelper(_fork.Child):
    """A forked process that runs the per-feature split scan over every
    other active feature of a node above the batched cutoff while this
    process runs it over the rest.

    The helper inherits the presort. The gradients, the hessians, the node
    mask and the helper's active features live in an anonymous shared
    mapping; each node costs one fixed-size request and one reply on the
    child's pipes. :meth:`close` kills and reaps the helper; a helper that
    died raises ``ChildProcessError`` rather than leaving the search waiting.
    """

    def __init__(self, presort: tuple[np.ndarray, ...], n: int, d: int) -> None:
        shared = mmap.mmap(-1, 16 * n + 8 * d + n)
        self.g = np.frombuffer(shared, np.float64, n, 0)
        self.h = np.frombuffer(shared, np.float64, n, 8 * n)
        self._active = np.frombuffer(shared, np.int64, d, 16 * n)
        self._in_node = np.frombuffer(shared, np.bool_, n, 16 * n + 8 * d)
        self._presort = presort
        super().__init__()

    def serve(self, requests: int, replies: int) -> None:
        vals_sorted, sort_rows, offsets = self._presort
        while msg := os.read(requests, _REQUEST.size):
            g_total, h_total, lam, gamma, min_h, count = _REQUEST.unpack(msg)
            # the kernel itself, not K.best_split: a wrapper patched onto
            # that name (a test's fault injection) must not run in the child
            result = K.best_split_numpy(
                vals_sorted, sort_rows, offsets, self._in_node, self.g, self.h,
                g_total, h_total, self._active[:count], lam, gamma, min_h,
            )
            os.write(replies, _REPLY.pack(*result))

    def best_split(self, vals_sorted, sort_rows, offsets, in_node, g, h,
                   g_total, h_total, active, lam, gamma, min_h):
        """``K.best_split`` over ``active``, with the round's ``g`` and
        ``h`` copied into the helper's: it takes ``active[1::2]``."""
        theirs = active[1::2]
        if theirs.size:
            self._in_node[:] = in_node
            self._active[:theirs.size] = theirs
            request = _REQUEST.pack(g_total, h_total, lam, gamma, min_h, theirs.size)
            try:
                os.write(self.requests, request)
            except BrokenPipeError:
                raise self.died("the split helper") from None
        # looked up now, so a wrapper of the kernel sees this half
        mine = K.best_split(vals_sorted, sort_rows, offsets, in_node, g, h,
                            g_total, h_total, active[0::2], lam, gamma, min_h)
        if not theirs.size:
            return mine
        reply = os.read(self.replies, _REPLY.size)
        if not reply:
            raise self.died("the split helper")
        return _first_best(mine, _REPLY.unpack(reply))


def train(
    X: np.ndarray | TrainMatrix,
    y: np.ndarray | None = None,
    config: TrainConfig | None = None,
    mask: np.ndarray | Sequence[bool] | None = None,
    schema: Sequence[str] | None = None,
    warm_start: BoostedModel | None = None,
) -> BoostedModel:
    """Train a boosted-tree classifier.

    Args:
        X: training matrix (NaN encodes missing) or a prebuilt
            :class:`TrainMatrix`; in the latter case ``y`` must be omitted.
        y: binary labels, one per row.
        config: hyperparameters; defaults to ``TrainConfig()``.
        mask: optional boolean feature mask; splits only ever use active
            features. Defaults to all features active.
        schema: feature names for the model artifact; defaults to
            ``x0 .. xd-1``.
        warm_start: an earlier model whose leading trees are taken over
            where a fresh train would grow them identically (see
            :func:`_reusable_prefix`). The result is the fresh train's model
            either way; only the work done differs.

    The split search takes one of two paths by the node's row count, and
    both give the same bits. A small node is searched in this process, in
    one batched pass over all active features that reads the matrix's rank
    table (``TrainMatrix.ranks``, built on the first small node). A larger
    node is scanned one feature at a time. With trees left to grow, a root
    above ``_kernels.SMALL_NODE_ROWS // 2`` rows, and more than one CPU
    allowed by ``_fork.worker_count`` (so not inside a ``_fork.Child`` such
    as a candidate worker, with other threads running, or with one CPU),
    the scan of every large node is shared with one forked
    :class:`_SplitHelper`, which takes every other active feature. A node
    is small at up to ``SMALL_NODE_ROWS`` rows when the search is serial,
    and at up to half that when the helper shares the scan, which then
    takes about half as long. The model is the serial search's, byte for
    byte, and the helper is reaped before this returns or raises.

    Raises:
        ValueError: on shape problems, an empty training matrix, a
            single-class label vector, or an empty mask.
        ChildProcessError: the split helper died.
    """
    if isinstance(X, TrainMatrix):
        if y is not None:
            raise ValueError("pass either a TrainMatrix or (X, y), not both")
        tm = X
    else:
        if y is None:
            raise ValueError("y is required when X is a raw matrix")
        tm = TrainMatrix(X, y)
    config = config or TrainConfig()
    d = tm.n_features
    if mask is None:
        mask_arr = np.ones(d, dtype=np.bool_)
    else:
        mask_arr = np.asarray(mask, dtype=np.bool_)
        if mask_arr.shape != (d,):
            raise ValueError(f"mask shape {mask_arr.shape} does not match {d} features")
    if not mask_arr.any():
        raise ValueError("feature mask is empty; at least one feature must be active")

    n = tm.n_rows
    if n == 0:
        raise ValueError("cannot train on an empty training matrix")
    pos_rate = float(np.mean(tm.y))
    if pos_rate <= 0.0 or pos_rate >= 1.0:
        raise ValueError("training labels must include both classes")
    base_score = math.log(pos_rate / (1.0 - pos_rate))

    vals_sorted, sort_rows, offsets = tm.presort
    active_all = np.nonzero(mask_arr)[0].astype(np.int64)
    lam = config.l2_lambda
    gamma = config.gain_threshold
    min_h = config.min_child_hessian
    lr = config.learning_rate
    if schema is None:
        schema_t = tuple(f"x{j}" for j in range(d))
    else:
        schema_t = tuple(str(s) for s in schema)
        if len(schema_t) != d:
            raise ValueError(
                f"schema has {len(schema_t)} names for {d} feature columns"
            )
    prefix = _reusable_prefix(warm_start, tm, config, mask_arr)
    model = BoostedModel(
        schema=schema_t,
        mask=mask_arr.copy(),
        base_score=base_score,
        config=config,
        trees=list(prefix),
        rounds_reused=len(prefix),
        _matrix=weakref.ref(tm),
    )
    # Training adds each tree's leaf weights to the margins with the kernel
    # that scores the model, one tree at a time in order; replaying the
    # reused trees with it in one call makes the same additions, so the
    # margins are the ones their own training left, bit for bit.
    margins = K.predict_margin(tm.X, prefix, base_score)

    root_rows = n
    if config.row_subsample < 1.0:
        root_rows = max(1, int(math.floor(config.row_subsample * n)))
    # the helper halves the per-feature scan, and with it the batched
    # cutoff; a helper that no node would ask is not forked
    helper = None
    if (len(prefix) < config.rounds and active_all.size > 1
            and root_rows > K.SMALL_NODE_ROWS // 2 and _fork.worker_count() > 1):
        try:
            helper = _SplitHelper(tm.presort, n, d)
        except OSError:  # no process to spare after all: search serially
            helper = None
    small = K.SMALL_NODE_ROWS if helper is None else K.SMALL_NODE_ROWS // 2
    try:
        for round_ix in range(len(prefix), config.rounds):
            p = _sigmoid(margins)
            g = p - tm.y
            h = p * (1.0 - p)
            if helper is not None:  # the round's gradients, for the helper
                helper.g[:], helper.h[:] = g, h

            root_mask = np.ones(n, dtype=np.bool_)
            active = active_all
            if config.row_subsample < 1.0 or config.col_subsample < 1.0:
                rng = spawn(config.seed, round_ix)
                if config.row_subsample < 1.0:
                    root_mask = np.zeros(n, dtype=np.bool_)
                    root_mask[rng.choice(n, size=root_rows, replace=False)] = True
                if config.col_subsample < 1.0:
                    keep_f = max(1, int(math.floor(config.col_subsample * active_all.size)))
                    active = np.sort(rng.choice(active_all, size=keep_f, replace=False))

            builder = _TreeBuilder()

            def grow(node_mask: np.ndarray, depth: int) -> int:
                node = builder.add()
                rows = np.nonzero(node_mask)[0]
                g_total, h_total = _node_sums(g, h, rows)
                if h_total + lam == 0.0:
                    # every row's score is saturated and l2_lambda is 0, so
                    # min_child_hessian is above 0 and no split is admissible;
                    # the leaf weight -G/(H+lambda) is 0/0, taken as 0 (as in
                    # XGBoost's CalcWeight)
                    builder.weight[node] = 0.0
                    return node
                if depth < config.max_depth:
                    args = (vals_sorted, sort_rows, offsets, node_mask, g, h,
                            g_total, h_total, active, lam, gamma, min_h)
                    if rows.size <= small:
                        found = K.best_split(*args, (tm.X, tm.ranks, rows))
                    elif helper is None:
                        found = K.best_split(*args)
                    else:
                        found = helper.best_split(*args)
                    gain, j, threshold, default_left = found
                    if j >= 0 and gain > 0.0:
                        builder.feature[node] = int(j)
                        builder.threshold[node] = float(threshold)
                        builder.default_left[node] = bool(default_left)
                        go_left = _route_left(tm.X[:, int(j)], float(threshold), bool(default_left))
                        builder.left[node] = grow(node_mask & go_left, depth + 1)
                        builder.right[node] = grow(node_mask & ~go_left, depth + 1)
                        return node
                builder.weight[node] = -g_total / (h_total + lam) * lr
                return node

            grow(root_mask, 0)
            # grow refers to itself; without this the cycle keeps g, h and tm
            # alive until a cyclic collection, which may come many trains later
            del grow
            tree = builder.finish()
            model.trees.append(tree)
            margins = K.predict_margin(tm.X, (tree,), margins)
    finally:
        if helper is not None:
            helper.close()
    return model


def _reusable_prefix(
    prior: BoostedModel | None, tm: TrainMatrix, config: TrainConfig, mask: np.ndarray
) -> list[Tree]:
    """Leading trees of ``prior`` that training on (tm, config, mask) would
    grow identically.

    Training is a pure function of (data, mask, config), and the split search
    keeps the first feature, in index order, that reaches the best gain. So
    when ``mask`` only drops features from ``prior``'s mask, every split that
    chose a kept feature (and every leaf, whose best gain can only fall)
    comes out the same, as long as the margins entering the round are the
    same: all trees before the first one that splits on a dropped feature are
    rebuilt unchanged. The per-round row draw, ``spawn(seed, round)``, does
    not depend on the mask, but the column draw samples from the active
    features, so nothing is reused when ``col_subsample < 1``.
    """
    if (
        prior is None
        or prior._matrix is None
        or prior._matrix() is not tm
        or prior.config != config
        or config.col_subsample < 1.0
        or np.any(mask & ~prior.mask)
    ):
        return []
    dropped = prior.mask & ~mask
    prefix = []
    for tree in prior.trees:
        if np.any(dropped[tree.feature[tree.feature >= 0]]):
            break
        prefix.append(tree)
    return prefix


def log_loss_from_margins(margins: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss computed stably from raw margins."""
    m = np.asarray(margins, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, (1.0 - 2.0 * yv) * m)))


def loss_curve(model: BoostedModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Training-style loss after each round, replaying trees in order.

    Each tree is added to the margins with ``K.predict_margin``, the call
    the trainer makes after growing it, so on the training set this
    reproduces the in-training trajectory exactly.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    yv = np.asarray(y, dtype=np.float64)
    margins = np.full(X.shape[0], model.base_score, dtype=np.float64)
    losses = np.empty(len(model.trees), dtype=np.float64)
    for t, tree in enumerate(model.trees):
        margins = K.predict_margin(X, (tree,), margins)
        losses[t] = log_loss_from_margins(margins, yv)
    return losses


def mask_from_names(schema: Sequence[str], names: Iterable[str]) -> np.ndarray:
    """Boolean mask over ``schema`` activating exactly ``names``.

    Raises:
        ValueError: if any name is not in the schema.
    """
    want = set(names)
    unknown = want - set(schema)
    if unknown:
        raise ValueError(f"mask names not in schema: {sorted(unknown)}")
    return np.array([name in want for name in schema], dtype=np.bool_)


def serialize(model: BoostedModel) -> dict:
    """Model -> JSON-ready document with full float round-trip precision."""
    return {
        "kind": "boosted_model",
        "version": MODEL_SCHEMA_VERSION,
        "schema": list(model.schema),
        "mask": [bool(m) for m in model.mask],
        "base_score": float(model.base_score),
        "config": model.config.to_dict(),
        "trees": [tree.to_node_dict() for tree in model.trees],
    }


def deserialize(doc: dict) -> BoostedModel:
    """JSON document -> model. Inverse of :func:`serialize`.

    Raises:
        ValueError: wrong/missing version, missing trees, malformed nodes, a
            mask entry that is not a boolean, or a non-finite base score.
    """
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    version = doc.get("version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema version {version!r}, "
            f"expected {MODEL_SCHEMA_VERSION}"
        )
    if "trees" not in doc:
        raise ValueError("model document is missing the trees field")
    try:
        schema = tuple(str(s) for s in doc["schema"])
        flags = list(doc["mask"])
        base_score = float(doc["base_score"])
        config = TrainConfig.from_dict(doc["config"])
        trees = [Tree.from_node_dict(t, len(schema)) for t in doc["trees"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: {exc}") from None
    for flag in flags:
        if not isinstance(flag, bool):
            raise ValueError(f"model mask entry {flag!r} is not true or false")
    mask = np.array(flags, dtype=np.bool_)
    if mask.shape != (len(schema),):
        raise ValueError("model mask length does not match schema length")
    if not math.isfinite(base_score):
        raise ValueError(f"model base_score {base_score!r} is not finite")
    return BoostedModel(
        schema=schema, mask=mask, base_score=base_score, config=config, trees=trees
    )


def save_model(model: BoostedModel, path: str | Path) -> None:
    write_json(path, serialize(model))


def load_json(path: str | Path) -> dict:
    """The JSON object in the file at ``path``; ``ValueError`` naming the
    file when it is not UTF-8 text, not JSON or not an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def load_model(path: str | Path) -> BoostedModel:
    return deserialize(load_json(path))


def dumps_canonical(doc: dict) -> str:
    """Deterministic JSON text: sorted keys, shortest-round-trip floats,
    trailing newline. Byte-identical for equal documents."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``dumps_canonical(doc)`` to ``path``, the writer of every JSON
    artifact: as with ``write_csv``, a regular file is replaced only once the
    whole text is written (see ``data._replacing``)."""
    with _replacing(Path(path)) as fh:
        fh.write(dumps_canonical(doc).encode("utf-8"))
