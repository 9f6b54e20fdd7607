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
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from fortress import _kernels as K
from fortress._config import Config
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
    def from_node_dict(cls, doc: dict) -> "Tree":
        builder = _TreeBuilder()

        def walk(node: dict) -> int:
            idx = builder.add()
            if "weight" in node:
                builder.weight[idx] = float(node["weight"])
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
            builder.feature[idx] = feat
            builder.threshold[idx] = thr
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
    _arena: tuple | None = field(default=None, repr=False, compare=False)
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

    def with_trees(
        self, mask: np.ndarray, trees: Sequence[Tree], rounds_reused: int
    ) -> "BoostedModel":
        """The model :func:`train` returns for ``mask`` on this model's matrix
        and config, given the ``trees`` it grew (in another process, say).
        The result is bound to the same matrix, so it can warm-start later
        trains."""
        return BoostedModel(
            schema=self.schema,
            mask=np.array(mask, dtype=np.bool_),
            base_score=self.base_score,
            config=self.config,
            trees=list(trees),
            rounds_reused=rounds_reused,
            _matrix=self._matrix,
        )

    def features_used(self) -> tuple[int, ...]:
        used: set[int] = set()
        for tree in self.trees:
            used.update(int(f) for f in tree.feature if f >= 0)
        return tuple(sorted(used))

    def _ensure_arena(self) -> tuple:
        if self._arena is None:
            if self.trees:
                roots = np.zeros(len(self.trees), dtype=np.int64)
                offset = 0
                feats, thrs, dls, lefts, rights, wts = [], [], [], [], [], []
                for t, tree in enumerate(self.trees):
                    roots[t] = offset
                    feats.append(tree.feature)
                    thrs.append(tree.threshold)
                    dls.append(tree.default_left)
                    shift = np.where(tree.left >= 0, offset, 0)
                    lefts.append(tree.left + shift)
                    rights.append(tree.right + np.where(tree.right >= 0, offset, 0))
                    wts.append(tree.weight)
                    offset += tree.n_nodes
                self._arena = (
                    np.concatenate(feats),
                    np.concatenate(thrs),
                    np.concatenate(dls),
                    np.concatenate(lefts),
                    np.concatenate(rights),
                    np.concatenate(wts),
                    roots,
                )
            else:
                self._arena = (
                    np.empty(0, np.int64),
                    np.empty(0, np.float64),
                    np.empty(0, np.bool_),
                    np.empty(0, np.int64),
                    np.empty(0, np.int64),
                    np.empty(0, np.float64),
                    np.empty(0, np.int64),
                )
        return self._arena

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        X = self._check_matrix(X)
        feat, thr, dl, left, right, wt, roots = self._ensure_arena()
        return K.predict_margin(X, feat, thr, dl, left, right, wt, roots, self.base_score)

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
    # Sequential (cumsum-order) sums so that both kernel backends and the
    # python driver agree bit for bit.
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

    Raises:
        ValueError: on shape problems, a single-class label vector, or an
            empty mask.
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
    # Replaying the reused trees with the kernel that accumulated them during
    # their own training reproduces the margins bit for bit.
    margins = np.full(n, base_score, dtype=np.float64)
    for tree in prefix:
        margins = margins + _tree_margin(tree, tm.X)

    for round_ix in range(len(prefix), config.rounds):
        p = _sigmoid(margins)
        g = p - tm.y
        h = p * (1.0 - p)

        root_mask = np.ones(n, dtype=np.bool_)
        active = active_all
        if config.row_subsample < 1.0 or config.col_subsample < 1.0:
            rng = spawn(config.seed, round_ix)
            if config.row_subsample < 1.0:
                keep = max(1, int(math.floor(config.row_subsample * n)))
                root_mask = np.zeros(n, dtype=np.bool_)
                root_mask[rng.choice(n, size=keep, replace=False)] = True
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
                gain, j, threshold, default_left = K.best_split(
                    vals_sorted,
                    sort_rows,
                    offsets,
                    node_mask,
                    g,
                    h,
                    g_total,
                    h_total,
                    active,
                    lam,
                    gamma,
                    min_h,
                )
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
        margins = margins + _tree_margin(tree, tm.X)

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


def _tree_margin(tree: Tree, X: np.ndarray) -> np.ndarray:
    roots = np.zeros(1, dtype=np.int64)
    return K.predict_margin(
        X,
        tree.feature,
        tree.threshold,
        tree.default_left,
        tree.left,
        tree.right,
        tree.weight,
        roots,
        0.0,
    )


def log_loss_from_margins(margins: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss computed stably from raw margins."""
    m = np.asarray(margins, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, (1.0 - 2.0 * yv) * m)))


def loss_curve(model: BoostedModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Training-style loss after each round, replaying trees in order.

    Margins are accumulated tree by tree with the same kernel the trainer used,
    so on the training set this reproduces the in-training trajectory exactly.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    yv = np.asarray(y, dtype=np.float64)
    margins = np.full(X.shape[0], model.base_score, dtype=np.float64)
    losses = np.empty(len(model.trees), dtype=np.float64)
    for t, tree in enumerate(model.trees):
        margins = margins + _tree_margin(tree, X)
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
        ValueError: wrong/missing version, missing trees, malformed nodes.
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
        mask = np.array([bool(b) for b in doc["mask"]], dtype=np.bool_)
        base_score = float(doc["base_score"])
        config = TrainConfig.from_dict(dict(doc["config"]))
        trees = [Tree.from_node_dict(t) for t in doc["trees"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: {exc}") from None
    if mask.shape != (len(schema),):
        raise ValueError("model mask length does not match schema length")
    return BoostedModel(
        schema=schema, mask=mask, base_score=base_score, config=config, trees=trees
    )


def save_model(model: BoostedModel, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(serialize(model)), encoding="utf-8")


def load_model(path: str | Path) -> BoostedModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    return deserialize(doc)


def dumps_canonical(doc: dict) -> str:
    """Deterministic JSON text: sorted keys, shortest-round-trip floats,
    trailing newline. Byte-identical for equal documents."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
