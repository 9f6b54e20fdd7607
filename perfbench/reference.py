"""Independent references the benchmark checks the program's outputs against.

Nothing here imports ``fortress``: scores are recomputed from the serialized
model document, and average precision, coefficient of variation, the
nearest-rank percentile, the FNV-1a entity partition and the flip-flop count
are written out from their definitions. The benchmark's own tests compare
these with ``tests/oracles.py`` on random instances with ties.
"""

from __future__ import annotations

import itertools
import math
import statistics

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def average_precision(scores, labels) -> float:
    """AP over the PR curve; rows with equal scores enter as one block."""
    pairs = sorted(zip((float(s) for s in scores), (float(y) for y in labels)),
                   key=lambda p: -p[0])
    total_pos = sum(y for _, y in pairs)
    if total_pos == 0:
        raise ValueError("no positives")
    ap = 0.0
    tp = 0.0
    seen = 0
    for _, block in itertools.groupby(pairs, key=lambda p: p[0]):
        block = list(block)
        gained = sum(y for _, y in block)
        tp += gained
        seen += len(block)
        ap += (gained / total_pos) * (tp / seen)
    return ap


def cv(values) -> float:
    """Population standard deviation over the mean."""
    data = [float(v) for v in values]
    return statistics.pstdev(data) / statistics.fmean(data)


def nearest_rank(values, p: float) -> float:
    """Element at 1-indexed rank ceil(p/100 * n) of the ascending sort."""
    data = sorted(float(v) for v in values)
    rank = math.ceil(p * len(data) / 100.0 - 1e-9)
    return data[min(max(rank, 1), len(data)) - 1]


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def partition(entity_ids, fractions=(0.70, 0.15, 0.15), salt: str = "fortress") -> dict:
    """Entity -> TRAIN/VAL/TEST by the salted FNV-1a 64-bit hash of its id."""
    out = {}
    for e in entity_ids:
        u = fnv1a64(salt.encode() + b"\x00" + e.encode()) / 2.0**64
        if u < fractions[0]:
            out[e] = "TRAIN"
        elif u < fractions[0] + fractions[1]:
            out[e] = "VAL"
        else:
            out[e] = "TEST"
    return out


def _walk(node: dict, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    if "weight" in node:
        out[rows] += node["weight"]
        return
    x = X[rows, node["feature"]]
    missing = np.isnan(x)
    with np.errstate(invalid="ignore"):
        left = np.where(missing, node["default"] == "left", x < node["threshold"])
    _walk(node["left"], X, rows[left], out)
    _walk(node["right"], X, rows[~left], out)


def predict(model_doc: dict, X: np.ndarray) -> np.ndarray:
    """Probabilities from a serialized model document: base score plus each
    tree's leaf weight in tree order, then the logistic function."""
    margins = np.full(X.shape[0], float(model_doc["base_score"]))
    rows = np.arange(X.shape[0])
    for tree in model_doc["trees"]:
        leaf = np.zeros(X.shape[0])
        _walk(tree, X, rows, leaf)
        margins = margins + leaf
    out = np.empty_like(margins)
    pos = margins >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-margins[pos]))
    em = np.exp(margins[~pos])
    out[~pos] = em / (1.0 + em)
    return out


def entity_blocks(entity_ids) -> list[tuple[str, int, int]]:
    """(entity, start, stop) for each run of equal ids, in row order."""
    blocks = []
    start = 0
    for i in range(1, len(entity_ids) + 1):
        if i == len(entity_ids) or entity_ids[i] != entity_ids[start]:
            blocks.append((str(entity_ids[start]), start, i))
            start = i
    return blocks


def entity_cvs(entity_ids, scores) -> dict:
    """Score CV of every entity with at least two rows."""
    return {e: cv(scores[a:b]) for e, a, b in entity_blocks(entity_ids) if b - a >= 2}


def flip_flops(entity_ids, regions, scores, tau: float) -> dict:
    """region -> [flipped, total] over entities with at least two rows; an
    entity flips when ``score >= tau`` is not the same at every snapshot."""
    out: dict = {}
    for _, a, b in entity_blocks(entity_ids):
        if b - a < 2:
            continue
        counts = out.setdefault(str(regions[a]), [0, 0])
        admitted = {bool(s >= tau) for s in scores[a:b]}
        counts[0] += len(admitted) == 2
        counts[1] += 1
    return out
