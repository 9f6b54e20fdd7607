#!/usr/bin/env python3
"""Layer figures at the full pinned benchmark size, and kernel parity.

The workloads in ``run.py`` are scaled down so a run fits in seconds. This
script times the layers once each at the pinned size (5,000 entities x 8
snapshots x 25 features, seed 42) for comparison with the README's figures:
CSV write and parse, a 100-round train with its split-kernel share, ensemble
predict, and a paired bootstrap (b = 1000). It also checks that the numba and
numpy kernels give bit-identical results, and reports that check as skipped
when numba is not importable. Takes about half a minute.

    python3 perfbench/pinned.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def kernel_parity(K, tm, g, h, model) -> str:
    if not K.HAS_NUMBA:
        return "skipped (numba not importable)"
    arena = (tm.X, *model._ensure_arena(), model.base_score)
    if not np.array_equal(K.predict_margin_numpy(*arena), K.predict_margin_numba(*arena)):
        return "DIFFERENT margins"
    vals, rows, offsets = tm.presort
    in_node = np.ones(tm.n_rows, dtype=np.bool_)
    active = np.arange(tm.n_features, dtype=np.int64)
    call = (vals, rows, offsets, in_node, g, h, float(np.cumsum(g)[-1]), float(np.cumsum(h)[-1]),
            active, 1.0, 0.0, 1.0)
    a, b = K.best_split_numpy(*call), K.best_split_numba(*call)
    same = a[0] == b[0] and int(a[1]) == int(b[1]) and bool(a[3]) == bool(b[3]) and (
        a[2] == b[2] or (np.isnan(a[2]) and np.isnan(b[2])))
    return "identical" if same else "DIFFERENT splits"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fortress import _kernels as K
    from fortress.data import TRAIN, VAL, parse_csv, partition_entities, rows_in_partition, write_csv
    from fortress.metrics import paired_delta_significance
    from fortress.model import TrainConfig, TrainMatrix, train
    from fortress.synth import SynthConfig, generate

    OUT.mkdir(exist_ok=True)
    csv_path = OUT / "pinned.csv"
    t_gen, (ds, _) = _timed(generate, SynthConfig())
    t_write, _ = _timed(write_csv, ds, csv_path)
    size_mb = csv_path.stat().st_size / 1e6
    t_parse, _ = _timed(parse_csv, csv_path)
    csv_path.unlink()
    part = partition_entities(ds)
    rows = rows_in_partition(ds, part, TRAIN)
    tm = TrainMatrix(ds.X[rows], ds.binary_labels()[rows])
    t_presort, _ = _timed(lambda: tm.presort)

    split_time = [0.0, 0]
    original = K.best_split

    def counted(*args):
        t0 = time.perf_counter()
        try:
            return original(*args)
        finally:
            split_time[0] += time.perf_counter() - t0
            split_time[1] += 1

    K.best_split = counted
    try:
        t_train, model = _timed(train, tm, config=TrainConfig(), schema=ds.schema)
    finally:
        K.best_split = original
    val = rows_in_partition(ds, part, VAL)
    t_predict, scores = _timed(model.predict, ds.X[val])
    y = ds.binary_labels()[val]
    t_boot, _ = _timed(paired_delta_significance, scores, scores[::-1].copy(), y,
                       ds.entity_ids[val], b=1000, seed=1)
    p = 1.0 / (1.0 + np.exp(-np.full(tm.n_rows, model.base_score)))

    print(f"backend {K.backend_name()}, {tm.n_rows} TRAIN rows x {tm.n_features} features")
    print(f"generate                {t_gen:8.3f} s")
    print(f"write_csv               {t_write:8.3f} s  ({size_mb:.1f} MB)")
    print(f"parse_csv               {t_parse:8.3f} s")
    print(f"presort                 {t_presort:8.3f} s")
    print(f"train, 100 rounds       {t_train:8.3f} s  (best_split {split_time[0]:.3f} s, "
          f"{split_time[1]} calls)")
    print(f"predict, {val.size} VAL rows {t_predict:8.3f} s")
    print(f"paired bootstrap b=1000 {t_boot:8.3f} s")
    print(f"numba/numpy parity: {kernel_parity(K, tm, p - tm.y, p * (1 - p), model)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
