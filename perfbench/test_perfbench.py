"""Self-tests of the benchmark: its references and a smoke run of each workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import oracles  # noqa: E402
import reference as ref  # noqa: E402
from fortress import data, flipflop, model, pipeline  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


def test_average_precision_matches_oracle_with_ties(rng):
    for _ in range(300):
        scores, labels = oracles.random_ap_instance(rng)
        assert ref.average_precision(scores, labels) == pytest.approx(
            oracles.reference_average_precision(scores, labels), abs=1e-12)


def test_cv_and_nearest_rank_match_oracle(rng):
    for _ in range(200):
        values = rng.choice(rng.random(4) + 0.1, size=int(rng.integers(2, 12)))
        assert ref.cv(values) == pytest.approx(oracles.reference_cv(values), abs=1e-12)
        p = float(rng.uniform(0.5, 100.0))
        assert ref.nearest_rank(values, p) == oracles.reference_percentile_nearest_rank(values, p)


def test_partition_hash():
    assert ref.fnv1a64(b"") == 0xCBF29CE484222325
    assert ref.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    ids = [f"e{i}|{i * 7919 % 1000:03d}" for i in range(500)]
    assert ref.partition(ids) == data.partition_entities(ids).assignment


def test_predict_and_flip_flops_match_program(rng):
    X = rng.normal(size=(240, 5))
    X[rng.random(X.shape) < 0.2] = np.nan
    y = (rng.random(240) < 0.5).astype(float)
    m = model.train(X, y, config=model.TrainConfig(rounds=15))
    scores = ref.predict(model.serialize(m), X)
    assert np.array_equal(scores, m.predict(X))

    ds = data.build_dataset(
        [f"f_{j}" for j in range(5)], "int",
        np.repeat([f"e{i:03d}" for i in range(60)], 4), np.tile(["0", "1", "2", "3"], 60),
        np.repeat([f"r{i % 3}" for i in range(60)], 4), np.repeat((rng.random(60) < 0.5) * 2, 4), X)
    m = model.train(ds.X, ds.binary_labels(), config=model.TrainConfig(rounds=10),
                    schema=ds.schema)
    tau = float(np.median(m.predict(ds.X)))
    report = flipflop.flip_flop_rate(m, ds, tau=tau)
    mine = ref.flip_flops(ds.entity_ids, ds.regions, ref.predict(model.serialize(m), ds.X), tau)
    assert mine == {r: [v.flipped, v.total] for r, v in report.per_region.items()}


def test_tracer_wraps_every_binding_and_restores():
    import fortress._kernels as K

    originals = (pipeline.train, K.best_split, model.BoostedModel.predict)
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.train is model.train is not originals[0]
        assert K.best_split is not originals[1]
        tracer.begin_op()
        X = np.random.default_rng(1).normal(size=(100, 3))
        m = model.train(X, (X[:, 0] > 0).astype(float), config=model.TrainConfig(rounds=3))
        m.predict(X)
        summary = tracer.op_summary()
    finally:
        tracer.uninstall()
    assert (pipeline.train, K.best_split, model.BoostedModel.predict) == originals
    assert summary["calls"]["model.train"] == 1
    assert summary["calls"]["kernels.best_split"] >= 3
    assert summary["self"]["model.train"] < summary["total"]["model.train"]
    assert summary["shared_prefix"] == (0, 3)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["prune", "analysis", "experiment-subsampled"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
                 "--smoke"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] == 1 + int(trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(doc["metrics"]) == sorted(names)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "prune", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
