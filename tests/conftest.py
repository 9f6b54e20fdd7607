"""Shared fixtures: the default benchmark and the expensive end-to-end runs,
and the helpers of the tests that fork.

The default synthetic benchmark, its hash partition, the baseline model, and
the two full pipeline runs (greedy prune, four-row experiment) are shared
session-wide so each expensive computation happens at most once per session,
and only when some selected test actually asks for it.
"""

from __future__ import annotations

import builtins
import contextlib
import errno
import os
import time
from unittest import mock

import numpy as np
import pytest

from fortress.data import TRAIN, partition_entities
from fortress.model import TrainConfig, TrainMatrix, train
from fortress.pipeline import NON_INFERIOR, PipelineConfig, experiment_table, fortress_run
from fortress.synth import SynthConfig, generate


@pytest.fixture(scope="session")
def bench():
    """Default benchmark: (dataset, planted truth) at the default config."""
    return generate(SynthConfig())


@pytest.fixture(scope="session")
def bench_dataset(bench):
    return bench[0]


@pytest.fixture(scope="session")
def bench_truth(bench):
    return bench[1]


@pytest.fixture(scope="session")
def bench_partition(bench_dataset):
    return partition_entities(bench_dataset.entities)


@pytest.fixture(scope="session")
def bench_baseline(bench_dataset, bench_partition):
    """All-features model trained on the benchmark's TRAIN rows."""
    ds = bench_dataset
    rows = ds.rows_for(bench_partition.entities_in(TRAIN))
    tm = TrainMatrix(ds.X[rows], ds.binary_labels()[rows])
    return train(tm, config=TrainConfig(), schema=ds.schema)


@pytest.fixture(scope="session")
def noninferior_run(bench_dataset, bench_partition):
    """Full greedy prune in noninferior mode; returns (result, seconds)."""
    t0 = time.perf_counter()
    result = fortress_run(
        bench_dataset, PipelineConfig(mode=NON_INFERIOR), partition=bench_partition
    )
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def experiment(bench_dataset):
    """Four-row experiment at the default (strict) config.

    ``experiment.fortress`` carries the underlying strict-mode prune run,
    so strict-mode assertions share this computation.
    """
    return experiment_table(bench_dataset, PipelineConfig())


@pytest.fixture()
def rng():
    """Fresh deterministic generator for per-test random data."""
    return np.random.default_rng(20260823)


@pytest.fixture()
def at_cpus(monkeypatch):
    """``at_cpus(n)`` makes the affinity set ``n`` CPUs for the rest of the
    test; the rest of the fork rule still holds."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


def assert_no_child():
    """No forked child of this process is left, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> set[str]:
    """The file descriptors this process has open (needs ``/proc``)."""
    return set(os.listdir("/proc/self/fd"))


class _FullDisk:
    """A file opened for writing whose every write fails, as on a full disk."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def __getattr__(self, name: str):
        return getattr(self._fh, name)

    def __enter__(self) -> "_FullDisk":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def write(self, data) -> int:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@contextlib.contextmanager
def failing_writes():
    """In the block, a file that ``open`` (or ``Path.open``) opens for
    writing is opened, and then every write to it fails with ENOSPC."""
    real = builtins.open

    def opener(file, mode="r", *args, **kwargs):
        fh = real(file, mode, *args, **kwargs)
        return _FullDisk(fh) if set(mode) & set("wax+") else fh

    with mock.patch("builtins.open", opener), mock.patch("io.open", opener):
        yield
