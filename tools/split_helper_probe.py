#!/usr/bin/env python3
"""Time 20-round trains with and without the split helper, in one process.

``model.train`` forks a split helper (``model._SplitHelper``) that scans
every other active feature of each large node, when the root holds more
than ``_kernels.SMALL_NODE_ROWS // 2`` rows and ``_fork.worker_count()``
allows two or more processes. This probe measures where that pays. At each
size it trains the TRAIN rows of ``synth.generate`` (seed 42, depth-3 trees,
20 rounds) in alternating pairs, the helper first in odd pairs: once as the
fork rule allows, and once serially, with ``_fork.worker_count`` patched to
1 for the train. Both trains must serialize to the same bytes. It prints,
per size, each side's median and quartiles in ms and the pairs each won.

    python3 tools/split_helper_probe.py

It runs every entry of ``CASES``; edit ``CASES`` for a smaller run. It runs
on the CPUs it is given; with one CPU the fork rule never forks and both
sides are serial. The largest size (5,000 entities) takes about a minute at
4 pairs on a 2-vCPU guest.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fortress import _fork  # noqa: E402
from fortress.data import TRAIN, partition_entities, rows_in_partition  # noqa: E402
from fortress.model import TrainConfig, TrainMatrix, dumps_canonical, serialize, train  # noqa: E402
from fortress.synth import SynthConfig, generate  # noqa: E402

# (entities, row and column subsample, pairs): the TRAIN rows of the
# benchmark's experiment-subsampled, prune and analysis inputs, and of the
# pinned benchmark
CASES = ((300, 0.8, 12), (400, 1.0, 12), (1500, 1.0, 12), (5000, 1.0, 4))


def _timed_train(tm: TrainMatrix, config: TrainConfig, schema, serial: bool) -> tuple[float, bytes]:
    with mock.patch.object(_fork, "worker_count", return_value=1) if serial else nullcontext():
        t0 = time.perf_counter()
        model = train(tm, config=config, schema=schema)
        seconds = time.perf_counter() - t0
    return seconds, dumps_canonical(serialize(model)).encode()


def probe(n_entities: int, subsample: float, pairs: int) -> str:
    dataset, _ = generate(SynthConfig(n_entities=n_entities, seed=42))
    rows = rows_in_partition(dataset, partition_entities(dataset), TRAIN)
    tm = TrainMatrix(dataset.X[rows], dataset.binary_labels()[rows])
    config = TrainConfig(rounds=20, row_subsample=subsample, col_subsample=subsample)
    _timed_train(tm, config, dataset.schema, True)  # builds the presort and ranks untimed
    times: dict[bool, list[float]] = {False: [], True: []}
    for k in range(pairs):
        models = []
        for serial in ((False, True) if k % 2 == 0 else (True, False)):
            seconds, text = _timed_train(tm, config, dataset.schema, serial)
            times[serial].append(seconds)
            models.append(text)
        if models[0] != models[1]:
            raise AssertionError(f"{n_entities} entities: the helper changed the model")
    helper, serial = (statistics.quantiles([t * 1e3 for t in times[s]], n=4, method="inclusive")
                      for s in (False, True))
    won = sum(a < b for a, b in zip(times[False], times[True]))
    return (f"| {tm.n_rows:,} | {subsample:g} | {helper[1]:.0f} [{helper[0]:.0f}, {helper[2]:.0f}] "
            f"| {serial[1]:.0f} [{serial[0]:.0f}, {serial[2]:.0f}] | {won}/{pairs} | {pairs - won}/{pairs} |")


def main() -> int:
    print(f"worker_count() = {_fork.worker_count()}")
    print("| TRAIN rows | subsample | helper ms, median [Q1, Q3] | serial ms | helper won | serial won |")
    print("|---|---|---|---|---|---|")
    for n_entities, subsample, pairs in CASES:
        print(probe(n_entities, subsample, pairs), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
