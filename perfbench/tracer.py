"""Spans around the program's layer functions, recorded from outside ``src/``.

``Tracer.install`` wraps each function in ``LAYER_FUNCTIONS`` at every name a
``fortress`` module binds it under: ``from … import`` copies the function
object into the importing module, so ``fortress.pipeline.train`` and
``fortress.cli.parse_csv`` are patched next to ``fortress.model.train`` and
``fortress.data.parse_csv``, and ``fortress._kernels.best_split`` covers
``model.py``, which calls it through the module. ``uninstall`` puts the
originals back, so traced and untraced operations can alternate in one
process. Spans (name, start, end, parent) stay in memory until ``write``.

Two wrappers also count work: the split kernel records the rows it scans and
how many of them belong to the node, and ``train`` keeps each model so the
trees a candidate retrain shares with the model it is compared against can
be counted. That bookkeeping is itself recorded as a ``trace.bookkeeping``
span, so it is subtracted from the self time of the span it runs under.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). An attribute "Class.method" wraps a method.
LAYER_FUNCTIONS = (
    ("fortress._kernels", "best_split", "kernels.best_split"),
    ("fortress._kernels", "predict_margin", "kernels.predict_margin"),
    ("fortress.model", "train", "model.train"),
    ("fortress.model", "BoostedModel.predict", "model.predict"),
    ("fortress.pipeline", "fortress_run", "pipeline.fortress_run"),
    ("fortress.pipeline", "experiment_table", "pipeline.experiment_table"),
    ("fortress.pipeline", "evaluate_model", "pipeline.evaluate_model"),
    ("fortress.metrics", "paired_delta_significance", "metrics.paired_delta_significance"),
    ("fortress.metrics", "bootstrap_pr_auc_ci", "metrics.bootstrap_pr_auc_ci"),
    ("fortress.metrics", "bootstrap_ci", "metrics.bootstrap_ci"),
    ("fortress.stability", "build_stability_report", "stability.build_stability_report"),
    ("fortress.data", "parse_csv", "data.parse_csv"),
    ("fortress.data", "write_csv", "data.write_csv"),
    ("fortress.data", "partition_entities", "data.partition_entities"),
    ("fortress.synth", "generate", "synth.generate"),
    ("fortress.flipflop", "flip_flop_rate", "flipflop.flip_flop_rate"),
    ("fortress.report", "render", "report.render"),
    ("fortress.cli", "_cmd_gen", "cli.gen"),
    ("fortress.cli", "_cmd_split", "cli.split"),
    ("fortress.cli", "_cmd_stability", "cli.stability"),
    ("fortress.cli", "_cmd_eval", "cli.eval"),
    ("fortress.cli", "_cmd_flipflop", "cli.flipflop"),
    ("fortress.cli", "_cmd_report", "cli.report"),
    ("fortress.cli", "_cmd_prune", "cli.prune"),
)

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_start = 0
        self.op_starts: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.trainings: list[tuple[int, bytes, object]] = []  # matrix id, mask, model

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, ix: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[ix]
        self.spans[ix] = (name, start, time.perf_counter(), parent)

    def _wrap(self, name: str, fn):
        after = {"kernels.best_split": self._count_split, "model.train": self._keep_model}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ix = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(ix)
            if after is not None:
                ix = self._open(BOOKKEEPING)
                try:
                    after(args, kwargs, result)
                finally:
                    self._close(ix)
            return result

        return traced

    # -- counters ---------------------------------------------------------

    def _count_split(self, args, kwargs, result) -> None:
        _, sort_rows, offsets, in_node = args[:4]
        active = args[8]
        seen = np.concatenate(([0], np.cumsum(in_node[sort_rows], dtype=np.int64)))
        self.counts["in_node_rows"] += int(np.sum(seen[offsets[active + 1]] - seen[offsets[active]]))
        self.counts["scanned_rows"] += int(np.sum(offsets[active + 1] - offsets[active]))

    def _keep_model(self, args, kwargs, model) -> None:
        self.trainings.append((id(args[0]), np.asarray(model.mask).tobytes(), model))

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at every binding in loaded fortress modules."""
        owners = [importlib.import_module(mod_name) for mod_name, _, _ in LAYER_FUNCTIONS]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fortress" or n.startswith("fortress."))]
        for owner, (_, attr, span) in zip(owners, LAYER_FUNCTIONS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(span, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key: str, value) -> None:
        self._patches.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- per-operation summaries -----------------------------------------

    def begin_op(self) -> None:
        self.op_start = len(self.spans)
        self.op_starts.append(self.op_start)
        self.counts.clear()
        self.trainings.clear()

    def op_summary(self) -> dict:
        """Calls, inclusive seconds and self seconds per span name, over the
        spans of the current operation, plus the operation's counters."""
        spans = self.spans[self.op_start:]
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= self.op_start:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for ix, (name, start, end, _) in enumerate(spans, start=self.op_start):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[ix]
        return {"calls": dict(calls), "total": dict(total), "self": dict(own),
                "counts": dict(self.counts), "shared_prefix": self.shared_prefix()}

    def shared_prefix(self) -> tuple[int, int]:
        """(leading trees of candidate retrains equal to the model they are
        compared against, trees built by every training of the operation).

        A training's reference is the latest earlier training on the same
        matrix whose mask has exactly one more active feature: the model a
        greedy prune step compares its candidate with.
        """
        shared = 0
        built = 0
        for k, (matrix, mask, model) in enumerate(self.trainings):
            built += len(model.trees)
            active = np.frombuffer(mask, dtype=np.bool_)
            for prev_matrix, prev_mask, prev_model in reversed(self.trainings[:k]):
                prev = np.frombuffer(prev_mask, dtype=np.bool_)
                if prev_matrix == matrix and prev.sum() == active.sum() + 1 and np.all(prev >= active):
                    shared += _leading_equal_trees(model.trees, prev_model.trees)
                    break
        return shared, built

    def write(self, path) -> None:
        """One JSON line per span; ``op`` numbers the traced operation it
        belongs to, and ``parent`` is the line index of its parent or -1."""
        op = -1
        with open(path, "w", encoding="utf-8") as fh:
            for ix, (name, start, end, parent) in enumerate(self.spans):
                while op + 1 < len(self.op_starts) and self.op_starts[op + 1] <= ix:
                    op += 1
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _leading_equal_trees(a, b) -> int:
    n = 0
    for ta, tb in zip(a, b):
        same = all(
            np.array_equal(getattr(ta, f), getattr(tb, f), equal_nan=(f == "threshold"))
            for f in ("feature", "threshold", "default_left", "left", "right", "weight")
        )
        if not same:
            break
        n += 1
    return n
