#!/usr/bin/env python3
"""Fortress benchmark: closed-loop workloads timed end to end and per layer.

One process, one thread, closed loop: each operation starts when the
previous one ends, and the run repeats whole rounds until ``--seconds`` have
passed. Inputs come from ``--seed`` only.

    python3 perfbench/run.py --workload prune --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 0     # every workload, a table each
    python3 perfbench/run.py --workload all --trace 1     # per-layer metrics and overhead
    python3 perfbench/run.py --write-digests              # re-pin the output digests

With ``--trace 0`` a round is one operation and the last line of standard
output is a JSON object with the end-to-end metrics. With ``--trace 1`` a
round is one untraced and one traced operation; the per-layer metrics come
from the traced ones and ``trace.overhead_share`` compares the two. Any
failed check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
PINNED_SEEDS = (42, 7)
WORKLOAD_NAMES = ("prune", "analysis", "experiment-subsampled")
# setup_s is the median of at least 3 set-ups, repeated until 1 s has been
# spent, so that cheap set-ups are timed often enough to be steady
SETUP_RUNS, SETUP_SECONDS = 3, 1.0

LAYER_SPANS = (
    "kernels.best_split", "kernels.predict_margin", "model.predict",
    "metrics.paired_delta_significance", "metrics.bootstrap_pr_auc_ci", "metrics.bootstrap_ci",
    "stability.build_stability_report", "data.parse_csv", "data.write_csv",
    "data.partition_entities", "synth.generate", "flipflop.flip_flop_rate", "report.render",
    "cli.gen", "cli.split", "cli.stability", "cli.eval", "cli.flipflop", "cli.report",
    "cli.prune", "trace.bookkeeping",
)
COUNTED = ("kernels.best_split", "kernels.predict_margin", "model.train")


def _import_program():
    src = ROOT / "src"
    if not (src / "fortress" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/fortress")
    sys.path[:0] = [str(src), str(HERE)]
    import fortress

    if Path(fortress.__file__).resolve().parent != src / "fortress":
        sys.exit(f"perfbench: imported fortress from {fortress.__file__}, not {src}")


def layer_metrics(summary: dict, op_seconds: float) -> dict:
    """Per-layer metrics of one traced operation, as (value, unit) pairs.

    Shares are taken of the operation's time less the tracer's own
    bookkeeping, so they describe the program rather than the tracer.
    """
    calls, total, own, counts = (summary[k] for k in ("calls", "total", "self", "counts"))
    m = {f"{name}_s": (total.get(name, 0.0), "s") for name in LAYER_SPANS}
    m.update({f"{name}_calls": (calls.get(name, 0), "count") for name in COUNTED})
    m["model.train_self_s"] = (own.get("model.train", 0.0), "s")
    m["pipeline.self_s"] = (sum(v for k, v in own.items() if k.startswith("pipeline.")), "s")
    scanned = counts.get("scanned_rows", 0)
    m["kernels.best_split_in_node_share"] = (counts.get("in_node_rows", 0) / scanned if scanned else 0.0, "ratio")
    program_s = op_seconds - total.get("trace.bookkeeping", 0.0)
    m["kernels.best_split_share"] = (total.get("kernels.best_split", 0.0) / program_s, "ratio")
    m["data.share"] = (sum(v for k, v in total.items() if k.startswith("data.")) / program_s, "ratio")
    shared, built = summary["shared_prefix"]
    m["pipeline.shared_prefix_ratio"] = (shared / built if built else 0.0, "ratio")
    m["pipeline.trees_built"] = (built, "count")
    m["trace.op_s"] = (op_seconds, "s")
    return m


def _digest_errors(args, wl, out: dict, pinned: dict) -> list[str]:
    from workloads import sha256

    errors = []
    for f in wl.digested:
        digest = sha256(out[f])
        print(f"sha256 {args.workload} seed={args.seed} {f} {digest}")
        if f in pinned and pinned[f] != digest:
            errors.append(f"{f} digest {digest} != pinned {pinned[f]}")
    return errors


def run_workload(args) -> int:
    _import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.smoke)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        work.mkdir(parents=True, exist_ok=True)
        setup_times = []
        while len(setup_times) < SETUP_RUNS or sum(setup_times) < SETUP_SECONDS:
            t0 = time.perf_counter()
            st = wl.setup(args.seed, work)
            setup_times.append(time.perf_counter() - t0)

        pinned = {} if args.smoke or not DIGESTS.exists() else (
            json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed), {}))
        first = None
        attempted = failed = 0
        op_times, traced_times, layers = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            for traced in ((False, True) if tracer else (False,)):
                attempted += 1
                errors = []
                if traced:
                    tracer.begin_op()
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    result = wl.run(st)
                except Exception as exc:  # a crashing operation is a failed one
                    errors.append(f"raised {exc!r}")
                finally:
                    dt = time.perf_counter() - t0
                    if traced:
                        tracer.uninstall()
                if not errors:
                    try:
                        out = wl.outputs(st, result)
                        if first is None:
                            first = out
                            errors = wl.check(st, result, out) + _digest_errors(args, wl, out, pinned)
                        else:
                            errors = [f"{k} differs from the first operation"
                                      for k in out if out[k] != first[k]]
                    except Exception as exc:  # malformed output fails its operation
                        errors.append(f"checking raised {exc!r}")
                if traced:
                    traced_times.append(dt)
                    layers.append(layer_metrics(tracer.op_summary(), dt))
                    if any(layers[0][k] != layers[-1][k] for k in layers[0]
                           if k.endswith(("_calls", "_ratio", "_built"))):
                        errors.append("traced counts differ from the first traced operation")
                else:
                    op_times.append(dt)
                for e in errors:
                    print(f"FAILED {args.workload} op {attempted}: {e}", file=sys.stderr)
                failed += bool(errors)
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None and tracer.spans:
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    if tracer:
        # counts repeat exactly across traced operations (checked above)
        metrics = {k: {"value": v if u == "count" else statistics.median(l[k][0] for l in layers),
                       "unit": u} for k, (v, u) in layers[0].items()}
        untraced = statistics.median(op_times)
        metrics["trace.overhead_share"] = {
            "value": statistics.median(traced_times) / untraced - 1.0, "unit": "ratio"}
    else:
        metrics = {
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (seed {args.seed}, {'traced' if args.trace else 'untraced'}, exit {proc.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        try:
            doc = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print("   no result")
            status = 1
            continue
        print(f"   attempted {doc['attempted']}  failed {doc['failed']}  correct {doc['correct']}")
        for key, m in doc["metrics"].items():
            print(f"   {key:40s} {m['value']:14.6g} {m['unit']}")
        status |= proc.returncode
    return status


def write_digests(args) -> int:
    """Run one operation of each digested workload at each pinned seed and
    store the sha256 of its outputs in digests.json."""
    _import_program()
    from workloads import WORKLOADS, sha256

    doc = {}
    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name](False)
        for seed in PINNED_SEEDS if wl.digested else ():
            work = OUT / f"digest-{name}-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                st = wl.setup(seed, work)
                result = wl.run(st)
                out = wl.outputs(st, result)
                errors = wl.check(st, result, out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            doc.setdefault(name, {})[str(seed)] = {f: sha256(out[f]) for f in wl.digested}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.write_digests:
        return write_digests(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
