"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import re
import signal
import tempfile
import threading
from pathlib import Path

import pytest
from conftest import assert_no_child, failing_writes

from fortress import cli, data as data_module, pipeline
from fortress.cli import main
from fortress.data import (
    CACHE_SUFFIX, TEST, TRAIN, PartitionAssignment, parse_csv, read_dataset,
)
from fortress.flipflop import flip_flop_rate, relative_reduction, tau_from_percentile
from fortress.model import (
    BoostedModel, TrainConfig, TrainMatrix, dumps_canonical, load_model, mask_from_names,
    save_model, serialize, train,
)
from fortress.pipeline import evaluate_model
from fortress.rng import mix64
from fortress.synth import SynthConfig, generate
from fortress.data import write_csv

TINY_SYNTH = {"n_entities": 80, "snapshots": 3, "seed": 11}
TINY_RUN = {
    "synth": TINY_SYNTH,
    "train": {"rounds": 12},
    "pipeline": {"bootstrap_b": 60, "candidates": 3, "mode": "noninferior"},
    "eval": {"bootstrap_b": 50},
}


@pytest.fixture()
def clean_env(monkeypatch):
    monkeypatch.delenv("FORTRESS_SEED", raising=False)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full CLI pipeline run: gen -> split -> train -> stability -> prune
    -> eval -> flipflop, all artifacts kept for the individual tests."""
    ws = tmp_path_factory.mktemp("cli")
    cfg = ws / "run.json"
    cfg.write_text(json.dumps(TINY_RUN))
    data = ws / "data.csv"
    truth = ws / "truth.json"
    part = ws / "part.json"
    baseline = ws / "baseline.json"
    stability = ws / "stability.json"
    pruned = ws / "pruned.json"
    trace = ws / "trace.json"
    evaluation = ws / "eval.json"
    flips = ws / "flips.json"

    steps = [
        ["gen", "--config", str(cfg), "--out", str(data), "--truth", str(truth)],
        ["split", "--data", str(data), "--out", str(part)],
        ["train", "--config", str(cfg), "--data", str(data), "--out", str(baseline),
         "--partition", str(part)],
        ["stability", "--data", str(data), "--model", str(baseline),
         "--out", str(stability), "--partition", str(part), "--part", "val"],
        ["prune", "--config", str(cfg), "--data", str(data), "--out", str(pruned),
         "--trace", str(trace), "--partition", str(part)],
        ["eval", "--config", str(cfg), "--data", str(data), "--model", str(pruned),
         "--out", str(evaluation), "--partition", str(part)],
        ["flipflop", "--data", str(data), "--model", str(pruned),
         "--base-model", str(baseline), "--out", str(flips),
         "--partition", str(part), "--part", "test"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return ws


def _json(path):
    return json.loads(path.read_text())


class TestPipelineArtifacts:
    def test_gen_writes_parseable_csv_and_truth(self, workspace):
        ds = parse_csv(workspace / "data.csv")
        assert len(ds.entities) == 80
        assert ds.n_rows == 240
        truth = _json(workspace / "truth.json")
        assert truth["kind"] == "planted_truth"
        assert len(truth["relevance"]) == 80
        assert set(truth["roles"]) == set(ds.schema)

    def test_gen_sidecar_records_resolved_config(self, workspace):
        sidecar = _json(workspace / "data.csv.config.json")
        assert sidecar["kind"] == "run_config"
        assert sidecar["seed"] == 42  # nothing set the run seed anywhere
        assert sidecar["synth"]["n_entities"] == 80
        # the synth section pinned its own component seed
        assert sidecar["synth"]["seed"] == 11

    def test_split_artifact_loads(self, workspace):
        part = PartitionAssignment.from_dict(_json(workspace / "part.json"))
        assert sum(part.counts().values()) == 80

    def test_train_produces_loadable_model(self, workspace):
        model = load_model(workspace / "baseline.json")
        assert len(model.trees) == 12
        assert len(model.schema) == 25
        sidecar = _json(workspace / "baseline.json.config.json")
        assert sidecar["train"]["rounds"] == 12

    def test_stability_report_kind(self, workspace):
        doc = _json(workspace / "stability.json")
        assert doc["kind"] == "stability_report"
        assert len(doc["feature_cv_ranking"]) == 25

    def test_prune_trace_and_model(self, workspace):
        doc = _json(workspace / "trace.json")
        assert doc["kind"] == "prune_trace"
        assert doc["mode"] == "noninferior"
        assert len(doc["candidates"]) == 3
        model = load_model(workspace / "pruned.json")
        assert model.active_features() == tuple(doc["final_features"])

    def test_eval_report_kind(self, workspace):
        doc = _json(workspace / "eval.json")
        assert doc["kind"] == "eval_report"
        assert doc["pr_auc"]["resamples"] == 50
        assert 0.0 <= doc["pr_auc"]["point"] <= 1.0

    def test_flipflop_comparison_written(self, workspace):
        doc = _json(workspace / "flips.json")
        assert doc["kind"] == "flipflop_comparison"
        assert doc["tau"] == 0.5
        assert doc["base"]["global"]["total"] == doc["improved"]["global"]["total"]

    def test_report_renders_every_artifact(self, workspace, capsys):
        headers = {
            "part.json": "# Partition",
            "baseline.json": "# Boosted model",
            "stability.json": "# Stability report",
            "trace.json": "# Prune trace",
            "eval.json": "# Evaluation",
            "flips.json": "# Flip-flop comparison",
        }
        for name, header in headers.items():
            assert main(["report", str(workspace / name)]) == 0
            assert header in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        cfg = workspace / "run.json"
        out2 = tmp_path / "pruned2.json"
        trace2 = tmp_path / "trace2.json"
        code = main([
            "prune", "--config", str(cfg), "--data", str(workspace / "data.csv"),
            "--out", str(out2), "--trace", str(trace2),
            "--partition", str(workspace / "part.json"),
        ])
        assert code == 0
        assert out2.read_bytes() == (workspace / "pruned.json").read_bytes()
        assert trace2.read_bytes() == (workspace / "trace.json").read_bytes()

    def test_artifacts_contain_no_timestamps(self, workspace):
        iso_datetime = re.compile(r"20\d\d-\d\d-\d\d[T ]\d\d:")
        for name in ("part.json", "trace.json", "eval.json", "flips.json"):
            text = (workspace / name).read_text().lower()
            assert "timestamp" not in text, name
            assert "created_at" not in text, name
            assert not iso_datetime.search(text), name


class TestDataSidecar:
    """``--data`` through ``read_dataset``: sidecar hits give what parses give."""

    @staticmethod
    def _commands(workspace, d):
        data = ["--data", str(d / "data.csv")]
        part = ["--partition", str(d / "part.json")]
        return [
            ["split", *data, "--out", str(d / "part.json")],
            ["train", "--config", str(workspace / "run.json"), *data,
             "--out", str(d / "model.json"), *part],
            ["stability", *data, "--model", str(d / "model.json"), "--out", str(d / "stab.json"),
             *part, "--part", "val"],
            ["eval", "--config", str(workspace / "run.json"), *data,
             "--model", str(workspace / "pruned.json"), "--out", str(d / "eval.json"), *part],
            ["flipflop", *data, "--model", str(workspace / "pruned.json"),
             "--base-model", str(d / "model.json"), "--out", str(d / "flips.json"), *part],
        ]

    @staticmethod
    def _files(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    def test_reruns_are_byte_identical_with_and_without_the_sidecar(self, workspace, tmp_path):
        runs = {}
        for name in ("first", "every command misses"):
            d = tmp_path / name
            d.mkdir()
            (d / "data.csv").write_bytes((workspace / "data.csv").read_bytes())
            for argv in self._commands(workspace, d):
                if name != "first":
                    (d / ("data.csv" + CACHE_SUFFIX)).unlink(missing_ok=True)
                assert main(argv) == 0, argv
            runs[name] = self._files(d)
        first = tmp_path / "first"
        for argv in self._commands(workspace, first):  # every command hits
            assert main(argv) == 0, argv
        runs["every command hits"] = self._files(first)
        assert runs["first"] == runs["every command misses"] == runs["every command hits"]
        assert "data.csv" + CACHE_SUFFIX in runs["first"]
        assert (tmp_path / "first" / "part.json").read_bytes() == (workspace / "part.json").read_bytes()

    def test_a_read_only_directory_is_read_and_left_as_is(self, workspace, tmp_path, monkeypatch):
        d = tmp_path / "ro"
        d.mkdir()
        (d / "data.csv").write_bytes((workspace / "data.csv").read_bytes())
        d.chmod(0o555)
        try:
            if os.access(d, os.W_OK):  # a superuser writes there anyway

                def refuse(*args, dir=None, **kwargs):
                    if Path(dir) == d:
                        raise PermissionError(13, "Permission denied", str(dir))
                    return real_mkstemp(*args, dir=dir, **kwargs)

                real_mkstemp = tempfile.mkstemp
                monkeypatch.setattr(tempfile, "mkstemp", refuse)
            out = tmp_path / "part.json"
            assert main(["split", "--data", str(d / "data.csv"), "--out", str(out)]) == 0
            assert [p.name for p in d.iterdir()] == ["data.csv"]
        finally:
            d.chmod(0o755)
        assert out.read_bytes() == (workspace / "part.json").read_bytes()

    def test_a_malformed_csv_writes_no_sidecar(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("entity_id,snapshot_id,region,label,f_a\ne,0,r,GOOD,1\ne,1,r,GOOD,abc\n")
        code = main(["split", "--data", str(bad), "--out", str(tmp_path / "part.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"fortress: error: {bad}: line 3: feature 'f_a': unparseable value 'abc'\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_is_parsed_without_a_sidecar(self, workspace, tmp_path):
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        # a sidecar keyed by the piped bytes, holding another dataset, is
        # not used either: the pipe is not hashed ahead of the parse
        other = tmp_path / "other.csv"
        write_csv(generate(SynthConfig(n_entities=20, snapshots=2))[0], other)
        read_dataset(other)
        stored = (tmp_path / ("other.csv" + CACHE_SUFFIX)).read_bytes()
        key = hashlib.sha256((workspace / "data.csv").read_bytes()).hexdigest().encode()
        sidecar = tmp_path / ("pipe.csv" + CACHE_SUFFIX)
        head = len(b"fortress-cache 1 ")
        sidecar.write_bytes(stored[:head] + key + stored[head + len(key):])
        for name in ("other.csv", "other.csv" + CACHE_SUFFIX):
            (tmp_path / name).unlink()
        before = sidecar.read_bytes()
        writer = threading.Thread(
            target=pipe.write_bytes, args=((workspace / "data.csv").read_bytes(),), daemon=True)
        writer.start()
        out = tmp_path / "part.json"
        assert main(["split", "--data", str(pipe), "--out", str(out)]) == 0
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert out.read_bytes() == (workspace / "part.json").read_bytes()
        assert sidecar.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["part.json", "pipe.csv", sidecar.name]


class TestRunConfigs:
    """``<out>.config.json`` is the run a command resolved, in the schema
    ``--config`` reads."""

    # each command with its seed, gate and split flags; the first run adds
    # --config run.json, the rerun --config <out>.config.json
    COMMANDS = {
        "gen": ["gen", "--out", "{out}", "--seed", "3"],
        "train-hash": ["train", "--data", "{data}", "--out", "{out}", "--part", "train",
                       "--salt", "x", "--fractions", "0.6,0.2,0.2"],
        "train-partition": ["train", "--data", "{data}", "--out", "{out}", "--partition", "{part}",
                            "--mask", "f_sr_0,f_eng_0,f_eng_1", "--seed", "5"],
        "prune-hash": ["prune", "--data", "{data}", "--out", "{out}", "--trace", "{dir}/trace.json",
                       "--mode", "strict", "--percentile", "60", "--bootstrap-b", "40",
                       "--salt", "x"],
        "prune-partition": ["prune", "--data", "{data}", "--out", "{out}", "--partition", "{part}",
                            "--seed", "6"],
        "eval": ["eval", "--data", "{data}", "--model", "{model}", "--out", "{out}", "--part", "val",
                 "--salt", "x", "--bootstrap-b", "20"],
        "experiment": ["experiment", "--data", "{data}", "--out", "{out}",
                       "--fractions", "0.6,0.2,0.2", "--seed", "4"],
    }
    REPLACED = {"--config", "--seed", "--salt", "--fractions", "--mode", "--percentile",
                "--bootstrap-b"}

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_a_rerun_from_the_sidecar_is_byte_identical(self, workspace, tmp_path, clean_env, name):
        def run(d, config, replaced=()):
            d.mkdir()
            values = {"data": workspace / "data.csv", "part": workspace / "part.json",
                      "model": workspace / "pruned.json", "out": d / "out.json", "dir": d}
            argv = [a.format(**values) for a in self.COMMANDS[name]]
            kept = [a for k, a in enumerate(argv)
                    if a not in replaced and (k == 0 or argv[k - 1] not in replaced)]
            assert main([*kept, "--config", str(config)]) == 0
            return {p.name: p.read_bytes() for p in d.iterdir()}

        first = run(tmp_path / "a", workspace / "run.json")
        sidecar = tmp_path / "a" / "out.json.config.json"
        assert run(tmp_path / "b", sidecar, self.REPLACED) == first
        doc = _json(sidecar)
        assert doc["kind"] == "run_config"
        assert "train" not in doc.get("pipeline", {})
        hashed = name.endswith("-hash") or name in ("eval", "experiment")
        assert ("salt" in doc.get("pipeline", {})) == hashed

    def test_one_run_config_gives_train_eval_and_prune_one_split(
        self, workspace, tmp_path, monkeypatch, clean_env
    ):
        cfg = tmp_path / "c.json"
        split = {"salt": "x", "fractions": [0.6, 0.2, 0.2]}
        cfg.write_text(json.dumps({**TINY_RUN, "pipeline": {**TINY_RUN["pipeline"], **split}}))
        data = ["--config", str(cfg), "--data", str(workspace / "data.csv")]
        runs, real = [], cli.fortress_run
        monkeypatch.setattr(cli, "fortress_run", lambda *a, **k: runs.append(real(*a, **k)) or runs[0])
        assert main(["prune", *data, "--out", str(tmp_path / "p.json")]) == 0
        assert main(["train", *data, "--out", str(tmp_path / "m.json"), "--part", "train"]) == 0
        assert main(["eval", *data, "--model", str(tmp_path / "p.json"),
                     "--out", str(tmp_path / "e.json"), "--part", "test"]) == 0
        partition = runs[0].partition
        assert (partition.salt, list(partition.fractions)) == (split["salt"], split["fractions"])
        ds = read_dataset(workspace / "data.csv")
        rows = ds.rows_for(partition.entities_in(TRAIN))
        model = train(TrainMatrix(ds.X[rows], ds.binary_labels()[rows]),
                      config=TrainConfig(rounds=12), schema=ds.schema)
        assert (tmp_path / "m.json").read_text() == dumps_canonical(serialize(model))
        report = evaluate_model(runs[0].model, ds, partition.entities_in(TEST), b=50, seed=42)
        assert (tmp_path / "e.json").read_text() == dumps_canonical(report.to_dict())


class TestExperimentCommand:
    def test_experiment_table(self, workspace, tmp_path, capsys):
        out = tmp_path / "table.json"
        code = main([
            "experiment", "--config", str(workspace / "run.json"),
            "--data", str(workspace / "data.csv"), "--out", str(out),
        ])
        assert code == 0
        doc = _json(out)
        assert doc["kind"] == "experiment_result"
        assert [r["name"] for r in doc["rows"]] == [
            "sr_only_single_snapshot",
            "all_features_single_snapshot",
            "all_features_multi_snapshot",
            "fortress",
        ]
        assert main(["report", str(out)]) == 0
        assert "# Experiment" in capsys.readouterr().out


class TestMainCalls:
    """Calls of ``main`` in one process: one parser, and each call's own -v."""

    def _split(self, workspace, out, *flags):
        return main(["split", *flags, "--data", str(workspace / "data.csv"), "--out", str(out)])

    def test_two_calls_share_one_parser_and_write_the_same_bytes(
        self, workspace, tmp_path, monkeypatch
    ):
        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert self._split(workspace, out) == 0
        assert len(built) == 1
        assert cli._parser() is cli._parser()
        assert outs[0].read_bytes() == outs[1].read_bytes() == (workspace / "part.json").read_bytes()

    def test_a_handler_wrapped_after_the_parser_was_built_runs(
        self, workspace, tmp_path, monkeypatch
    ):
        assert self._split(workspace, tmp_path / "a.json") == 0
        calls, real = [], cli._cmd_split
        monkeypatch.setattr(cli, "_cmd_split", lambda args: calls.append(args.out) or real(args))
        assert self._split(workspace, tmp_path / "b.json") == 0
        assert calls == [str(tmp_path / "b.json")]

    def test_each_call_applies_its_own_verbosity(self, workspace, tmp_path, caplog):
        root = logging.getLogger()
        level, logged = root.level, []
        try:
            # quiet then -v, and -v then quiet, in one process
            for flags in ([], ["-v"], []):
                caplog.clear()
                assert self._split(workspace, tmp_path / "p.json", *flags) == 0
                logged.append([r.getMessage() for r in caplog.records
                               if r.name == cli.__name__ and r.levelno == logging.INFO])
        finally:
            root.setLevel(level)
        assert [len(m) for m in logged] == [0, 1, 0]
        assert logged[1][0].startswith("partition counts: ")


class TestGen:
    # sha256 of the CSV and of the --truth JSON that `gen --seed 42` wrote
    # for 60 entities with a serial write and the per-entity exposure loop
    PINNED = {
        "d.csv": "d52a54f2a965879e97cbf79901fb494f8a6cf9bdc3988de3daad9d468dfcf4d0",
        "t.json": "a4aee1dd50a8c5a062b2ccb88517db6c234208e8f34297a26f00d9db02a90fe4",
    }

    def _gen(self, tmp_path, n_entities=60):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_entities": n_entities}}))
        return main(["gen", "--seed", "42", "--config", str(cfg), "--out", str(tmp_path / "d.csv"),
                     "--truth", str(tmp_path / "t.json")])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_gen_writes_the_pinned_bytes(self, tmp_path, at_cpus, cpus):
        at_cpus(cpus)
        assert self._gen(tmp_path) == 0
        for name, digest in self.PINNED.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_dead_csv_formatter_is_reported(self, tmp_path, capsys, monkeypatch, at_cpus):
        parent = os.getpid()
        real = data_module._format_rows

        def killed_in_a_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(data_module, "_format_rows", killed_in_a_child)
        at_cpus(2)
        # 1,040 rows: two parts, so two formatters
        assert self._gen(tmp_path, n_entities=130) == 2
        assert capsys.readouterr().err == (
            "fortress: worker error: the CSV formatter was killed by signal SIGKILL\n"
        )
        assert_no_child()
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]  # no CSV, whole or in part


class TestAnalysisPinned:
    """The artifacts and the rendered reports of the post-training commands,
    as one pass of them wrote them for 60 entities, seed 42, and two fixed
    8-round models: one on every feature and one without the noise ones."""

    # sha256 of what the per-entity Python loops wrote, before the
    # entity-block scoring
    PINNED = {
        "partition.json": "640d3bd5e75ea9c567f4ba3d042b79565393ce9e208b04b3a0e0837db6f49735",
        "stability.json": "997a288386ff15cb6a8b8dad531d7bda0889a3ec0973e6af95b7a3f3d71f0d05",
        "stability_all.json": "f9fadf4f45e4dff4413347e780ed281877d1b535e92df8f39c4174655a1ff88c",
        "eval.json": "99cf61cfd1e507811dff3c090ea238b81267064f985364d394406bb447ab1375",
        "eval_all.json": "716c47691abc95ea73024ffe64e2465f4df734f07f0445201b7453385bd1b6fe",
        "flipflop.json": "209c98a17c5a7b2fb3bf503a6ccc4ea7df300bef641f45025dcbf2356bb84359",
        "flipflop_all.json": "1764139629865c7f38dc37e25f40d8561c6bee1f4f492701c03a272324421c88",
        "reports": "b45eaae6308a8a75bdaa52c0308e6e03e6abd72e5b07c31178e9f6d5f36890ba",
    }

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        w = tmp_path_factory.mktemp("analysis")
        dataset, _ = generate(SynthConfig(n_entities=60, seed=42))
        write_csv(dataset, w / "data.csv")
        rows = dataset.rows_for(data_module.partition_entities(dataset).entities_in(TRAIN))
        tm = TrainMatrix(dataset.X[rows], dataset.binary_labels()[rows])
        stable = [n for n in dataset.schema if not n.startswith("f_eng_noise_")]
        for name, mask in (("all", None), ("stable", mask_from_names(dataset.schema, stable))):
            model = train(tm, config=TrainConfig(rounds=8), mask=mask, schema=dataset.schema)
            save_model(model, w / f"{name}.json")
        data = ["--data", str(w / "data.csv")]
        part = ["--partition", str(w / "partition.json")]
        models = ["--model", str(w / "stable.json"), "--base-model", str(w / "all.json")]
        steps = [
            ["split", *data, "--out", str(w / "partition.json")],
            ["stability", *data, "--model", str(w / "all.json"), "--out",
             str(w / "stability.json"), *part, "--part", "val"],
            ["stability", *data, "--model", str(w / "all.json"), "--out",
             str(w / "stability_all.json")],
            ["eval", *data, "--model", str(w / "stable.json"), "--out", str(w / "eval.json"),
             *part, "--part", "test"],
            ["eval", *data, "--model", str(w / "all.json"), "--out", str(w / "eval_all.json")],
            ["flipflop", *data, *models, "--out", str(w / "flipflop.json"), *part,
             "--part", "test", "--tau-percentile", "50"],
            ["flipflop", *data, *models, "--out", str(w / "flipflop_all.json")],
        ]
        for argv in steps:
            assert main(argv) == 0, argv
        names = [n for n in self.PINNED if n != "reports"]
        out = {n: (w / n).read_bytes() for n in names}
        reports = []
        for name in names:
            with contextlib.redirect_stdout(io.StringIO()) as text:
                assert main(["report", str(w / name)]) == 0
            reports.append(text.getvalue())
        out["reports"] = "\x00".join(reports).encode()
        return out

    @pytest.mark.parametrize("name", list(PINNED))
    def test_writes_the_pinned_bytes(self, outputs, name):
        assert hashlib.sha256(outputs[name]).hexdigest() == self.PINNED[name]


class TestFlipflopScoring:
    """``flipflop --tau-percentile`` scores the model that sets tau once,
    for tau and for its own rate, and writes what tau_from_percentile and
    two separate rates wrote."""

    @pytest.mark.parametrize("with_base", [True, False], ids=["base", "no-base"])
    def test_the_tau_model_is_scored_once(self, workspace, tmp_path, monkeypatch, with_base):
        model_path = workspace / "pruned.json"
        base_path = workspace / "baseline.json"
        dataset = read_dataset(workspace / "data.csv")
        model, base = load_model(model_path), load_model(base_path)
        entities = sorted(dataset.entities)
        tau = tau_from_percentile(base if with_base else model, dataset, entities, 30.0)
        report = flip_flop_rate(model, dataset, entities, tau)
        if with_base:
            doc = relative_reduction(flip_flop_rate(base, dataset, entities, tau), report)
        else:
            doc = report
        argv = ["flipflop", "--data", str(workspace / "data.csv"), "--model", str(model_path),
                "--out", str(tmp_path / "f.json"), "--tau-percentile", "30"]
        if with_base:
            argv += ["--base-model", str(base_path)]
        predictions = []
        real = BoostedModel.predict

        def counted(self, X):
            predictions.append(1)
            return real(self, X)

        monkeypatch.setattr(BoostedModel, "predict", counted)
        assert main(argv) == 0
        # was 3 with a base model (base twice) and 2 without (model twice)
        assert len(predictions) == (2 if with_base else 1)
        assert (tmp_path / "f.json").read_text() == dumps_canonical(doc.to_dict())


class TestSeedPrecedence:
    def _gen_seed(self, tmp_path, argv_extra, env=None, monkeypatch=None):
        if monkeypatch is not None:
            for key, value in (env or {}).items():
                monkeypatch.setenv(key, value)
        out = tmp_path / "d.csv"
        cfg = tmp_path / "c.json"
        doc = {"synth": {"n_entities": 3, "snapshots": 2}}
        if "config_seed" in (env or {}):
            doc["seed"] = int(env["config_seed"])
        cfg.write_text(json.dumps(doc))
        argv = ["gen", "--config", str(cfg), "--out", str(out)] + argv_extra
        assert main(argv) == 0
        return _json(tmp_path / "d.csv.config.json")["seed"]

    def test_flag_beats_config_and_env(self, tmp_path, monkeypatch):
        seed = self._gen_seed(
            tmp_path, ["--seed", "7"],
            env={"FORTRESS_SEED": "5", "config_seed": "9"}, monkeypatch=monkeypatch,
        )
        assert seed == 7

    def test_config_beats_env(self, tmp_path, monkeypatch):
        seed = self._gen_seed(
            tmp_path, [],
            env={"FORTRESS_SEED": "5", "config_seed": "9"}, monkeypatch=monkeypatch,
        )
        assert seed == 9

    def test_env_beats_default(self, tmp_path, monkeypatch, clean_env):
        seed = self._gen_seed(
            tmp_path, [], env={"FORTRESS_SEED": "5"}, monkeypatch=monkeypatch
        )
        assert seed == 5

    def test_default_is_42(self, tmp_path, monkeypatch, clean_env):
        assert self._gen_seed(tmp_path, [], monkeypatch=monkeypatch) == 42

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_a_negative_synth_seed_is_refused_by_name(self, tmp_path, capsys, clean_env, where):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": -2} if where == "config" else {}))
        argv = ["gen", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]
        code = main(argv + (["--seed", "-2"] if where == "flag" else []))
        assert code == 1
        assert capsys.readouterr().err == "fortress: error: seed must be >= 0, got -2\n"

    def test_invalid_env_seed_is_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FORTRESS_SEED", "not-a-number")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_entities": 3, "snapshots": 2}}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("fortress: error:")


class TestErrorHandling:
    def test_missing_data_file_exits_2(self, tmp_path, capsys, clean_env):
        code = main([
            "train", "--data", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("fortress: i/o error:")

    def test_malformed_csv_exits_1(self, tmp_path, capsys, clean_env):
        bad = tmp_path / "bad.csv"
        bad.write_text("entity_id,snapshot_id,region,label,f_a\ne,0,r,NOPE,1\n")
        code = main([
            "train", "--data", str(bad), "--out", str(tmp_path / "m.json")
        ])
        assert code == 1
        assert "fortress: error:" in capsys.readouterr().err

    def test_oversized_csv_field_exits_1(self, tmp_path, capsys, clean_env):
        bad = tmp_path / "huge.csv"
        bad.write_text("entity_id,snapshot_id,region,label,f_a\ne,0,r,GOOD," + "1" * 200_000 + "\n")
        out = tmp_path / "p.json"
        code = main(["split", "--data", str(bad), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"fortress: error: {bad}: line 2: field larger than field limit ({csv.field_size_limit()})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--partition", "--model", "--data", "report"])
    def test_a_non_utf8_input_is_named(self, workspace, tmp_path, capsys, clean_env, flag):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe")
        inputs = {"--config": workspace / "run.json", "--partition": workspace / "part.json",
                  "--model": workspace / "pruned.json", "--data": workspace / "data.csv"}
        inputs[flag] = bad
        argv = ["eval", "--out", str(tmp_path / "e.json")]
        for name, path in inputs.items():
            argv += [name, str(path)]
        code = main(["report", str(bad)] if flag == "report" else argv)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"fortress: error: {bad}: not UTF-8 text: ")

    def test_a_failed_write_keeps_the_prior_output(self, workspace, tmp_path, capsys):
        out = tmp_path / "part.json"
        out.write_text("prior")
        with failing_writes():
            code = main(["split", "--data", str(workspace / "data.csv"), "--out", str(out)])
        assert code == 2
        assert "fortress: i/o error" in capsys.readouterr().err
        assert out.read_text() == "prior"
        assert [p.name for p in tmp_path.iterdir()] == ["part.json"]

    def test_unknown_config_section_exits_1(self, tmp_path, capsys, clean_env):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synt": {}}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "unknown run config sections" in capsys.readouterr().err

    def test_a_document_of_another_kind_is_no_run_config(self, workspace, tmp_path, capsys):
        part = workspace / "part.json"
        code = main(["train", "--config", str(part), "--data", str(workspace / "data.csv"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"fortress: error: {part}: a run config has kind 'run_config', got 'partition'\n"
        )

    def test_non_object_config_section_rejected(self, tmp_path, capsys, clean_env):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": 5, "eval": [], "synth": None}))
        code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"fortress: error: {cfg}: run config sections ['eval', 'train'] must be JSON objects\n"
        )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_dead_candidate_worker_is_reported(
        self, workspace, tmp_path, capsys, monkeypatch, at_cpus
    ):
        parent = os.getpid()
        ranked = []
        real_ranking, real_paired = pipeline.prune_candidates, pipeline.paired_delta_significance

        def ranking(*args, **kwargs):
            ranked[:] = real_ranking(*args, **kwargs)
            return tuple(ranked)

        def paired(*args, seed, **kwargs):
            if os.getpid() != parent and seed == mix64(9, 1):  # candidate 1's worker
                os._exit(3)
            return real_paired(*args, seed=seed, **kwargs)

        monkeypatch.setattr(pipeline, "prune_candidates", ranking)
        monkeypatch.setattr(pipeline, "paired_delta_significance", paired)
        # retrain every candidate, on two workers
        monkeypatch.setattr(pipeline, "_keeps_every_tree", lambda *args: False)
        at_cpus(2)
        out = tmp_path / "m.json"
        code = main([
            "prune", "--config", str(workspace / "run.json"), "--data", str(workspace / "data.csv"),
            "--partition", str(workspace / "part.json"), "--out", str(out), "--seed", "9",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"fortress: worker error: the worker retraining candidate {ranked[1]} exited with status 3\n"
        )
        assert_no_child()  # no worker or split helper is left
        assert not out.exists()

    def test_deserialize_refusal_ends_eval_with_exit_1(self, workspace, tmp_path, capsys):
        doc = _json(workspace / "pruned.json")
        doc["trees"][0]["feature"] = 99
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        code = main([
            "eval", "--data", str(workspace / "data.csv"), "--model", str(model),
            "--out", str(tmp_path / "e.json"), "--partition", str(workspace / "part.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "fortress: error: malformed tree node: split feature 99 is outside the schema "
            "of 25 features\n"
        )

    def test_part_all_with_partition_conflicts(self, workspace, tmp_path, capsys):
        code = main([
            "train", "--data", str(workspace / "data.csv"),
            "--out", str(tmp_path / "m.json"),
            "--partition", str(workspace / "part.json"), "--part", "all",
        ])
        assert code == 1
        assert "--part all cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["eval", "--model", "m.json"], {"eval": {"bootstrap_b": 2.5}},
             "bootstrap resamples must be an integer, got 2.5"),
            (["eval", "--model", "m.json"], {"eval": {"level": "0.9"}},
             "level must be a number, got '0.9'"),
            (["eval", "--model", "m.json", "--bootstrap-b", "1"], None,
             "bootstrap needs at least 2 resamples, got 1"),
            (["eval", "--model", "m.json", "--partition", "p.json", "--part", "all"], None,
             "--part all cannot be combined with --partition"),
            (["stability", "--model", "m.json", "--percentile", "150"], None,
             "percentile p must be in (0, 100], got 150.0"),
            (["flipflop", "--model", "m.json", "--tau", "inf"], None, "tau must be finite, got inf"),
            (["flipflop", "--model", "m.json", "--tau-percentile", "0"], None,
             "percentile p must be in (0, 100], got 0.0"),
            (["flipflop", "--model", "m.json", "--part", "val", "--fractions", "0.5,0.5,0.5"], None,
             "fractions must sum to 1, got (0.5, 0.5, 0.5) (sum 1.5)"),
            (["split", "--fractions", "0.5,x,0.5"], None,
             "fractions must be three comma-separated numbers, got '0.5,x,0.5'"),
            (["train", "--partition", "p.json", "--part", "all"], None,
             "--part all cannot be combined with --partition"),
            (["prune"], {"pipeline": {"bootstrap_b": 2.5}},
             "bootstrap resamples must be an integer, got 2.5"),
            (["prune"], {"train": {"rounds": 2.5}}, "rounds must be an integer, got 2.5"),
            (["prune"], {"pipeline": {"seed": 1.5}}, "seed must be an integer, got 1.5"),
            (["train"], {"train": {"min_child_hessian": float("nan")}},
             "min_child_hessian must be finite, got nan"),
            (["train", "--partition", "p.json", "--fractions", "0.5,0.25,0.25"], None,
             "--fractions cannot be combined with --partition"),
            (["stability", "--model", "m.json", "--partition", "p.json", "--part", "val",
              "--salt", "x"], None, "--salt cannot be combined with --partition"),
            (["eval", "--model", "m.json", "--part", "all", "--salt", "x"], None,
             "--salt needs --part train, val or test"),
            (["flipflop", "--model", "m.json", "--fractions", "0.5,0.25,0.25"], None,
             "--fractions needs --part train, val or test"),
            (["train", "--salt", "x"], None, "--salt needs --part train, val or test"),
            (["prune", "--partition", "p.json", "--fractions", "0.5,0.25,0.25"], None,
             "--fractions cannot be combined with --partition"),
            (["prune", "--partition", "p.json", "--salt", "x"], None,
             "--salt cannot be combined with --partition"),
            (["prune", "--partition", "p.json"], {"pipeline": {"fractions": [0.5, 0.25, 0.25]}},
             "pipeline.fractions cannot be combined with --partition"),
            (["prune", "--partition", "p.json"], {"pipeline": {"salt": "other"}},
             "pipeline.salt cannot be combined with --partition"),
            (["train", "--partition", "p.json"], {"pipeline": {"salt": "other"}},
             "pipeline.salt cannot be combined with --partition"),
            (["eval", "--model", "m.json", "--partition", "p.json"],
             {"pipeline": {"fractions": [0.5, 0.25, 0.25]}},
             "pipeline.fractions cannot be combined with --partition"),
            (["train", "--part", "val"], {"pipeline": {"salt": 5}}, "salt must be a string, got 5"),
            (["eval", "--model", "m.json", "--part", "test"], {"pipeline": {"fractions": [1, 1, 1]}},
             "fractions must sum to 1, got (1.0, 1.0, 1.0) (sum 3.0)"),
        ],
    )
    def test_argument_errors_come_before_the_data(
        self, argv, config, message, tmp_path, capsys, clean_env
    ):
        # the data file does not exist: reading it would exit 2
        extra = ["--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "out.json")]
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            extra += ["--config", str(tmp_path / "c.json")]
        assert main([*argv, *extra]) == 1
        assert capsys.readouterr().err == f"fortress: error: {message}\n"

    def test_tau_flags_mutually_exclusive(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "flipflop", "--data", str(workspace / "data.csv"),
                "--model", str(workspace / "pruned.json"),
                "--out", str(tmp_path / "f.json"),
                "--tau", "0.5", "--tau-percentile", "50",
            ])
        assert exc.value.code == 2

    def test_pipeline_section_must_not_nest_train(self, tmp_path, capsys, clean_env):
        data = tmp_path / "d.csv"
        ds, _ = generate(SynthConfig(n_entities=30, snapshots=2))
        write_csv(ds, data)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"pipeline": {"train": {"rounds": 5}}}))
        code = main([
            "prune", "--config", str(cfg), "--data", str(data),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert "belong in the top-level 'train' section" in capsys.readouterr().err

    def test_train_mask_restricts_features(self, workspace, tmp_path, clean_env):
        out = tmp_path / "sr.json"
        code = main([
            "train", "--data", str(workspace / "data.csv"), "--out", str(out),
            "--mask", "f_sr_0,f_sr_1", "--part", "all",
        ])
        assert code == 0
        assert load_model(out).active_features() == ("f_sr_0", "f_sr_1")

    def test_unknown_mask_feature_exits_1(self, workspace, tmp_path, capsys):
        code = main([
            "train", "--data", str(workspace / "data.csv"),
            "--out", str(tmp_path / "m.json"), "--mask", "f_zzz", "--part", "all",
        ])
        assert code == 1
        assert "not in schema" in capsys.readouterr().err
