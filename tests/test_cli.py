"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import csv
import json
import re

import pytest

from fortress.cli import main
from fortress.data import PartitionAssignment, parse_csv
from fortress.model import load_model
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

    def test_unknown_config_section_exits_1(self, tmp_path, capsys, clean_env):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synt": {}}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "unknown run config sections" in capsys.readouterr().err

    def test_non_object_config_section_rejected(self, tmp_path, capsys, clean_env):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": 5, "eval": [], "synth": None}))
        code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"fortress: error: {cfg}: run config sections ['eval', 'train'] must be JSON objects\n"
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
