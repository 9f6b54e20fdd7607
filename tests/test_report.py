"""Unit tests for markdown rendering of the JSON artifacts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from fortress.cli import main
from fortress.data import partition_entities
from fortress.model import TrainConfig, serialize, train
from fortress.report import render


def _ci_doc(point, lo, hi, level=0.95, resamples=100, seed=1):
    return {
        "point": point, "lo": lo, "hi": hi,
        "level": level, "resamples": resamples, "seed": seed,
    }


class TestPartitionRender:
    def test_counts_per_part(self):
        part = partition_entities([f"e{i:03d}|x{i*7:04d}" for i in range(60)])
        text = render(part.to_dict())
        counts = part.counts()
        assert "# Partition" in text
        assert f"- entities: 60" in text
        for name, key in (("train", "TRAIN"), ("val", "VAL"), ("test", "TEST")):
            assert f"| {name} | {counts[key]} |" in text

    def test_fraction_column_sums_to_total(self):
        part = partition_entities(["a", "b", "c"])
        text = render(part.to_dict())
        assert "`fortress`" in text  # salt echoed


class TestModelRender:
    def test_tree_count_and_active_features(self, rng):
        X = rng.random((60, 3))
        y = (X[:, 0] > 0.5).astype(float)
        model = train(
            X, y, TrainConfig(rounds=4),
            mask=np.array([True, False, True]), schema=["f_a", "f_b", "f_c"],
        )
        text = render(serialize(model))
        assert "# Boosted model" in text
        assert "- trees: 4" in text
        assert "- features: 2 active of 3" in text
        assert "- `f_a`" in text
        assert "- `f_b`" not in text


class TestStabilityRender:
    DOC = {
        "kind": "stability_report",
        "percentile": 75.0,
        "cv_threshold": 0.421,
        "high_cv_entities": ["e1", "e2"],
        "per_entity_cv": {"e1": 0.5, "e2": 0.45, "e3": 0.1, "e4": 0.2},
        "feature_cv_ranking": [["f_noisy", 1.25], ["f_calm", 0.01]],
    }

    def test_summary_lines_and_table(self):
        text = render(self.DOC)
        assert "- score CV computed for 4 entities" in text
        assert "- high-CV cohort: 2 entities" in text
        assert "0.4210" in text
        assert "| `f_noisy` | 1.2500 |" in text
        assert "top 2 of 2" in text


class TestPruneTraceRender:
    DOC = {
        "kind": "prune_trace",
        "mode": "noninferior",
        "epsilon": 0.002,
        "percentile": 75.0,
        "bootstrap_b": 1000,
        "seed": 42,
        "initial_features": ["f_a", "f_b", "f_c"],
        "candidates": ["f_c", "f_b"],
        "initial_val_pr_auc": 0.9876,
        "initial_val_mean_cv": 0.2222,
        "iterations": [
            {
                "candidate": "f_c",
                "delta_pr_auc": _ci_doc(0.0001, -0.0002, 0.0005),
                "accepted": True,
                "features_after": ["f_a", "f_b"],
                "val_mean_cv_after": 0.2,
            },
            {
                "candidate": "f_b",
                "delta_pr_auc": _ci_doc(-0.01, -0.02, -0.001),
                "accepted": False,
                "features_after": ["f_a", "f_b"],
                "val_mean_cv_after": 0.2,
            },
        ],
        "final_features": ["f_a", "f_b"],
    }

    def test_iterations_and_removals(self):
        text = render(self.DOC)
        assert "`noninferior` (epsilon 0.002)" in text
        assert "candidate pool: 2 of 3 features" in text
        assert "| `f_c` | [-0.00020, +0.00050] | accept | 0.2000 |" in text
        assert "| `f_b` | [-0.02000, -0.00100] | reject | 0.2000 |" in text
        assert "2 features kept, 1 removed" in text
        assert "- removed `f_c`" in text


class TestEvalRender:
    def test_interval_formatting(self):
        doc = {
            "kind": "eval_report",
            "pr_auc": _ci_doc(0.9123, 0.9, 0.93),
            "mean_entity_cv": _ci_doc(0.2, 0.19, 0.23),
            "n_rows": 800,
            "n_entities": 100,
            "n_multi_snapshot_entities": 100,
        }
        text = render(doc)
        assert "- PR-AUC: 0.9123 ± 0.0150" in text
        assert "- mean entity score CV: 0.2000 ± 0.0200" in text
        assert "rows: 800 across 100 entities" in text

    def test_missing_cv_renders_na(self):
        doc = {
            "kind": "eval_report",
            "pr_auc": _ci_doc(0.9, 0.89, 0.91),
            "mean_entity_cv": None,
            "n_rows": 100,
            "n_entities": 100,
            "n_multi_snapshot_entities": 0,
        }
        assert "mean entity score CV: n/a" in render(doc)


class TestFlipFlopRender:
    REPORT = {
        "kind": "flipflop_report",
        "tau": 0.5,
        "per_region": {
            "north": {"flipped": 3, "total": 10, "rate": 0.3},
            "south": {"flipped": 0, "total": 5, "rate": 0.0},
        },
        "global": {"flipped": 3, "total": 15, "rate": 0.2},
    }

    def test_report(self):
        text = render(self.REPORT)
        assert "- admission threshold tau: 0.5" in text
        assert "3 of 15 entities flip-flop (rate 0.2000)" in text
        assert "| north | 3 | 10 | 0.3000 |" in text

    def test_comparison_with_undefined_region(self):
        improved = {
            "kind": "flipflop_report",
            "tau": 0.5,
            "per_region": {
                "north": {"flipped": 1, "total": 10, "rate": 0.1},
                "south": {"flipped": 0, "total": 5, "rate": 0.0},
            },
            "global": {"flipped": 1, "total": 15, "rate": 1 / 15},
        }
        doc = {
            "kind": "flipflop_comparison",
            "tau": 0.5,
            "base": self.REPORT,
            "improved": improved,
            "relative_reduction": {
                "per_region": {"north": 2 / 3, "south": None},
                "global": 2 / 3,
            },
        }
        text = render(doc)
        assert "relative reduction 66.7%" in text
        assert "n/a (base rate 0)" in text
        assert "0.3000 | 0.1000 | 66.7%" in text


class TestExperimentRender:
    def _doc(self, with_cv=True):
        cv = (lambda p: _ci_doc(p, p - 0.01, p + 0.01)) if with_cv else (lambda p: None)
        return {
            "kind": "experiment_result",
            "rows": [
                {"name": "sr_only_single_snapshot", "pr_auc": _ci_doc(0.80, 0.79, 0.81), "mean_entity_cv": cv(0.0)},
                {"name": "all_features_single_snapshot", "pr_auc": _ci_doc(0.90, 0.89, 0.91), "mean_entity_cv": cv(0.30)},
                {"name": "all_features_multi_snapshot", "pr_auc": _ci_doc(0.95, 0.94, 0.96), "mean_entity_cv": cv(0.25)},
                {"name": "fortress", "pr_auc": _ci_doc(0.95, 0.94, 0.96), "mean_entity_cv": cv(0.20)},
            ],
        }

    def test_table_and_comparison_section(self):
        text = render(self._doc())
        assert "| Fortress (pruned), all snapshots | 0.9500 ± 0.0100 | 0.2000 ± 0.0100 |" in text
        assert "## Fortress vs. all-features multi-snapshot baseline" in text
        assert "-0.0500 absolute (-20.00% relative)" in text

    def test_comparison_section_needs_cv(self):
        text = render(self._doc(with_cv=False))
        assert "## Fortress vs." not in text
        assert "n/a" in text


class TestDispatch:
    def test_output_ends_with_newline(self):
        part = partition_entities(["a", "b"])
        assert render(part.to_dict()).endswith("\n")

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="no 'kind'"):
            render({"rows": []})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact kind"):
            render({"kind": "mystery"})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "eval_report"}, "malformed eval_report document: 'n_rows'"),
            (
                {k: v for k, v in TestPruneTraceRender.DOC.items() if k != "initial_features"},
                "malformed prune_trace document: 'initial_features'",
            ),
        ],
    )
    def test_malformed_document_rejected(self, doc, message):
        with pytest.raises(ValueError) as exc:
            render(doc)
        assert str(exc.value) == message

    def test_cli_report_exits_1_on_a_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "eval.json"
        path.write_text(json.dumps({"kind": "eval_report"}))
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err == (
            "fortress: error: malformed eval_report document: 'n_rows'\n"
        )
