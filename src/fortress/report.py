"""Markdown rendering of fortress JSON artifacts.

Every artifact the toolkit writes is a JSON document with a ``kind`` field.
``render`` dispatches on that field and returns a human-readable markdown
fragment; it is what the ``fortress report`` subcommand prints.
"""

from __future__ import annotations

from typing import Callable, Mapping

__all__ = ["render"]


def _ci(doc: Mapping | None, digits: int = 4) -> str:
    """Format a confidence-interval dict as ``point ± halfwidth``."""
    if doc is None:
        return "n/a"
    half = (float(doc["hi"]) - float(doc["lo"])) / 2.0
    return f"{float(doc['point']):.{digits}f} ± {half:.{digits}f}"


def _table(header: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines)


def _render_partition(doc: Mapping) -> str:
    counts: dict[str, int] = {}
    for part in doc["assignment"].values():
        counts[part] = counts.get(part, 0) + 1
    total = sum(counts.values())
    rows = [
        [
            part.lower(),
            str(counts.get(part, 0)),
            f"{counts.get(part, 0) / total:.3f}" if total else "n/a",
        ]
        for part in ("TRAIN", "VAL", "TEST")
    ]
    return "\n".join(
        [
            "# Partition",
            "",
            f"- salt: `{doc['salt']}`",
            f"- requested fractions: {tuple(doc['fractions'])}",
            f"- entities: {total}",
            "",
            _table(["partition", "entities", "fraction"], rows),
        ]
    )


def _render_model(doc: Mapping) -> str:
    schema = list(doc["schema"])
    mask = list(doc["mask"])
    active = [n for n, m in zip(schema, mask) if m]
    cfg = doc["config"]
    cfg_lines = [f"- {k}: {cfg[k]}" for k in sorted(cfg)]
    return "\n".join(
        [
            "# Boosted model",
            "",
            f"- trees: {len(doc['trees'])}",
            f"- base score (log-odds): {doc['base_score']:.6f}",
            f"- features: {len(active)} active of {len(schema)}",
            "",
            "## Training configuration",
            "",
            *cfg_lines,
            "",
            "## Active features",
            "",
            *[f"- `{n}`" for n in active],
        ]
    )


def _render_stability(doc: Mapping) -> str:
    n_entities = len(doc["per_entity_cv"])
    n_high = len(doc["high_cv_entities"])
    ranking = doc["feature_cv_ranking"]
    top = ranking[: min(10, len(ranking))]
    rows = [[f"`{name}`", f"{float(value):.4f}"] for name, value in top]
    return "\n".join(
        [
            "# Stability report",
            "",
            f"- score CV computed for {n_entities} entities",
            f"- CV threshold (percentile {doc['percentile']:g}): {doc['cv_threshold']:.4f}",
            f"- high-CV cohort: {n_high} entities",
            "",
            f"## Feature instability ranking (top {len(top)} of {len(ranking)})",
            "",
            _table(["feature", "median high-CV-cohort feature CV"], rows),
        ]
    )


def _render_prune_trace(doc: Mapping) -> str:
    removed = [
        n for n in doc["initial_features"] if n not in set(doc["final_features"])
    ]
    rows = []
    for it in doc["iterations"]:
        d = it["delta_pr_auc"]
        rows.append(
            [
                f"`{it['candidate']}`",
                f"[{float(d['lo']):+.5f}, {float(d['hi']):+.5f}]",
                "accept" if it["accepted"] else "reject",
                f"{float(it['val_mean_cv_after']):.4f}",
            ]
        )
    return "\n".join(
        [
            "# Prune trace",
            "",
            f"- mode: `{doc['mode']}` (epsilon {doc['epsilon']:g})",
            f"- candidate pool: {len(doc['candidates'])} of {len(doc['initial_features'])} features"
            f" (instability percentile {doc['percentile']:g})",
            f"- bootstrap: {doc['bootstrap_b']} resamples, seed {doc['seed']}",
            f"- initial VAL PR-AUC: {doc['initial_val_pr_auc']:.4f},"
            f" initial VAL mean entity CV: {doc['initial_val_mean_cv']:.4f}",
            "",
            "## Iterations",
            "",
            _table(["candidate", "ΔPR-AUC 95% CI", "verdict", "VAL mean CV after"], rows),
            "",
            f"## Result: {len(doc['final_features'])} features kept, {len(removed)} removed",
            "",
            *[f"- removed `{n}`" for n in removed],
        ]
    )


def _render_eval(doc: Mapping) -> str:
    return "\n".join(
        [
            "# Evaluation",
            "",
            f"- rows: {doc['n_rows']} across {doc['n_entities']} entities"
            f" ({doc['n_multi_snapshot_entities']} with multiple snapshots)",
            f"- PR-AUC: {_ci(doc['pr_auc'])}",
            f"- mean entity score CV: {_ci(doc['mean_entity_cv'])}",
        ]
    )


def _render_flipflop(doc: Mapping) -> str:
    g = doc["global"]
    rows = [
        [
            region,
            str(doc["per_region"][region]["flipped"]),
            str(doc["per_region"][region]["total"]),
            f"{doc['per_region'][region]['rate']:.4f}",
        ]
        for region in sorted(doc["per_region"])
    ]
    return "\n".join(
        [
            "# Flip-flop report",
            "",
            f"- admission threshold tau: {doc['tau']:g}",
            f"- global: {g['flipped']} of {g['total']} entities flip-flop"
            f" (rate {g['rate']:.4f})",
            "",
            _table(["region", "flipped", "entities", "rate"], rows),
        ]
    )


def _render_flipflop_comparison(doc: Mapping) -> str:
    rr = doc["relative_reduction"]

    def pct(x: float | None) -> str:
        return "n/a (base rate 0)" if x is None else f"{100.0 * x:.1f}%"

    rows = [
        [
            region,
            f"{doc['base']['per_region'][region]['rate']:.4f}",
            f"{doc['improved']['per_region'][region]['rate']:.4f}",
            pct(rr["per_region"][region]),
        ]
        for region in sorted(rr["per_region"])
    ]
    gb = doc["base"]["global"]["rate"]
    gi = doc["improved"]["global"]["rate"]
    return "\n".join(
        [
            "# Flip-flop comparison",
            "",
            f"- admission threshold tau: {doc['tau']:g}",
            f"- global rate: {gb:.4f} → {gi:.4f}"
            f" (relative reduction {pct(rr['global'])})",
            "",
            _table(["region", "base rate", "improved rate", "relative reduction"], rows),
        ]
    )


_ROW_LABELS = {
    "sr_only_single_snapshot": "Semantic features, latest snapshot",
    "all_features_single_snapshot": "All features, latest snapshot",
    "all_features_multi_snapshot": "All features, all snapshots",
    "fortress": "Fortress (pruned), all snapshots",
}


def _render_experiment(doc: Mapping) -> str:
    by_name = {r["name"]: r for r in doc["rows"]}
    rows = [
        [
            _ROW_LABELS.get(r["name"], r["name"]),
            _ci(r["pr_auc"]),
            _ci(r["mean_entity_cv"]),
        ]
        for r in doc["rows"]
    ]
    lines = [
        "# Experiment",
        "",
        "All rows are evaluated on the same multi-snapshot TEST entities;",
        "intervals are 95% entity-bootstrap CIs shown as point ± halfwidth.",
        "",
        _table(["configuration", "PR-AUC", "mean entity score CV"], rows),
    ]
    multi = by_name.get("all_features_multi_snapshot")
    fort = by_name.get("fortress")
    if multi and fort and multi["mean_entity_cv"] and fort["mean_entity_cv"]:
        ap_m = float(multi["pr_auc"]["point"])
        ap_f = float(fort["pr_auc"]["point"])
        cv_m = float(multi["mean_entity_cv"]["point"])
        cv_f = float(fort["mean_entity_cv"]["point"])
        d_ap = ap_f - ap_m
        d_cv = cv_f - cv_m
        rel_ap = d_ap / ap_m if ap_m != 0.0 else float("nan")
        rel_cv = d_cv / cv_m if cv_m != 0.0 else float("nan")
        lines += [
            "",
            "## Fortress vs. all-features multi-snapshot baseline",
            "",
            f"- PR-AUC: {d_ap:+.4f} absolute ({100.0 * rel_ap:+.2f}% relative)",
            f"- mean entity score CV: {d_cv:+.4f} absolute ({100.0 * rel_cv:+.2f}% relative)",
        ]
    return "\n".join(lines)


_RENDERERS: dict[str, Callable[[Mapping], str]] = {
    "partition": _render_partition,
    "boosted_model": _render_model,
    "stability_report": _render_stability,
    "prune_trace": _render_prune_trace,
    "eval_report": _render_eval,
    "flipflop_report": _render_flipflop,
    "flipflop_comparison": _render_flipflop_comparison,
    "experiment_result": _render_experiment,
}


def render(doc: Mapping) -> str:
    """Render one artifact dict to markdown.

    Raises:
        ValueError: if the document has no ``kind``, an unknown one, or lacks
            or mistypes a field its renderer reads.
    """
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise ValueError("document has no 'kind' field; not a fortress artifact")
    try:
        renderer = _RENDERERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown artifact kind {kind!r}; expected one of {sorted(_RENDERERS)}"
        ) from None
    try:
        return renderer(doc) + "\n"
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from None
