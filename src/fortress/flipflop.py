"""Recommendation consistency: admission flip-flops across snapshots.

An entity is admitted at a snapshot when its score reaches the threshold tau.
An entity flip-flops when its admission decision is not constant across its
snapshots; single-snapshot entities cannot flip-flop and are excluded. Rates
are reported per region (the region of the entity's earliest snapshot) and
pooled, and two reports over the same entities can be compared as a relative
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from fortress.data import SnapshotDataset
from fortress.metrics import percentile_nearest_rank
from fortress.model import BoostedModel
from fortress.stability import score_entities


@dataclass
class RegionRate:
    flipped: int
    total: int

    @property
    def rate(self) -> float:
        return self.flipped / self.total

    def to_dict(self) -> dict:
        return {"flipped": self.flipped, "total": self.total, "rate": self.rate}


@dataclass
class FlipFlopReport:
    """Flip-flop rates for one model at one threshold."""

    tau: float
    per_region: dict[str, RegionRate]
    overall: RegionRate

    def to_dict(self) -> dict:
        return {
            "kind": "flipflop_report",
            "tau": self.tau,
            "per_region": {r: self.per_region[r].to_dict() for r in sorted(self.per_region)},
            "global": self.overall.to_dict(),
        }


@dataclass
class FlipFlopComparison:
    """Relative flip-flop reduction of an improved model over a baseline.

    Per-region reductions are ``None`` where the baseline rate is zero
    (undefined); the global reduction compares pooled rates.
    """

    tau: float
    base: FlipFlopReport
    improved: FlipFlopReport
    per_region: dict[str, float | None]
    overall: float | None

    def to_dict(self) -> dict:
        return {
            "kind": "flipflop_comparison",
            "tau": self.tau,
            "base": self.base.to_dict(),
            "improved": self.improved.to_dict(),
            "relative_reduction": {
                "per_region": {r: self.per_region[r] for r in sorted(self.per_region)},
                "global": self.overall,
            },
        }


def check_tau(tau: float) -> None:
    """Raise ``ValueError`` unless the admission threshold is finite."""
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")


def flip_flop_rate(
    model: BoostedModel,
    dataset: SnapshotDataset,
    entity_ids: Iterable[str] | None = None,
    tau: float = 0.5,
) -> FlipFlopReport:
    """Fraction of multi-snapshot entities whose admission decision changes.

    Args:
        model: scoring model (schema must match the dataset).
        dataset: snapshot dataset.
        entity_ids: entities to evaluate; defaults to all.
        tau: admission threshold; admitted means ``score >= tau``.

    Raises:
        ValueError: schema mismatch, unknown entities, non-finite tau, or no
            entity with 2 or more snapshots.
    """
    check_tau(tau)
    entities, _, scores = score_entities(model, dataset, entity_ids)
    if not entities:
        raise ValueError("cannot evaluate flip-flops on an empty entity set")
    flips: dict[str, int] = {}
    totals: dict[str, int] = {}
    for e, series in dataset.split_by_entity(entities, scores).items():
        if series.size >= 2:
            admitted = series >= tau
            region = str(dataset.regions[dataset.entity_rows(e)[0]])
            totals[region] = totals.get(region, 0) + 1
            if admitted.any() and not admitted.all():
                flips[region] = flips.get(region, 0) + 1
    if not totals:
        raise ValueError("no entity has 2 or more snapshots; flip-flops undefined")
    per_region = {
        r: RegionRate(flipped=flips.get(r, 0), total=totals[r]) for r in sorted(totals)
    }
    overall = RegionRate(
        flipped=sum(v.flipped for v in per_region.values()),
        total=sum(v.total for v in per_region.values()),
    )
    return FlipFlopReport(tau=float(tau), per_region=per_region, overall=overall)


def relative_reduction(base: FlipFlopReport, improved: FlipFlopReport) -> FlipFlopComparison:
    """Relative reduction ``(rate_base - rate_improved) / rate_base``.

    Both reports must come from the same entities and threshold: equal tau,
    equal region sets, and equal per-region entity totals, otherwise the
    comparison is refused.

    Raises:
        ValueError: on mismatched reports.
    """
    if base.tau != improved.tau:
        raise ValueError(
            f"mismatched tau: base {base.tau!r} vs improved {improved.tau!r}"
        )
    if set(base.per_region) != set(improved.per_region):
        raise ValueError(
            "mismatched region sets: "
            f"{sorted(base.per_region)} vs {sorted(improved.per_region)}"
        )
    for r in base.per_region:
        if base.per_region[r].total != improved.per_region[r].total:
            raise ValueError(
                f"mismatched entity totals in region {r!r}: "
                f"{base.per_region[r].total} vs {improved.per_region[r].total}"
            )
    per_region: dict[str, float | None] = {}
    for r in sorted(base.per_region):
        rb = base.per_region[r].rate
        ri = improved.per_region[r].rate
        per_region[r] = (rb - ri) / rb if rb > 0.0 else None
    gb = base.overall.rate
    gi = improved.overall.rate
    overall = (gb - gi) / gb if gb > 0.0 else None
    return FlipFlopComparison(
        tau=base.tau, base=base, improved=improved, per_region=per_region, overall=overall
    )


def tau_from_percentile(
    model: BoostedModel,
    dataset: SnapshotDataset,
    entity_ids: Iterable[str] | None = None,
    percentile: float = 50.0,
) -> float:
    """Admission threshold at a percentile of a model's score distribution."""
    entities, _, scores = score_entities(model, dataset, entity_ids)
    if not entities:
        raise ValueError("cannot derive tau from an empty entity set")
    return percentile_nearest_rank(scores, percentile)
