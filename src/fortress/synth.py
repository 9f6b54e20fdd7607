"""Synthetic snapshot benchmark with planted stable and volatile features.

Each entity carries a latent relevance ``r ~ U(0, 1)`` that fully determines
its label. Three feature groups are planted around it:

* ``f_sr_*`` (semantic reliability): ``clamp(r + b_j + eta, 0, 1)`` with a
  per-(entity, feature) noise draw ``eta ~ N(0, sigma_sr)`` made once, so the
  value is constant across snapshots. A ``1 - sr_coverage`` fraction of
  entities has all SR features missing in every snapshot (all-or-nothing).
* ``f_eng_*`` (informative engagement): ``r * c_j + eps`` with a fresh
  ``eps ~ N(0, sigma_eng)`` per snapshot; informative but volatile.
* ``f_eng_noise_*`` (pure noise engagement): ``N(0, 1)`` per snapshot,
  independent of the label.

All randomness comes from one seeded generator with a fixed draw order:
entities ascending; within an entity the latent relevance, region, coverage
draw, then per-feature draws in schema order with snapshots innermost. Draws
are taken as standard normals and scaled afterwards, and every draw happens
whether or not its value ends up used, so labels (and every other group's
values) are invariant to changes of the noise scales under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fortress._config import Config
from fortress.data import Label, SnapshotDataset, build_dataset
from fortress.rng import mix64


@dataclass(frozen=True)
class SynthConfig(Config):
    """Generator parameters; defaults define the standard benchmark."""

    section = "synth"

    n_entities: int = 5000
    snapshots: int = 8
    k_sr: int = 2
    k_eng_info: int = 15
    k_eng_noise: int = 8
    sr_coverage: float = 0.8
    bad_cutoff: float = 0.4
    sigma_sr: float = 0.05
    sigma_eng: float = 0.25
    n_regions: int = 6
    seed: int = 42

    def __post_init__(self) -> None:
        self.check_types()
        if self.n_entities < 1:
            raise ValueError(f"n_entities must be >= 1, got {self.n_entities}")
        if self.snapshots < 1:
            raise ValueError(f"snapshots must be >= 1, got {self.snapshots}")
        for name in ("seed", "k_sr", "k_eng_info", "k_eng_noise", "sigma_sr", "sigma_eng"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.k_sr + self.k_eng_info + self.k_eng_noise < 1:
            raise ValueError("at least one feature column is required")
        if not (0.0 <= self.sr_coverage <= 1.0):
            raise ValueError(f"sr_coverage must be in [0, 1], got {self.sr_coverage}")
        if not (0.0 < self.bad_cutoff < 1.0):
            raise ValueError(f"bad_cutoff must be in (0, 1), got {self.bad_cutoff}")
        if self.n_regions < 1:
            raise ValueError(f"n_regions must be >= 1, got {self.n_regions}")
        self.check_finite()

    def schema(self) -> tuple[str, ...]:
        return (
            tuple(f"f_sr_{j}" for j in range(self.k_sr))
            + tuple(f"f_eng_{j}" for j in range(self.k_eng_info))
            + tuple(f"f_eng_noise_{j}" for j in range(self.k_eng_noise))
        )


@dataclass
class PlantedTruth:
    """Ground truth recorded during generation, for audits and tests.

    ``noise_exposure`` is the per-entity sum, over all snapshot-varying
    engagement features, of the population variance of the disturbances that
    were actually planted for that entity; entities with larger values had
    objectively noisier feature trajectories.
    """

    entity_ids: tuple[str, ...]
    relevance: np.ndarray
    labels: tuple[str, ...]
    regions: tuple[str, ...]
    sr_covered: np.ndarray
    noise_exposure: np.ndarray
    roles: dict[str, str]


def _label_for(r: float, bad_cutoff: float) -> Label:
    if r < bad_cutoff:
        return Label.BAD
    width = (1.0 - bad_cutoff) / 3.0
    idx = int((r - bad_cutoff) / width)
    return Label(1 + min(idx, 2))


# Entity ids are a pure function of the entity index (not the seed): equal-size
# datasets share keys, so partitions stay comparable across seeds. The hex tag
# mimics opaque production keys and spreads ids under hash-based partitioning;
# the ascending numeric prefix keeps lexicographic order equal to index order.
_ID_MIX = 0x1D5EED


def _entity_name(index: int, width: int) -> str:
    tag = mix64(_ID_MIX, index) & 0xFFFFFFFF
    return f"q{index:0{width}d}|a{tag:08x}"


def generate(config: SynthConfig | None = None) -> tuple[SnapshotDataset, PlantedTruth]:
    """Generate the synthetic benchmark dataset and its planted truth."""
    cfg = config or SynthConfig()
    rng = np.random.default_rng(cfg.seed)
    n, T = cfg.n_entities, cfg.snapshots
    k_sr, k_info, k_noise = cfg.k_sr, cfg.k_eng_info, cfg.k_eng_noise
    schema = cfg.schema()
    d = len(schema)
    width = max(5, len(str(max(n - 1, 1))))

    if k_info > 1:
        c = 0.5 + np.arange(k_info) / (k_info - 1)
    else:
        c = np.ones(k_info)
    b = 0.05 * np.arange(k_sr)

    X = np.empty((n * T, d), dtype=np.float64)
    entity_ids = np.empty(n * T, dtype=f"<U{width + 11}")
    snapshot_ids = np.empty(n * T, dtype=f"<U{len(str(max(T - 1, 1)))}")
    regions = np.empty(n * T, dtype=f"<U{len(str(cfg.n_regions)) + 7}")
    labels = np.empty(n * T, dtype=np.int8)

    relevance = np.empty(n, dtype=np.float64)
    covered = np.empty(n, dtype=np.bool_)
    # every entity's snapshot-varying disturbances, for noise_exposure
    eps_all = np.empty((n, k_info, T), dtype=np.float64)
    noise_all = np.empty((n, k_noise, T), dtype=np.float64)
    ent_labels: list[str] = []
    ent_regions: list[str] = []
    ent_names: list[str] = []

    snap_names = [str(t) for t in range(T)]

    for e in range(n):
        r = float(rng.random())
        region_ix = int(rng.integers(0, cfg.n_regions))
        cov = bool(rng.random() < cfg.sr_coverage)
        eta = rng.standard_normal(k_sr) * cfg.sigma_sr
        eps_all[e] = eps = rng.standard_normal((k_info, T)) * cfg.sigma_eng
        noise_all[e] = noise = rng.standard_normal((k_noise, T))

        label = _label_for(r, cfg.bad_cutoff)
        name = _entity_name(e, width)
        region = f"region_{region_ix + 1}"
        rows = slice(e * T, (e + 1) * T)

        if cov and k_sr:
            sr_vals = np.clip(r + b + eta, 0.0, 1.0)
            X[rows, :k_sr] = sr_vals
        else:
            X[rows, :k_sr] = np.nan
        if k_info:
            X[rows, k_sr:k_sr + k_info] = r * c + eps.T
        if k_noise:
            X[rows, k_sr + k_info:] = noise.T

        entity_ids[rows] = name
        snapshot_ids[rows] = snap_names
        regions[rows] = region
        labels[rows] = label.value

        relevance[e] = r
        covered[e] = cov
        ent_labels.append(label.name)
        ent_regions.append(region)
        ent_names.append(name)

    # each (entity, feature) row is reduced on its own, in the order of a
    # per-entity np.var(eps, axis=1), so the sums are the same bit for bit
    exposure = (np.sum(np.var(eps_all, axis=2), axis=1)
                + np.sum(np.var(noise_all, axis=2), axis=1))
    dataset = build_dataset(
        schema, "int", entity_ids, snapshot_ids, regions, labels, X,
        sort=False, validate=False,
    )
    roles = (
        {f"f_sr_{j}": "sr" for j in range(k_sr)}
        | {f"f_eng_{j}": "eng_info" for j in range(k_info)}
        | {f"f_eng_noise_{j}": "eng_noise" for j in range(k_noise)}
    )
    truth = PlantedTruth(
        entity_ids=tuple(ent_names),
        relevance=relevance,
        labels=tuple(ent_labels),
        regions=tuple(ent_regions),
        sr_covered=covered,
        noise_exposure=exposure,
        roles=roles,
    )
    return dataset, truth
