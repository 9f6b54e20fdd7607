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
from fortress.data import LABEL_NAMES, Label, SnapshotDataset, build_dataset
from fortress.rng import _mix64_array


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


# Entity ids are a pure function of the entity index (not the seed): equal-size
# datasets share keys, so partitions stay comparable across seeds. The hex tag
# mimics opaque production keys and spreads ids under hash-based partitioning;
# the ascending numeric prefix keeps lexicographic order equal to index order.
_ID_MIX = 0x1D5EED


def _entity_names(n: int, width: int) -> list[str]:
    tags = (_mix64_array(_ID_MIX, np.arange(n, dtype=np.uint64)) & np.uint64(0xFFFFFFFF)).tolist()
    return [f"q{index:0{width}d}|a{tag:08x}" for index, tag in enumerate(tags)]


def generate(config: SynthConfig | None = None) -> tuple[SnapshotDataset, PlantedTruth]:
    """Generate the synthetic benchmark dataset and its planted truth.

    The loop over entities only draws; the dataset and the truth are then
    built from the draws in array passes, each the same element-wise float
    operation that a per-entity construction makes."""
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

    relevance = np.empty(n, dtype=np.float64)
    region_ix = np.empty(n, dtype=np.int64)
    coverage = np.empty(n, dtype=np.float64)
    eta = np.empty((n, k_sr), dtype=np.float64)
    eps = np.empty((n, k_info, T), dtype=np.float64)
    noise = np.empty((n, k_noise, T), dtype=np.float64)
    for e in range(n):
        relevance[e] = rng.random()
        region_ix[e] = rng.integers(0, cfg.n_regions)
        coverage[e] = rng.random()
        rng.standard_normal(out=eta[e])
        rng.standard_normal(out=eps[e])
        rng.standard_normal(out=noise[e])
    covered = coverage < cfg.sr_coverage
    eta *= cfg.sigma_sr
    eps *= cfg.sigma_eng

    # X by column group, in place: rows of one entity are one (T, d) slab
    X = np.empty((n * T, d), dtype=np.float64)
    slabs = X.reshape(n, T, d)
    sr_vals = np.clip(relevance[:, None] + b + eta, 0.0, 1.0)
    sr_vals[~covered] = np.nan
    slabs[:, :, :k_sr] = sr_vals[:, None, :]
    info = slabs[:, :, k_sr:k_sr + k_info]
    np.multiply(relevance[:, None, None], c, out=info)
    info += eps.transpose(0, 2, 1)
    slabs[:, :, k_sr + k_info:] = noise.transpose(0, 2, 1)

    # Label.BAD below the cutoff, then three equal-width bands above it
    band = (1.0 - cfg.bad_cutoff) / 3.0
    codes = np.where(relevance < cfg.bad_cutoff, Label.BAD.value,
                     1 + np.minimum(((relevance - cfg.bad_cutoff) / band).astype(np.int64), 2))
    ent_names = _entity_names(n, width)
    region_names = [f"region_{i + 1}" for i in range(cfg.n_regions)]
    # the truth's labels and regions share one str object per name
    ent_labels = tuple(map(LABEL_NAMES.__getitem__, codes.tolist()))
    ent_regions = tuple(map(region_names.__getitem__, region_ix.tolist()))

    # each (entity, feature) row is reduced on its own, in the order of a
    # per-entity np.var(eps, axis=1), so the sums are the same bit for bit
    exposure = (np.sum(np.var(eps, axis=2), axis=1)
                + np.sum(np.var(noise, axis=2), axis=1))
    dataset = build_dataset(
        schema, "int",
        np.repeat(np.array(ent_names, dtype=f"<U{width + 11}"), T),
        np.tile(np.array([str(t) for t in range(T)], dtype=f"<U{len(str(max(T - 1, 1)))}"), n),
        np.repeat(np.array(ent_regions, dtype=f"<U{len(str(cfg.n_regions)) + 7}"), T),
        np.repeat(codes.astype(np.int8), T),
        X, sort=False, validate=False,
    )
    roles = (
        {f"f_sr_{j}": "sr" for j in range(k_sr)}
        | {f"f_eng_{j}": "eng_info" for j in range(k_info)}
        | {f"f_eng_noise_{j}": "eng_noise" for j in range(k_noise)}
    )
    truth = PlantedTruth(
        entity_ids=tuple(ent_names),
        relevance=relevance,
        labels=ent_labels,
        regions=ent_regions,
        sr_covered=covered,
        noise_exposure=exposure,
        roles=roles,
    )
    return dataset, truth
