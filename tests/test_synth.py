"""Unit tests for the synthetic benchmark generator."""

from __future__ import annotations

import re

import numpy as np
import pytest
from oracles import reference_noise_exposure

from fortress.data import Label
from fortress.synth import PlantedTruth, SynthConfig, generate

SMALL = SynthConfig(n_entities=400, snapshots=4, seed=11)


def _expected_label(r: float, cutoff: float = 0.4) -> str:
    if r < cutoff:
        return "BAD"
    grade = min(int((r - cutoff) / ((1.0 - cutoff) / 3.0)), 2)
    return Label(grade + 1).name


class TestConfig:
    def test_schema_order_and_width(self):
        cfg = SynthConfig()
        schema = cfg.schema()
        assert len(schema) == 25
        assert schema[:2] == ("f_sr_0", "f_sr_1")
        assert schema[2:17] == tuple(f"f_eng_{j}" for j in range(15))
        assert schema[17:] == tuple(f"f_eng_noise_{j}" for j in range(8))

    def test_dict_round_trip(self):
        cfg = SynthConfig(n_entities=10, snapshots=2, sigma_eng=0.5)
        assert SynthConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValueError, match="unknown synth config"):
            SynthConfig.from_dict({"n_entities": 10, "bogus": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_entities": 0},
            {"snapshots": 0},
            {"k_sr": -1},
            {"k_sr": 0, "k_eng_info": 0, "k_eng_noise": 0},
            {"sr_coverage": 1.0001},
            {"bad_cutoff": 0.0},
            {"bad_cutoff": 1.0},
            {"sigma_sr": -0.1},
            {"n_regions": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)


class TestShapeAndDeterminism:
    def test_benchmark_dimensions(self, bench_dataset):
        assert bench_dataset.n_rows == 5000 * 8
        assert bench_dataset.n_features == 25
        assert len(bench_dataset.entities) == 5000
        assert sorted(set(map(str, bench_dataset.snapshot_ids))) == sorted(
            str(t) for t in range(8)
        )

    def test_same_seed_reproduces_everything(self):
        ds_a, truth_a = generate(SMALL)
        ds_b, truth_b = generate(SMALL)
        assert ds_a == ds_b
        assert truth_a.entity_ids == truth_b.entity_ids
        assert np.array_equal(truth_a.relevance, truth_b.relevance)
        assert np.array_equal(truth_a.noise_exposure, truth_b.noise_exposure)

    def test_different_seed_changes_values_not_ids(self):
        ds_a, _ = generate(SMALL)
        ds_b, _ = generate(SynthConfig(n_entities=400, snapshots=4, seed=12))
        assert np.array_equal(ds_a.entity_ids, ds_b.entity_ids)
        assert not np.array_equal(ds_a.X, ds_b.X, equal_nan=True)

    def test_entity_ids_sort_like_indices(self, bench_truth):
        ids = bench_truth.entity_ids
        assert list(ids) == sorted(ids)
        assert all(re.fullmatch(r"q\d{5}\|a[0-9a-f]{8}", e) for e in ids[:100])


class TestLabels:
    def test_labels_follow_relevance_rule(self):
        _, truth = generate(SMALL)
        expected = tuple(_expected_label(float(r)) for r in truth.relevance)
        assert truth.labels == expected

    def test_dataset_rows_carry_entity_label(self):
        ds, truth = generate(SMALL)
        for e, name in enumerate(truth.entity_ids[:50]):
            assert ds.entity_label(name).name == truth.labels[e]

    def test_bad_fraction_near_cutoff(self, bench_truth):
        frac = sum(1 for l in bench_truth.labels if l == "BAD") / len(bench_truth.labels)
        assert 0.38 <= frac <= 0.42

    def test_positive_grades_all_present(self, bench_truth):
        counts = {name: 0 for name in ("ACCEPTABLE", "GOOD", "EXCELLENT")}
        for l in bench_truth.labels:
            if l in counts:
                counts[l] += 1
        # grades are equal-width slices of [0.4, 1): roughly a fifth each
        for name, cnt in counts.items():
            assert 0.15 < cnt / len(bench_truth.labels) < 0.25, name


class TestSrFeatures:
    def test_constant_across_snapshots_when_covered(self, bench):
        ds, truth = bench
        X = ds.X.reshape(5000, 8, 25)
        sr = X[:, :, :2]
        cov = truth.sr_covered
        assert np.all(sr[cov] == sr[cov][:, :1, :])  # same value in every snapshot
        assert np.all((sr[cov] >= 0.0) & (sr[cov] <= 1.0))

    def test_uncovered_entities_all_missing(self, bench):
        ds, truth = bench
        sr = ds.X.reshape(5000, 8, 25)[:, :, :2]
        assert np.all(np.isnan(sr[~truth.sr_covered]))
        # all-or-nothing: covered entities have no missing SR cells at all
        assert not np.isnan(sr[truth.sr_covered]).any()

    def test_coverage_fraction(self, bench_truth):
        assert 0.78 <= float(np.mean(bench_truth.sr_covered)) <= 0.82

    def test_sr_tracks_relevance(self, bench):
        ds, truth = bench
        sr0 = ds.X.reshape(5000, 8, 25)[:, 0, 0]
        cov = truth.sr_covered
        corr = np.corrcoef(sr0[cov], truth.relevance[cov])[0, 1]
        assert corr > 0.95


class TestEngagementFeatures:
    def test_info_features_track_relevance(self, bench):
        ds, truth = bench
        X = ds.X.reshape(5000, 8, 25)
        # slopes rise with j, so so does signal-to-noise of the snapshot mean
        for j, floor in ((0, 0.80), (7, 0.92), (14, 0.95)):
            snap_mean = X[:, :, 2 + j].mean(axis=1)
            assert np.corrcoef(snap_mean, truth.relevance)[0, 1] > floor

    def test_noise_features_are_label_blind(self, bench):
        ds, truth = bench
        X = ds.X.reshape(5000, 8, 25)
        y = np.array([0.0 if l == "BAD" else 1.0 for l in truth.labels])
        for j in range(8):
            snap_mean = X[:, :, 17 + j].mean(axis=1)
            assert abs(np.corrcoef(snap_mean, truth.relevance)[0, 1]) < 0.05
            assert abs(np.corrcoef(snap_mean, y)[0, 1]) < 0.05

    def test_noise_exposure_matches_planted_disturbances(self):
        ds, truth = generate(SMALL)
        cfg = SMALL
        n, T = cfg.n_entities, cfg.snapshots
        X = ds.X.reshape(n, T, 25)
        c = 0.5 + np.arange(15) / 14.0
        eps = X[:, :, 2:17] - truth.relevance[:, None, None] * c[None, None, :]
        noise = X[:, :, 17:]
        recomputed = eps.var(axis=1).sum(axis=1) + noise.var(axis=1).sum(axis=1)
        assert np.allclose(recomputed, truth.noise_exposure, rtol=1e-10, atol=1e-12)

    # numpy sums 8 or more values pairwise, fewer in order: both cases, in
    # the snapshot variance and in the sum over features
    @pytest.mark.parametrize("snapshots", [1, 2, 8, 9, 20])
    @pytest.mark.parametrize("k_info", [0, 1, 15])
    @pytest.mark.parametrize("k_noise", [0, 1, 15])
    def test_noise_exposure_is_the_per_entity_loop_bit_for_bit(self, snapshots, k_info, k_noise):
        cfg = SynthConfig(n_entities=40, snapshots=snapshots, k_eng_info=k_info,
                          k_eng_noise=k_noise, seed=snapshots + 3 * k_info + 5 * k_noise)
        _, truth = generate(cfg)
        assert truth.noise_exposure.tobytes() == reference_noise_exposure(cfg).tobytes()

    def test_single_snapshot_has_zero_exposure(self):
        _, truth = generate(SynthConfig(n_entities=20, snapshots=1))
        assert np.array_equal(truth.noise_exposure, np.zeros(20))


class TestDrawOrderInvariance:
    def test_labels_and_other_groups_invariant_to_sigma_eng(self):
        base = SynthConfig(n_entities=300, snapshots=4, seed=5, sigma_eng=0.25)
        loud = SynthConfig(n_entities=300, snapshots=4, seed=5, sigma_eng=0.9)
        ds_a, truth_a = generate(base)
        ds_b, truth_b = generate(loud)
        assert truth_a.labels == truth_b.labels
        assert np.array_equal(truth_a.relevance, truth_b.relevance)
        Xa = ds_a.X.reshape(300, 4, 25)
        Xb = ds_b.X.reshape(300, 4, 25)
        assert np.array_equal(Xa[:, :, :2], Xb[:, :, :2], equal_nan=True)  # SR
        assert np.array_equal(Xa[:, :, 17:], Xb[:, :, 17:])  # pure noise
        # informative engagement scales by construction: eps drawn standard
        # then multiplied, so the disturbance ratio is exactly 0.9/0.25
        c = 0.5 + np.arange(15) / 14.0
        eps_a = Xa[:, :, 2:17] - truth_a.relevance[:, None, None] * c
        eps_b = Xb[:, :, 2:17] - truth_b.relevance[:, None, None] * c
        assert np.allclose(eps_b, eps_a * (0.9 / 0.25), rtol=1e-9, atol=1e-12)


class TestRegions:
    def test_region_names_and_balance(self, bench):
        ds, truth = bench
        assert set(truth.regions) == {f"region_{k}" for k in range(1, 7)}
        counts = {r: 0 for r in set(truth.regions)}
        for r in truth.regions:
            counts[r] += 1
        for r, cnt in counts.items():
            assert abs(cnt / 5000 - 1 / 6) < 0.03, r

    def test_region_constant_per_entity(self):
        ds, truth = generate(SMALL)
        for e, name in enumerate(truth.entity_ids[:40]):
            start, stop = ds.entity_rows(name)
            assert set(map(str, ds.regions[start:stop])) == {truth.regions[e]}


class TestRoles:
    def test_roles_cover_schema(self, bench):
        ds, truth = bench
        assert set(truth.roles) == set(ds.schema)
        assert truth.roles["f_sr_0"] == "sr"
        assert truth.roles["f_eng_3"] == "eng_info"
        assert truth.roles["f_eng_noise_7"] == "eng_noise"

    def test_feature_group_layout_without_sr(self):
        ds, truth = generate(SynthConfig(n_entities=30, snapshots=2, k_sr=0))
        assert ds.schema[0] == "f_eng_0"
        assert all(role != "sr" for role in truth.roles.values())
