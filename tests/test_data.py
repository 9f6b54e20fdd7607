"""Unit tests for dataset handling, CSV I/O, and hash partitioning."""

from __future__ import annotations

import ast
import contextlib
import csv
import datetime
import functools
import hashlib
import io
import logging
import math
import os
import re
import signal
import stat
import string
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import assert_no_child, open_fds
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fortress
from fortress import _fork, data as data_module
from fortress.data import (
    CACHE_SUFFIX,
    _CHUNK_ROWS,
    _PART_CELLS,
    _parse_rows,
    _screen_rows,
    Label,
    PartitionAssignment,
    SnapshotDataset,
    TRAIN,
    VAL,
    TEST,
    PARTS,
    build_dataset,
    entities_in_partition,
    fnv1a64,
    latest_snapshot_view,
    parse_csv,
    partition_entities,
    partition_unit,
    read_dataset,
    rows_in_partition,
    write_csv,
)
from fortress.rng import mix64
from fortress.synth import SynthConfig, generate


ID_CHARS = string.ascii_letters + string.digits + "_|.:-"
LABEL_CODES = "0 (BAD), 1 (ACCEPTABLE), 2 (GOOD), 3 (EXCELLENT)"


def _reference_fnv1a64(data: bytes) -> int:
    # Independent formulation (reduce + modulo) of the same published hash.
    return functools.reduce(
        lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, data, 0xCBF29CE484222325
    )


def toy_dataset(shuffle_with=None) -> SnapshotDataset:
    """Three entities x up to three snapshots, with one missing value."""
    rows = [
        # entity, snapshot, region, label, f_sr_0, f_eng_0
        ("e1", "0", "na", Label.GOOD, 0.5, 1.0),
        ("e1", "1", "na", Label.GOOD, 0.5, 2.0),
        ("e1", "2", "na", Label.GOOD, 0.5, 3.0),
        ("e2", "0", "eu", Label.BAD, np.nan, 4.0),
        ("e2", "1", "eu", Label.BAD, np.nan, 5.0),
        ("e3", "0", "apac", Label.EXCELLENT, 0.25, 6.0),
    ]
    if shuffle_with is not None:
        rows = [rows[i] for i in shuffle_with.permutation(len(rows))]
    return build_dataset(
        schema=("f_sr_0", "f_eng_0"),
        snapshot_kind="int",
        entity_ids=np.array([r[0] for r in rows]),
        snapshot_ids=np.array([r[1] for r in rows]),
        regions=np.array([r[2] for r in rows]),
        labels=np.array([int(r[3]) for r in rows]),
        X=np.array([[r[4], r[5]] for r in rows]),
    )


class TestFnv:
    def test_published_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_matches_independent_formulation(self, rng):
        for _ in range(50):
            data = rng.integers(0, 256, size=int(rng.integers(0, 40))).astype(np.uint8).tobytes()
            assert fnv1a64(data) == _reference_fnv1a64(data)

    def test_partition_unit_definition(self):
        u = partition_unit("salt", "q00042|aDEADBEEF")
        assert u == fnv1a64(b"salt\x00q00042|aDEADBEEF") / 2.0**64
        assert 0.0 <= u < 1.0


class TestPartitioning:
    # Ids carry a mixed hex tag. FNV-1a only spreads well over byte-diverse
    # input: purely sequential ids ("ent00000", "ent00001", ...) differ in so
    # few bytes that the hash is visibly skewed, which is why the synthetic
    # generator also tags its entity ids.
    IDS = tuple(f"ent{i:05d}|{mix64(7, i) & 0xFFFFFFFF:08x}" for i in range(2000))

    def test_cut_points_follow_partition_unit(self):
        part = partition_entities(self.IDS)
        for e in self.IDS[:500]:
            u = partition_unit("fortress", e)
            expected = TRAIN if u < 0.70 else VAL if u < 0.85 else TEST
            assert part.part_of(e) == expected

    def test_fractions_roughly_met(self):
        counts = partition_entities(self.IDS).counts()
        assert abs(counts[TRAIN] / 2000 - 0.70) < 0.04
        assert abs(counts[VAL] / 2000 - 0.15) < 0.03
        assert abs(counts[TEST] / 2000 - 0.15) < 0.03

    def test_assignment_is_per_entity_and_stable_across_subsets(self):
        full = partition_entities(self.IDS)
        subset = partition_entities(self.IDS[::7])
        for e in self.IDS[::7]:
            assert subset.part_of(e) == full.part_of(e)

    @given(
        ids=st.lists(st.text(ID_CHARS, min_size=1, max_size=10), min_size=1, max_size=60,
                     unique=True),
        salt=st.text(max_size=8),
        data=st.data(),
    )
    def test_any_subset_gets_the_same_parts(self, ids, salt, data):
        subset = data.draw(st.lists(st.sampled_from(ids), min_size=1))
        full = partition_entities(ids, salt=salt)
        part = partition_entities(subset, salt=salt)
        for e in subset:
            assert part.part_of(e) == full.part_of(e)

    @given(
        ids=st.lists(st.text(max_size=24), min_size=1, max_size=40),
        salt=st.text(max_size=8) | st.sampled_from(["fortress", "sälz", "盐", "a\x00b", ""]),
        fractions=st.sampled_from([(0.70, 0.15, 0.15), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5),
                                   (0.3, 0.3, 0.4)]),
    )
    def test_vectorized_hash_is_partition_unit_bit_for_bit(self, ids, salt, fractions):
        # any text, so ids and salts of any UTF-8 length, NUL bytes included
        units = data_module._partition_units(salt, ids)
        assert [float(u).hex() for u in units] == [partition_unit(salt, e).hex() for e in ids]
        got = partition_entities(ids, fractions=fractions, salt=salt)
        c_train, c_val = fractions[0], fractions[0] + fractions[1]
        for e in ids:
            u = fnv1a64(salt.encode() + b"\x00" + e.encode()) / 2.0**64
            assert got.part_of(e) == (TRAIN if u < c_train else VAL if u < c_val else TEST)

    def test_salt_reshuffles(self):
        a = partition_entities(self.IDS, salt="fortress")
        b = partition_entities(self.IDS, salt="other")
        moved = sum(a.part_of(e) != b.part_of(e) for e in self.IDS)
        assert moved > 500

    def test_accepts_dataset_and_dedupes_iterables(self):
        ds = toy_dataset()
        from_ds = partition_entities(ds)
        from_ids = partition_entities(["e1", "e2", "e1", "e3", "e2"])
        assert from_ds.assignment == from_ids.assignment

    @pytest.mark.parametrize(
        "fractions",
        [(0.5, 0.5), (0.7, 0.2, 0.2), (-0.1, 0.6, 0.5), (0.7, float("nan"), 0.15)],
    )
    def test_bad_fractions_rejected(self, fractions):
        with pytest.raises(ValueError):
            partition_entities(["a"], fractions=fractions)

    def test_empty_entity_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            partition_entities([])

    def test_degenerate_fractions_allowed(self):
        part = partition_entities(self.IDS[:50], fractions=(1.0, 0.0, 0.0))
        assert part.counts() == {TRAIN: 50, VAL: 0, TEST: 0}


class TestPartitionAssignment:
    def _part(self):
        return partition_entities(["a", "b", "c", "d", "e", "f", "g", "h"])

    def test_accessors(self):
        part = self._part()
        seen = {}
        for p in PARTS:
            for e in part.entities_in(p):
                seen[e] = p
        assert seen == part.assignment
        assert sum(part.counts().values()) == 8
        with pytest.raises(ValueError, match="unknown partition"):
            part.entities_in("DEV")
        with pytest.raises(ValueError, match="not in partition"):
            part.part_of("zzz")

    def test_dict_round_trip(self):
        part = self._part()
        clone = PartitionAssignment.from_dict(part.to_dict())
        assert clone.salt == part.salt
        assert clone.fractions == part.fractions
        assert clone.assignment == part.assignment

    def test_from_dict_rejects_bad_documents(self):
        doc = self._part().to_dict()
        doc["assignment"]["a"] = "DEV"
        with pytest.raises(ValueError, match="unknown partition"):
            PartitionAssignment.from_dict(doc)
        with pytest.raises(ValueError, match="malformed"):
            PartitionAssignment.from_dict({"salt": "s"})
        for fractions, message in [
            ([5, -1, 0], r"^fractions must be non-negative and finite, got \(5.0, -1.0, 0.0\)$"),
            ([0.5, 0.5, 0.5], "^fractions must sum to 1"),
            ([0.5, 0.5], "^fractions must have exactly 3 entries$"),
            (["0.7", "0.15", "0.15"], "^fractions must be a number, got '0.7'$"),
        ]:
            with pytest.raises(ValueError, match=message):
                PartitionAssignment.from_dict({**self._part().to_dict(), "fractions": fractions})

    def test_rows_in_partition_covers_dataset_disjointly(self, rng):
        ids = [f"x{i:03d}" for i in range(40)]
        ent, snap, lab = [], [], []
        for i, e in enumerate(ids):
            for t in range(3):
                ent.append(e)
                snap.append(str(t))
                lab.append(int(Label.BAD if i % 3 == 0 else Label.GOOD))
        n = len(ent)
        ds = build_dataset(
            ("f_a",), "int", np.array(ent), np.array(snap),
            np.array(["r"] * n), np.array(lab), rng.random((n, 1)),
        )
        part = partition_entities(ds)
        chunks = [rows_in_partition(ds, part, p) for p in PARTS]
        allrows = np.concatenate(chunks)
        assert len(np.unique(allrows)) == allrows.size == ds.n_rows
        for p, rows in zip(PARTS, chunks):
            for r in rows:
                assert part.part_of(str(ds.entity_ids[r])) == p


    def test_entities_in_partition_are_the_datasets_in_ascending_order(self):
        # the assignment also holds ids the dataset does not have
        ds = toy_dataset()
        part = partition_entities(["zz", "e3", "a0", "e1", "e2"], fractions=(0.0, 1.0, 0.0))
        assert entities_in_partition(ds, part, VAL) == ["e1", "e2", "e3"]
        assert entities_in_partition(ds, part, TRAIN) == []
        assert rows_in_partition(ds, part, VAL).tolist() == list(range(ds.n_rows))
        with pytest.raises(ValueError, match="unknown partition"):
            entities_in_partition(ds, part, "DEV")

class TestBuildDataset:
    def test_sorts_rows_to_canonical_order(self, rng):
        ds = toy_dataset(shuffle_with=rng)
        assert ds.entities == ("e1", "e2", "e3")
        assert ds.entity_ids.tolist() == ["e1", "e1", "e1", "e2", "e2", "e3"]
        assert ds.snapshot_ids[:3].tolist() == ["0", "1", "2"]
        assert ds == toy_dataset()

    def test_integer_snapshots_sort_numerically(self):
        ds = build_dataset(
            ("f_a",), "int",
            np.array(["e", "e", "e"]),
            np.array(["10", "2", "1"]),
            np.array(["r", "r", "r"]),
            np.array([1, 1, 1]),
            np.array([[1.0], [2.0], [3.0]]),
        )
        assert ds.snapshot_ids.tolist() == ["1", "2", "10"]

    def test_index_blocks_and_labels(self):
        ds = toy_dataset()
        assert ds.entity_rows("e2") == (3, 5)
        assert ds.entity_label("e2") is Label.BAD
        assert ds.binary_labels().tolist() == [1, 1, 1, 0, 0, 1]
        assert ds.rows_for(["e3", "e1"]).tolist() == [0, 1, 2, 5]
        with pytest.raises(ValueError, match="unknown entity"):
            ds.entity_rows("nope")

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_dataset(
                ("f_a",), "int",
                np.array(["e", "e"]), np.array(["0", "0"]),
                np.array(["r", "r"]), np.array([1, 1]), np.zeros((2, 1)),
            )

    def test_inconsistent_label_rejected(self):
        with pytest.raises(ValueError, match="inconsistent label"):
            build_dataset(
                ("f_a",), "int",
                np.array(["e", "e"]), np.array(["0", "1"]),
                np.array(["r", "r"]), np.array([1, 2]), np.zeros((2, 1)),
            )

    @pytest.mark.parametrize("code", [9, -1, 257, 1.5])
    def test_label_codes_outside_label_rejected(self, code):
        with pytest.raises(ValueError) as exc:
            build_dataset(
                ("f_a",), "int",
                np.array(["d", "e"]), np.array(["0", "1"]),
                np.array(["r", "r"]), np.array([1, code]), np.zeros((2, 1)),
            )
        assert str(exc.value) == (
            f"invalid label code {np.array([1, code])[1].item()!r} for entity 'e', "
            f"expected one of {LABEL_CODES}"
        )

    @pytest.mark.parametrize(
        "labels, snapshots, message",
        [
            # row 1 changes the label, row 3 repeats a snapshot: row 1 first
            ([1, 2, 0, 0], ["0", "1", "0", "0"], "inconsistent label for entity 'a': ACCEPTABLE vs GOOD"),
            ([1, 1, 0, 0], ["0", "1", "0", "0"], "duplicate (entity, snapshot) pair: ('b', '0')"),
            # one row with both faults reports the duplicate
            ([1, 2, 0, 0], ["0", "0", "0", "1"], "duplicate (entity, snapshot) pair: ('a', '0')"),
        ],
    )
    def test_first_offending_row_is_reported(self, labels, snapshots, message):
        with pytest.raises(ValueError) as exc:
            build_dataset(
                ("f_a",), "int", np.array(["a", "a", "b", "b"]), np.array(snapshots),
                np.array(["r"] * 4), np.array(labels), np.zeros((4, 1)), sort=False,
            )
        assert str(exc.value).startswith(message)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=30))
    def test_index_matches_a_row_walk(self, ids):
        # sort=False keeps repeated, non-contiguous blocks: the later block wins
        n = len(ids)
        ds = build_dataset(
            ("f_a",), "int", np.array(ids, dtype=np.str_), np.array([str(i) for i in range(n)]),
            np.array(["r"] * n, dtype=np.str_), np.zeros(n), np.zeros((n, 1)),
            sort=False, validate=False,
        )
        expected: dict[str, tuple[int, int]] = {}
        start = 0
        for i in range(1, n + 1):
            if i == n or ids[i] != ids[start]:
                expected[ids[start]] = (start, i)
                start = i
        assert list(ds.index.items()) == list(expected.items())

    @pytest.mark.parametrize("n", [0, 2])
    def test_duplicate_feature_names_rejected_with_or_without_rows(self, n):
        fields = (np.array(["e"] * n), np.array([str(i) for i in range(n)]),
                  np.array(["r"] * n), np.ones(n, dtype=np.int8), np.zeros((n, 2)))
        with pytest.raises(ValueError, match="duplicate feature column names in schema"):
            build_dataset(("f_a", "f_a"), "int", *fields)
        assert build_dataset(("f_a", "f_a"), "int", *fields, validate=False).schema == ("f_a", "f_a")

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            build_dataset(
                ("f_a",), "int",
                np.array(["e"]), np.array(["0", "1"]),
                np.array(["r"]), np.array([1]), np.zeros((1, 1)),
            )
        with pytest.raises(ValueError, match="does not match schema"):
            build_dataset(
                ("f_a", "f_b"), "int",
                np.array(["e"]), np.array(["0"]),
                np.array(["r"]), np.array([1]), np.zeros((1, 1)),
            )
        with pytest.raises(ValueError, match="snapshot_kind"):
            build_dataset(
                ("f_a",), "weekly",
                np.array(["e"]), np.array(["0"]),
                np.array(["r"]), np.array([1]), np.zeros((1, 1)),
            )


class TestCsv:
    def test_write_parse_round_trip(self, rng, tmp_path):
        ds = toy_dataset()
        # exercise gnarly float reprs too
        ds.X[0, 1] = 1e-17
        ds.X[2, 1] = -3.0000000000000004
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        assert parse_csv(path) == ds

    def test_missing_cell_is_empty_string(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(toy_dataset(), path)
        line = path.read_text().splitlines()[4]  # first e2 row
        assert line == "e2,0,eu,BAD,,4.0"

    def test_date_snapshots(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "entity_id,snapshot_id,region,label,f_a\n"
            "e,2024-02-01,r,GOOD,2.0\n"
            "e,2024-01-15,r,GOOD,1.0\n"
        )
        ds = parse_csv(path)
        assert ds.snapshot_kind == "date"
        assert ds.snapshot_ids.tolist() == ["2024-01-15", "2024-02-01"]

    @pytest.mark.parametrize(
        "body,message",
        [
            ("", "empty file"),
            ("entity_id,snapshot_id,region,label\n", "at least one f_"),
            ("snapshot_id,entity_id,region,label,f_a\n", "first columns"),
            ("entity_id,snapshot_id,region,label,count\n", "must match prefix"),
            ("entity_id,snapshot_id,region,label,f_a,f_a\n", "duplicate feature"),
            ("entity_id,snapshot_id,region,label,f_a\ne 1,0,r,GOOD,1.0\n", "invalid entity_id"),
            ("entity_id,snapshot_id,region,label,f_a\ne,xx,r,GOOD,1.0\n", "neither a non-negative"),
            ("entity_id,snapshot_id,region,label,f_a\ne,0,r,FINE,1.0\n", "unknown label"),
            ("entity_id,snapshot_id,region,label,f_a\ne,0,r,GOOD,abc\n", "unparseable value"),
            ("entity_id,snapshot_id,region,label,f_a\ne,0,r,GOOD,inf\n", "non-finite"),
            ("entity_id,snapshot_id,region,label,f_a\ne,0,r,GOOD\n", "expected 5 fields"),
            (
                "entity_id,snapshot_id,region,label,f_a\n"
                "e,0,r,GOOD,1.0\ne,2024-01-01,r,GOOD,1.0\n",
                "mixed snapshot id types",
            ),
        ],
    )
    def test_malformed_files_rejected_with_context(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            parse_csv(path)

    def test_error_includes_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "entity_id,snapshot_id,region,label,f_a\n"
            "e,0,r,GOOD,1.0\n"
            "e,1,r,GOOD,abc\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            parse_csv(path)

    def test_bad_snapshot_id_message(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("entity_id,snapshot_id,region,label,f_a\ne,xx,r,GOOD,1.0\n")
        with pytest.raises(ValueError) as exc:
            parse_csv(path)
        assert str(exc.value) == (
            f"{path}: line 2: snapshot_id 'xx' is neither a non-negative integer "
            "nor an ISO-8601 date (YYYY-MM-DD)"
        )

    @pytest.mark.parametrize("good", [3, 70], ids=["same-chunk", "next-chunk"])
    @pytest.mark.parametrize(
        "cell, breaks", [('"1.0\n"', 1), ('"\r\n1.0\r\n\r"', 3)], ids=["lf", "crlf-cr"]
    )
    def test_line_numbers_count_line_breaks_in_quoted_cells(
        self, tmp_path, good, cell, breaks
    ):
        # a record whose quoted cell spans lines, then good records, then a
        # bad one in the same chunk or in the next
        path = tmp_path / "bad.csv"
        body = (
            "entity_id,snapshot_id,region,label,f_a\n"
            f"e,0,r,GOOD,{cell}\n"
            + "".join(f"e,{k},r,GOOD,1.0\n" for k in range(1, good + 1))
            + f"e,{good + 1},r,GOOD,abc\n"
        )
        path.write_bytes(body.encode())
        with pytest.raises(ValueError) as exc:
            parse_csv(path)
        line = 1 + (1 + breaks) + good + 1
        assert str(exc.value) == f"{path}: line {line}: feature 'f_a': unparseable value 'abc'"

    @pytest.mark.parametrize(
        "body, line",
        [
            ("entity_id,snapshot_id,region,label,f_" + "a" * 200_000 + "\n", 1),
            (
                "entity_id,snapshot_id,region,label,f_a\n" + "e,0,r,GOOD,1.0\n" * 70
                + "e,70,r,GOOD," + "1" * 200_000 + "\n",
                72,
            ),
        ],
    )
    def test_reader_error_is_a_value_error_with_its_line(self, tmp_path, body, line):
        path = tmp_path / "huge.csv"
        path.write_text(body)
        with pytest.raises(ValueError) as exc:
            parse_csv(path)
        assert str(exc.value) == (
            f"{path}: line {line}: field larger than field limit ({csv.field_size_limit()})"
        )

    @pytest.mark.parametrize("digest", [None, "sha256"], ids=["plain", "hashing"])
    @pytest.mark.parametrize("good", [0, 2000], ids=["header", "past-first-block"])
    def test_a_non_utf8_byte_is_a_value_error_with_the_file(self, tmp_path, digest, good):
        path = tmp_path / "bad.csv"
        path.write_bytes(
            b"entity_id,snapshot_id,region,label,f_a\n" * (good > 0)
            + b"".join(b"e,%d,r,GOOD,1.0\n" % i for i in range(good)) + b"\xff\xfe\n"
        )
        with pytest.raises(ValueError) as exc:
            parse_csv(path, digest=digest and hashlib.new(digest))
        assert str(exc.value) == f"{path}: not UTF-8 text: can't decode byte 0xff (invalid start byte)"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_csv(tmp_path / "absent.csv")


def _reference_write(ds: SnapshotDataset) -> str:
    """The snapshot CSV written row by row with ``csv.writer``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["entity_id", "snapshot_id", "region", "label", *ds.schema])
    for i in range(ds.n_rows):
        writer.writerow(
            [str(ds.entity_ids[i]), str(ds.snapshot_ids[i]), str(ds.regions[i]),
             Label(int(ds.labels[i])).name]
            + ["" if math.isnan(v) else repr(float(v)) for v in ds.X[i]]
        )
    return buf.getvalue()


# values whose text is easy to get wrong; NaN is the standard quiet NaN,
# the one an empty cell parses to
SPECIAL_VALUES = (
    np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e300, -1e300, 1.7976931348623157e308, 1e-17, -3.0000000000000004, 0.1, 1.0, 123456789.0,
)
# row counts on both sides of one and two chunks
ROW_COUNTS = st.one_of(
    st.integers(1, 20),
    st.sampled_from([_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3]),
)


@st.composite
def snapshot_datasets(draw, row_counts=lambda d: ROW_COUNTS) -> SnapshotDataset:
    """Datasets of ``d`` features and ``row_counts(d)`` rows."""
    d = draw(st.integers(1, 4))
    n_rows = draw(row_counts(d))
    per_entity = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["int", "date"]))
    stem = draw(st.text(ID_CHARS, min_size=1, max_size=6))
    regions = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=6), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the first entity id holds every allowed character
    n_ent = -(-n_rows // per_entity)
    ent_names = [ID_CHARS] + [f"{stem}{k:05d}" for k in range(1, n_ent)]
    ents = [ent_names[i // per_entity] for i in range(n_rows)]
    steps = [i % per_entity for i in range(n_rows)]
    if kind == "int":
        snaps = [str(7 * t + 3) for t in steps]
    else:
        snaps = [(datetime.date(2023, 12, 30) + datetime.timedelta(days=9 * t)).isoformat()
                 for t in steps]
    labels = rng.integers(0, len(Label), n_ent)[[i // per_entity for i in range(n_rows)]]
    X = rng.standard_normal((n_rows, d)) * 10.0 ** rng.integers(-320, 300, (n_rows, d))
    special = rng.random((n_rows, d)) < 0.4
    X[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
    return build_dataset(
        tuple(f"f_{name}" for name in draw(
            st.lists(st.text(ID_CHARS, min_size=1, max_size=5), min_size=d, max_size=d,
                     unique=True))),
        kind, np.array(ents, dtype=np.str_), np.array(snaps, dtype=np.str_),
        np.array([regions[i % len(regions)] for i in range(n_rows)], dtype=np.str_),
        labels, X,
    )


class TestChunkedCsv:
    """The chunked reader and writer against the record-by-record reference."""

    @settings(max_examples=60, deadline=None)
    @given(ds=snapshot_datasets())
    def test_round_trip_is_byte_and_bit_identical(self, ds, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "a.csv"
        write_csv(ds, path)
        text = path.read_bytes()
        assert text.decode() == _reference_write(ds)
        back = parse_csv(path)
        assert back == ds
        assert back.X.view(np.int64).tobytes() == ds.X.view(np.int64).tobytes()
        write_csv(back, path)
        assert path.read_bytes() == text
        # the one-pass screen returns what the record loop returns
        records = list(csv.reader(io.StringIO(text.decode(), newline="")))[1:]
        fast = _screen_rows(records, 4 + ds.n_features, None, set(), {})
        slow = _parse_rows(path, records, 2, ds.schema, None)
        assert fast is not None
        assert fast[:4] == slow[:4] and fast[5] == slow[5]
        assert fast[4].view(np.int64).tobytes() == slow[4].view(np.int64).tobytes()

    # every record case of TestCsv.test_malformed_files_rejected_with_context,
    # and a bad region
    RECORD_CASES = [
        ["e 1,0,r,GOOD,1.0"],
        ["e,xx,r,GOOD,1.0"],
        ["e,0,r,FINE,1.0"],
        ["e,0,r,GOOD,abc"],
        ["e,0,r,GOOD,inf"],
        ["e,0,r,GOOD"],
        ["e,0,r,GOOD,1.0", "e,2024-01-01,r,GOOD,1.0"],
        ["e,0,r bad,GOOD,1.0"],
    ]

    @staticmethod
    def _message(path, records) -> str:
        path.write_text("entity_id,snapshot_id,region,label,f_a\n" + "".join(r + "\n" for r in records))
        with pytest.raises(ValueError) as exc:
            parse_csv(path)
        return str(exc.value)

    @pytest.mark.parametrize("records", RECORD_CASES)
    @pytest.mark.parametrize("bad_index", [_CHUNK_ROWS, 2 * _CHUNK_ROWS - 1, 2 * _CHUNK_ROWS + 5])
    def test_late_bad_record_gives_same_message_and_its_line(self, tmp_path, records, bad_index):
        path = tmp_path / "bad.csv"
        first = self._message(path, records)
        filler = [f"fill{i:04d},{i % 3},r,GOOD,0.5" for i in range(bad_index - len(records) + 1)]
        late = self._message(path, filler + records)
        bad_line = len(records) + 1
        assert f"line {bad_line}:" in first
        assert late == first.replace(f"line {bad_line}:", f"line {bad_index + 2}:")

    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "inf", "-Infinity"])
    def test_spelled_out_non_finite_rejected_empty_accepted(self, tmp_path, token):
        path = tmp_path / "d.csv"
        head = "entity_id,snapshot_id,region,label,f_a,f_b\n"
        rows = [f"e{i:04d},0,r,GOOD,{i},1.5" for i in range(_CHUNK_ROWS + 10)]
        rows[_CHUNK_ROWS + 3] = f"e{_CHUNK_ROWS + 3:04d},0,r,GOOD,,1.5"
        path.write_text(head + "".join(r + "\n" for r in rows))
        ds = parse_csv(path)
        assert np.isnan(ds.X[_CHUNK_ROWS + 3, 0]) and np.isfinite(np.delete(ds.X, _CHUNK_ROWS + 3, 0)).all()
        rows[_CHUNK_ROWS + 5] = f"e{_CHUNK_ROWS + 5:04d},0,r,GOOD,1.0,{token}"
        path.write_text(head + "".join(r + "\n" for r in rows))
        with pytest.raises(ValueError) as exc:
            parse_csv(path)
        assert str(exc.value) == (
            f"{path}: line {_CHUNK_ROWS + 7}: feature 'f_b': non-finite value {token!r}"
        )

    def test_kind_switch_at_a_chunk_boundary_is_mixed(self, tmp_path):
        # the second chunk is all dates, so only the kind carried over from
        # the first chunk shows the mix
        path = tmp_path / "d.csv"
        rows = [f"e{i:04d},{i},r,GOOD,1.0" for i in range(_CHUNK_ROWS)]
        rows += [f"d{i:04d},2024-01-01,r,GOOD,1.0" for i in range(5)]
        path.write_text("entity_id,snapshot_id,region,label,f_a\n" + "".join(r + "\n" for r in rows))
        with pytest.raises(ValueError) as exc:
            parse_csv(path)
        assert str(exc.value) == (
            f"{path}: line {_CHUNK_ROWS + 2}: mixed snapshot id types (int and date) in one file"
        )

    @pytest.mark.parametrize(
        "column, value, kind, message",
        [
            ("entity_ids", "b,c", "int", "cannot write entity_id 'b,c': ids must match [A-Za-z0-9_|.:-]+"),
            ("entity_ids", "", "int", "cannot write entity_id '': ids must match [A-Za-z0-9_|.:-]+"),
            ("regions", "n a", "int", "cannot write region 'n a': ids must match [A-Za-z0-9_|.:-]+"),
            ("labels", 9, "int", f"cannot write label code 9, expected one of {LABEL_CODES}"),
            ("labels", -1, "int", f"cannot write label code -1, expected one of {LABEL_CODES}"),
            ("snapshot_ids", "x1", "date", "cannot write snapshot_id 'x1': it is neither a "
             "non-negative integer nor an ISO-8601 date (YYYY-MM-DD)"),
            ("snapshot_ids", "2024-01-01", "int", "cannot write mixed snapshot id types ('0' and '2024-01-01')"),
            ("X", np.inf, "int", "cannot write non-finite value inf of feature 'f_sr_0' for entity 'e2'"),
            # the header messages are parse_csv's: one rule reads and writes
            ("schema", ("f_sr_0", "eng"), "int",
             "feature column 'eng' must match prefix 'f_' and id charset"),
            ("schema", (), "int", "malformed header, expected "
             "entity_id,snapshot_id,region,label plus at least one f_ column"),
            ("schema", ("f_a", "f_a"), "int", "duplicate feature column names"),
        ],
    )
    def test_unwritable_dataset_refused_before_the_file_opens(self, tmp_path, column, value, kind, message):
        ds = toy_dataset()
        fields = {
            "schema": ds.schema, "snapshot_kind": kind, "entity_ids": ds.entity_ids.copy(),
            "snapshot_ids": ds.snapshot_ids.copy(), "regions": ds.regions.copy(),
            "labels": ds.labels.copy(), "X": ds.X.copy(),
        }
        if column == "schema":
            fields["schema"] = value
            fields["X"] = fields["X"][:, :len(value)]
        elif column == "X":
            fields["X"][3, 0] = value
        else:
            fields[column] = fields[column].astype(object)
            fields[column][3] = value
        bad = build_dataset(**fields, sort=False, validate=False)
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError) as exc:
            write_csv(bad, path)
        assert str(exc.value) == f"{path}: {message}"
        assert not path.exists()


def _part_rows(d: int) -> int:
    """The most rows of a ``write_csv`` part of ``d`` features: whole
    chunks of at most ``_PART_CELLS`` feature cells, and at least one."""
    return _CHUNK_ROWS * max(1, _PART_CELLS // (_CHUNK_ROWS * d))


def _rows_around_the_crossover(d: int):
    """Row counts of ``d`` features just below and above one, two and three
    parts; they stop anywhere in a chunk."""
    return st.sampled_from(sorted(
        k * _part_rows(d) + delta for k in (1, 2, 3) for delta in (-1, 1, 37)
    ))


def _counting_forks(calls: list):
    real = os.fork

    def fork():
        calls.append(1)
        return real()

    return mock.patch.object(os, "fork", fork)


def _no_fork():
    raise AssertionError("write_csv forked a process")


class _WriteInChild(_fork.Child):
    """A child that writes ``dataset`` to ``path`` where ``os.fork`` fails
    the write, and answers 1 if the write returned."""

    def __init__(self, dataset, path) -> None:
        self._args = (dataset, path)
        super().__init__()

    def serve(self, requests: int, replies: int) -> None:
        os.fork = _no_fork  # this process only
        write_csv(*self._args)
        os.write(replies, b"\x01")


@pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
    reason="needs fork and /proc/self/fd",
)
class TestParallelWrite:
    """A write whose parts are formatted by forked workers writes the serial
    write's bytes, and leaves no process or pipe behind."""

    @staticmethod
    def _big() -> SnapshotDataset:
        # 4,160 rows of 25 features: five parts of 832 rows
        return generate(SynthConfig(n_entities=520, seed=3))[0]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ds=snapshot_datasets(_rows_around_the_crossover))
    def test_every_cpu_count_writes_the_same_bytes(self, ds, tmp_path_factory, at_cpus):
        path = tmp_path_factory.mktemp("par") / "a.csv"
        written = []
        for cpus in (1, 2, 3):
            at_cpus(cpus)
            before, forks = open_fds(), []
            with _counting_forks(forks):
                write_csv(ds, path)
            written.append(path.read_bytes())
            assert open_fds() == before
            assert_no_child()
            # one worker per part up to the CPUs, and none for a single part
            workers = min(cpus, -(-ds.n_rows // _part_rows(ds.n_features)))
            assert len(forks) == (workers if workers > 1 else 0)
        assert written[0].decode() == _reference_write(ds)
        assert written[1] == written[0] and written[2] == written[0]

    @pytest.mark.parametrize("case", ["one CPU", "another thread", "inside a child"])
    def test_the_fork_rule_keeps_the_write_serial(self, tmp_path, at_cpus, case):
        ds = self._big()
        at_cpus(1)
        write_csv(ds, tmp_path / "serial.csv")
        at_cpus(1 if case == "one CPU" else 2)
        path = tmp_path / "a.csv"
        if case == "inside a child":
            child = _WriteInChild(ds, path)
            try:
                assert os.read(child.replies, 1) == b"\x01"
            finally:
                child.close()
        else:
            release = threading.Event()
            waiter = threading.Thread(target=release.wait, args=(60,))
            if case == "another thread":
                waiter.start()
            try:
                with mock.patch.object(os, "fork", _no_fork):
                    write_csv(ds, path)
            finally:
                release.set()
                if waiter.is_alive():
                    waiter.join(timeout=60)
        assert path.read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert_no_child()

    def test_a_failed_fork_formats_the_rest_here(self, tmp_path, at_cpus):
        ds = self._big()
        at_cpus(1)
        write_csv(ds, tmp_path / "serial.csv")
        real, forks = os.fork, []

        def second_fails():
            forks.append(1)
            if len(forks) == 2:
                raise OSError("no process to spare")
            return real()

        at_cpus(4)
        before = open_fds()
        with mock.patch.object(os, "fork", second_fails):
            write_csv(ds, tmp_path / "a.csv")
        assert len(forks) == 2
        assert open_fds() == before
        assert_no_child()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def _dies(self, tmp_path, at_cpus):
        """The ``ChildProcessError`` of a write at 3 CPUs over an existing
        file, after checking that the write left no process or pipe behind,
        and the file and its directory as they were."""
        at_cpus(3)
        path = tmp_path / "a.csv"
        path.write_bytes(b"a prior file\n")
        before = open_fds()

        def too_slow(signum, frame):
            raise AssertionError("write_csv waited for a dead formatter")

        old = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            with pytest.raises(ChildProcessError) as exc:
                write_csv(self._big(), path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert open_fds() == before
        assert_no_child()
        assert path.read_bytes() == b"a prior file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
        return str(exc.value)

    @staticmethod
    def _in_a_child(monkeypatch, die):
        """Make ``_format_rows`` call ``die()`` in any process but this one."""
        parent, real = os.getpid(), data_module._format_rows

        def format_rows(*args):
            if os.getpid() != parent:
                die()
            return real(*args)

        monkeypatch.setattr(data_module, "_format_rows", format_rows)

    def test_a_killed_formatter_is_reported(self, tmp_path, at_cpus, monkeypatch):
        self._in_a_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert self._dies(tmp_path, at_cpus) == "the CSV formatter was killed by signal SIGKILL"

    def test_a_formatter_that_exits_without_replying_is_reported(
        self, tmp_path, at_cpus, monkeypatch
    ):
        self._in_a_child(monkeypatch, lambda: os._exit(0))
        assert self._dies(tmp_path, at_cpus) == "the CSV formatter exited with status 0"


class TestReplacingWrite:
    """A regular file is replaced as a whole, with the mode ``open(path,
    "wb")`` gives it; anything else is written directly."""

    @staticmethod
    def _expected_mode(tmp_path, existing_mode=None):
        probe = tmp_path / "probe"
        if existing_mode is not None:
            probe.write_bytes(b"old")
            probe.chmod(existing_mode)
        with open(probe, "wb"):
            pass
        mode = stat.S_IMODE(probe.stat().st_mode)
        probe.unlink()
        return mode

    def test_a_new_file_gets_the_mode_open_gives(self, tmp_path):
        old = os.umask(0o027)
        try:
            want = self._expected_mode(tmp_path)
            write_csv(toy_dataset(), tmp_path / "a.csv")
        finally:
            os.umask(old)
        assert want == 0o640
        assert stat.S_IMODE((tmp_path / "a.csv").stat().st_mode) == want
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_an_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"old")
        path.chmod(0o604)
        write_csv(toy_dataset(), path)
        assert stat.S_IMODE(path.stat().st_mode) == self._expected_mode(tmp_path, 0o604) == 0o604
        assert path.read_text() == _reference_write(toy_dataset())

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"old")
        link.symlink_to(target.name)
        write_csv(toy_dataset(), link)
        assert link.is_symlink()
        assert target.read_text() == _reference_write(toy_dataset())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_a_missing_directory_is_named_as_given(self, tmp_path):
        path = tmp_path / "no such dir" / "a.csv"
        with pytest.raises(FileNotFoundError) as exc:
            write_csv(toy_dataset(), path)
        assert exc.value.filename == str(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
    def test_a_fifo_is_written_directly(self, tmp_path):
        fifo = tmp_path / "a.csv"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open returns
        try:
            write_csv(toy_dataset(), fifo)
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert text == _reference_write(toy_dataset())
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT"}
_MODE_RE = re.compile(r"[rwxabt+]+\Z")


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``write_text``, ``write_bytes`` or
    ``mkstemp``, or an ``open``, ``os.open``, ``.open`` or ``fdopen`` with a
    literal write, append, exclusive or update mode, or with ``O_WRONLY``,
    ``O_RDWR`` or ``O_CREAT``. An ``open`` with ``closefd=False`` wraps a
    descriptor that stays open elsewhere, such as a pool's pipe, and opens
    no file."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "mkstemp"):
        return True
    if name not in ("open", "fdopen"):
        return False
    if any(k.arg == "closefd" and getattr(k.value, "value", None) is False for k in call.keywords):
        return False
    names = {getattr(n, "attr", getattr(n, "id", None)) for arg in call.args for n in ast.walk(arg)}
    modes = [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
    return bool(names & _WRITE_FLAGS) or any(
        isinstance(m, ast.Constant) and isinstance(m.value, str)
        and _MODE_RE.match(m.value) and set(m.value) & set("wax+")
        for m in modes
    )


def _file_writers(path: Path) -> set[str]:
    """The top-level functions and classes of the module at ``path`` that
    hold a call that writes a file."""
    return {
        getattr(top, "name", "<module>")
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _writes_a_file(node)
    }


def test_replacing_is_the_one_file_writer():
    """Every output file is written by ``data._replacing``; the dataset
    sidecar, a file the user never named, by ``data._write_cache``. No other
    code in the package writes a file."""
    package = Path(fortress.__file__).parent
    writers = {(path.name, name)
               for path in sorted(package.glob("*.py")) for name in _file_writers(path)}
    assert writers == {("data.py", "_replacing"), ("data.py", "_write_cache")}


@contextlib.contextmanager
def _parse_refused():
    """Make any call of ``data.parse_csv`` fail, to show a read was a hit."""
    real = data_module.parse_csv

    def refuse(*args, **kwargs):
        raise AssertionError("parse_csv called")

    data_module.parse_csv = refuse
    try:
        yield
    finally:
        data_module.parse_csv = real


def _assert_same_dataset(got: SnapshotDataset, want: SnapshotDataset) -> None:
    """Equal, field for field, with the same dtypes (string widths included)."""
    assert got == want
    assert got.schema == want.schema and got.snapshot_kind == want.snapshot_kind
    for name in ("entity_ids", "snapshot_ids", "regions", "labels", "X"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    assert got.X.flags.c_contiguous
    assert got.X.view(np.int64).tobytes() == want.X.view(np.int64).tobytes()


def _sidecar(path):
    return path.with_name(path.name + CACHE_SUFFIX)


class TestReadDataset:
    """``read_dataset`` and its sidecar against the plain ``parse_csv``."""

    @settings(max_examples=40, deadline=None)
    @given(ds=snapshot_datasets(), order=st.randoms(use_true_random=False))
    def test_miss_then_hit_equal_the_parse(self, ds, order, tmp_path_factory):
        path = tmp_path_factory.mktemp("rd") / "a.csv"
        head, *records = _reference_write(ds).splitlines(keepends=True)
        order.shuffle(records)  # the reader sorts rows into canonical order
        path.write_text(head + "".join(records))
        want = parse_csv(path)
        assert not _sidecar(path).exists()
        _assert_same_dataset(read_dataset(path), want)
        assert _sidecar(path).read_bytes().startswith(
            b"fortress-cache 1 " + hashlib.sha256(path.read_bytes()).hexdigest().encode() + b"\n")
        with _parse_refused():
            _assert_same_dataset(read_dataset(path), want)

    @staticmethod
    def _first_read(tmp_path):
        path = tmp_path / "d.csv"
        write_csv(toy_dataset(), path)
        read_dataset(path)
        return path, _sidecar(path).read_bytes()

    def test_an_edit_of_one_byte_misses_and_rewrites_the_sidecar(self, tmp_path):
        path, old = self._first_read(tmp_path)
        text = path.read_bytes()
        edited = text.replace(b",0.25,", b",0.75,")
        assert len(edited) == len(text) and edited != text
        path.write_bytes(edited)
        got = read_dataset(path)
        _assert_same_dataset(got, parse_csv(path))
        assert got.X[-1, 0] == 0.75
        new = _sidecar(path).read_bytes()
        assert new != old
        assert new.startswith(b"fortress-cache 1 " + hashlib.sha256(edited).hexdigest().encode())

    @staticmethod
    def _replace_field(good: bytes, index: int, array: np.ndarray) -> bytes:
        """``good`` with its ``index``-th stored array replaced by ``array``."""
        fh = io.BytesIO(good)
        header = fh.readline()
        arrays = [np.load(fh) for _ in range(7)]
        arrays[index] = array
        out = io.BytesIO()
        out.write(header)
        for a in arrays:
            np.save(out, a)
        return out.getvalue()

    @staticmethod
    def _with_key(good: bytes, key: bytes) -> bytes:
        return b"fortress-cache 1 " + key + good[good.index(b"\n"):]

    DAMAGES = {
        "truncated": lambda good: good[:-40],
        "header only": lambda good: good[: good.index(b"\n") + 1],
        "garbage": lambda good: bytes(range(256)) * 8,
        "empty": lambda good: b"",
        "another version": lambda good: b"fortress-cache 2" + good[len(b"fortress-cache 1"):],
        "another digest": lambda good: TestReadDataset._with_key(
            good, hashlib.sha256(b"other bytes").hexdigest().encode()),
        "a short digest": lambda good: TestReadDataset._with_key(good, b"d29e445c115e"),
        "int64 labels": lambda good: TestReadDataset._replace_field(
            good, 5, toy_dataset().labels.astype(np.int64)),
        "a short row array": lambda good: TestReadDataset._replace_field(
            good, 3, toy_dataset().snapshot_ids[:-1]),
        "X of another width": lambda good: TestReadDataset._replace_field(
            good, 6, toy_dataset().X[:, :1].copy()),
        "X of 1 dimension": lambda good: TestReadDataset._replace_field(
            good, 6, toy_dataset().X[:, 0].copy()),
        "0-d labels": lambda good: TestReadDataset._replace_field(good, 5, np.int8(2)),
        "unknown snapshot kind": lambda good: TestReadDataset._replace_field(
            good, 1, np.array("week")),
        "a pickled array": lambda good: TestReadDataset._replace_field(
            good, 0, np.array(["f_sr_0", "f_eng_0"], dtype=object)),
    }

    @pytest.mark.parametrize("damage", list(DAMAGES))
    def test_a_damaged_or_foreign_sidecar_is_ignored_and_rewritten(self, tmp_path, damage):
        path, good = self._first_read(tmp_path)
        bad = self.DAMAGES[damage](good)
        assert bad != good
        _sidecar(path).write_bytes(bad)
        _assert_same_dataset(read_dataset(path), toy_dataset())
        assert _sidecar(path).read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv" + CACHE_SUFFIX]

    def test_an_unwritable_sidecar_costs_only_the_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        write_csv(toy_dataset(), path)

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        # a failure after the temporary file exists removes it again
        monkeypatch.setattr(data_module.os, "replace", refuse)
        _assert_same_dataset(read_dataset(path), toy_dataset())
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    def test_a_sidecar_is_never_written_for_a_malformed_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("entity_id,snapshot_id,region,label,f_a\ne,0,r,GOOD,1\ne,1,r,NOPE,2\n")
        with pytest.raises(ValueError) as want:
            parse_csv(path)
        with pytest.raises(ValueError) as got:
            read_dataset(path)
        assert str(got.value) == str(want.value)
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]
        with pytest.raises(OSError):
            read_dataset(tmp_path / "absent.csv")

    def test_each_read_logs_where_its_time_went(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        write_csv(toy_dataset(), path)
        key = hashlib.sha256(path.read_bytes()).hexdigest()
        with caplog.at_level(logging.INFO, logger="fortress.data"):
            read_dataset(path)
            read_dataset(path)
        lines = [r.getMessage() for r in caplog.records]
        assert re.fullmatch(rf"parsed {re.escape(str(path))} in \d+\.\d ms; sidecar written", lines[-2])
        assert re.fullmatch(
            rf"read {re.escape(str(path))} from its sidecar \(sha256 {key[:12]}\) in \d+\.\d ms",
            lines[-1])


class TestViewsAndStats:
    def test_iter_entity_blocks(self):
        # each entity's (start, stop) rows, in canonical entity order
        assert list(toy_dataset().index.items()) == [
            ("e1", (0, 3)), ("e2", (3, 5)), ("e3", (5, 6)),
        ]

    @given(st.lists(st.sampled_from(["e1", "e2", "e3"]), max_size=8))
    def test_split_by_entity_equals_entity_row_slices(self, ids):
        # ids come unsorted and repeated; the blocks follow ascending id order
        ds = toy_dataset()
        parts = ds.split_by_entity(ids, ds.X[ds.rows_for(ids)])
        assert list(parts) == sorted(set(ids))
        for e, block in parts.items():
            start, stop = ds.entity_rows(e)
            np.testing.assert_array_equal(block, ds.X[start:stop])

    def test_split_by_entity_rejects_misaligned_values(self):
        ds = toy_dataset()
        with pytest.raises(ValueError) as exc:
            ds.split_by_entity(["e3", "e1"], np.zeros(5))
        assert str(exc.value) == "expected 4 values for these entities, got 5"
        with pytest.raises(ValueError) as exc:
            ds.split_by_entity(["e1", "zzz"], np.zeros(3))
        assert str(exc.value) == "unknown entity id: 'zzz'"

    def test_latest_snapshot_view(self):
        view = latest_snapshot_view(toy_dataset())
        assert view.n_rows == 3
        assert view.snapshot_ids.tolist() == ["2", "1", "0"]
        assert view.entity_ids.tolist() == ["e1", "e2", "e3"]
        assert view.X[:, 1].tolist() == [3.0, 5.0, 6.0]
        assert latest_snapshot_view(view) == view

    def test_label_polarity(self):
        assert not Label.BAD.is_positive
        assert Label.ACCEPTABLE.is_positive
        assert Label.EXCELLENT.is_positive
