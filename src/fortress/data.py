"""Snapshot dataset model, CSV contract, and entity partitioning.

A dataset is a flat table of per-(entity, snapshot) rows. Each row carries an
opaque entity id, a snapshot id (non-negative integer or ISO-8601 date), a
region tag, an entity-level outcome label, and a vector of float features in
which missing values are allowed. Rows are held in canonical order (entity id
ascending, snapshot ascending within entity) so every entity occupies one
contiguous block with its snapshots already time-ordered.

Feature columns are prefixed ``f_``; the prefix after that encodes the feature
group (for example ``f_sr_*`` for slow-moving semantic-reliability features
and ``f_eng_*`` for fast-moving engagement features).

The snapshot CSV is read in chunks of ``_CHUNK_ROWS`` records and written
in parts of at most ``_PART_CELLS`` feature cells, so this process's memory
beyond the dataset itself stays bounded. Floats are written as their
shortest round-trip ``repr``, which ``_floatrepr`` computes in numpy for a
whole part at once, byte for byte what ``repr`` gives. Where
``_fork.worker_count`` allows, ``write_csv`` has the workers of the package's
one ordered pool, ``_fork.in_order``, format parts of ``_PART_CELLS`` feature
cells, and writes each part's text to the file in order as it comes back; a
regular file is replaced only once the whole text is written. A chunk is
parsed with one pass per check: each distinct id, region, snapshot id and
label is checked once, and the feature block is converted by one ``float``
pass and one finiteness check. A chunk that fails any check is parsed again
record by record (``_parse_rows``), which defines every record check and
raises its message with the record's line number. ``write_csv`` refuses,
before it opens the file, a dataset whose file ``parse_csv`` would refuse,
and both apply one header rule. ``_replacing`` writes every output file,
this CSV and ``model.write_json``'s JSON; only the sidecar has its own writer.

``read_dataset`` is the reader the CLI uses: the first read of a regular
file parses it and stores the dataset in a sidecar next to it,
``<file>.fortress-cache``, keyed by the sha256 of the exact bytes parsed; a
later read hashes the file and, when the key matches, loads the arrays
instead of parsing. A stale, damaged or unwritable sidecar only costs the
parse, and ``parse_csv`` itself never writes one.

Partitioning into TRAIN/VAL/TEST is entity-level and hash-based: an entity's
split is a pure function of the salt and its id, so it is stable across runs,
machines, and dataset revisions that add or drop rows.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import logging
import math
import os
import re
import stat
import tempfile
import time
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from fortress import _fork, _floatrepr
from fortress._config import check_number

log = logging.getLogger(__name__)

RESERVED_COLUMNS = ("entity_id", "snapshot_id", "region", "label")
FEATURE_PREFIX = "f_"

TRAIN = "TRAIN"
VAL = "VAL"
TEST = "TEST"
PARTS = (TRAIN, VAL, TEST)
# the split of partition_entities, and of every run that sets none
DEFAULT_FRACTIONS = (0.70, 0.15, 0.15)
DEFAULT_SALT = "fortress"

_ID_RE = re.compile(r"[A-Za-z0-9_|.:-]+\Z")
_INT_SNAPSHOT_RE = re.compile(r"\d+\Z")
_DATE_SNAPSHOT_RE = re.compile(r"\d{4}-\d{2}-\d{2}\Z")
_FEATURE_NAME_RE = re.compile(r"f_[A-Za-z0-9_.:|-]+\Z")
# the line ends a file opened with newline="" splits on, as the CSV reader
# counts them in its line_num
_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class Label(IntEnum):
    """Entity outcome label. ``BAD`` is the negative class; the rest are
    positive under the binary projection used for training and PR metrics."""

    BAD = 0
    ACCEPTABLE = 1
    GOOD = 2
    EXCELLENT = 3

    @property
    def is_positive(self) -> bool:
        return self is not Label.BAD


LABEL_NAMES = tuple(l.name for l in Label)
_LABEL_CODES = {l.name: l.value for l in Label}
_LABEL_NAME_OF = {l.value: l.name for l in Label}
_LABEL_CODES_TEXT = ", ".join(f"{l.value} ({l.name})" for l in Label)

# Records per CSV read chunk, and the unit write_csv cuts parts in. Larger
# chunks parse no faster but keep more of the file's text alive at once:
# parsing 3,200 records took about 1 MB more peak RSS at 256 records per
# chunk and 5 MB more at 1,024 than record by record, and the same at 64.
_CHUNK_ROWS = 64
# The most feature cells in a part of write_csv, the unit one pool worker
# formats (in whole chunks, at least one). A file of one part is written in
# this process without a fork. On a 2-vCPU guest, parts of 1,024 rows of 25
# features wrote 12,000 rows as fast as 256- or 512-row parts and faster
# than 192-row ones, and they leave files of up to 1,024 rows serial, where
# a fork saves little or nothing.
_PART_CELLS = 1024 * 25
_RESERVED_FIELDS = itemgetter(*range(len(RESERVED_COLUMNS)))
_FEATURE_FIELDS = itemgetter(slice(len(RESERVED_COLUMNS), None))
_MISSING_AS_NAN = {"": "nan"}

# The sidecar of read_dataset: a header line (magic string, format version,
# the sha256 of the CSV bytes as hex), then the dataset's fields as .npy
# arrays. A change to the stored fields needs a new version.
CACHE_SUFFIX = ".fortress-cache"
_CACHE_HEADER = b"fortress-cache 1 "
# Bytes per read when a file is hashed against its sidecar, into one reused
# buffer. 1 MiB blocks hashed no faster and raised the benchmark's peak RSS.
_HASH_BLOCK = 1 << 16


@dataclass(eq=False)
class SnapshotDataset:
    """Immutable columnar dataset in canonical (entity, snapshot) order.

    Attributes:
        schema: feature column names, in file order.
        snapshot_kind: ``"int"`` or ``"date"``; all snapshot ids in one
            dataset share a kind.
        entity_ids / snapshot_ids / regions: one string per row.
        labels: per-row ``Label`` codes (constant within an entity).
        X: float64 feature matrix, NaN encodes missing.
    """

    schema: tuple[str, ...]
    snapshot_kind: str
    entity_ids: np.ndarray
    snapshot_ids: np.ndarray
    regions: np.ndarray
    labels: np.ndarray
    X: np.ndarray
    _index: dict[str, tuple[int, int]] = field(default=None, repr=False)  # type: ignore[assignment]

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    @property
    def entities(self) -> tuple[str, ...]:
        """Unique entity ids in canonical (ascending) order."""
        return tuple(self.index.keys())

    @property
    def index(self) -> dict[str, tuple[int, int]]:
        """Mapping entity id -> (start, stop) row block."""
        if self._index is None:
            ids = self.entity_ids
            stops = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist() + [len(ids)]
            starts = [0] + stops[:-1]
            self._index = dict(zip(ids[starts].tolist(), zip(starts, stops))) if len(ids) else {}
        return self._index

    def entity_label(self, entity_id: str) -> Label:
        start, _ = self._block(entity_id)
        return Label(int(self.labels[start]))

    def entity_rows(self, entity_id: str) -> tuple[int, int]:
        return self._block(entity_id)

    def binary_labels(self) -> np.ndarray:
        """Per-row binary target: 1.0 for any non-BAD label, else 0.0."""
        return (self.labels > 0).astype(np.float64)

    def rows_for(self, entity_ids: Iterable[str]) -> np.ndarray:
        """Row indices of the given entities, in canonical order."""
        blocks = [self._block(e) for e in sorted(set(entity_ids))]
        if not blocks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.arange(a, b, dtype=np.int64) for a, b in blocks]
        )

    def split_by_entity(self, entity_ids: Iterable[str], values: np.ndarray) -> dict[str, np.ndarray]:
        """Split ``values``, one per row of ``rows_for(entity_ids)``, into each
        entity's block, entities in ascending id order. Raises ``ValueError``
        for an unknown entity id or ``values`` of another length."""
        out: dict[str, np.ndarray] = {}
        offset = 0
        for e in sorted(set(entity_ids)):
            start, stop = self._block(e)
            out[e] = values[offset:offset + stop - start]
            offset += stop - start
        if offset != len(values):
            raise ValueError(f"expected {offset} values for these entities, got {len(values)}")
        return out

    def _block(self, entity_id: str) -> tuple[int, int]:
        try:
            return self.index[entity_id]
        except KeyError:
            raise ValueError(f"unknown entity id: {entity_id!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SnapshotDataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.snapshot_kind == other.snapshot_kind
            and np.array_equal(self.entity_ids, other.entity_ids)
            and np.array_equal(self.snapshot_ids, other.snapshot_ids)
            and np.array_equal(self.regions, other.regions)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.X, other.X, equal_nan=True)
        )


@dataclass
class PartitionAssignment:
    """Entity -> split assignment produced by :func:`partition_entities`."""

    salt: str
    fractions: tuple[float, float, float]
    assignment: dict[str, str]

    def part_of(self, entity_id: str) -> str:
        try:
            return self.assignment[entity_id]
        except KeyError:
            raise ValueError(f"entity not in partition: {entity_id!r}") from None

    def entities_in(self, part: str) -> tuple[str, ...]:
        if part not in PARTS:
            raise ValueError(f"unknown partition name: {part!r}")
        return tuple(e for e, p in self.assignment.items() if p == part)

    def counts(self) -> dict[str, int]:
        out = {p: 0 for p in PARTS}
        for p in self.assignment.values():
            out[p] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "partition",
            "salt": self.salt,
            "fractions": list(self.fractions),
            "assignment": {e: self.assignment[e] for e in sorted(self.assignment)},
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "PartitionAssignment":
        try:
            salt = doc["salt"]
            fractions = doc["fractions"]
            assignment = dict(doc["assignment"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed partition document: {exc}") from None
        for part in assignment.values():
            if part not in PARTS:
                raise ValueError(f"unknown partition name in document: {part!r}")
        fractions = check_fractions(fractions)
        return cls(salt=str(salt), fractions=fractions, assignment=assignment)  # type: ignore[arg-type]


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of ``data``."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def partition_unit(salt: str, entity_id: str) -> float:
    """Deterministic uniform-looking value in [0, 1) for an entity id."""
    h = fnv1a64(salt.encode("utf-8") + b"\x00" + entity_id.encode("utf-8"))
    return h / 2.0**64


def check_fractions(fractions: Iterable[float]) -> tuple[float, ...]:
    """``fractions`` as floats, after checking that there are 3 of them,
    each finite and non-negative, summing to 1.

    Raises:
        ValueError: on any other fractions.
    """
    fr = tuple(fractions) if isinstance(fractions, Iterable) else (fractions,)
    for f in fr:
        check_number(f, "fractions")
    fr = tuple(float(f) for f in fr)
    if len(fr) != 3:
        raise ValueError("fractions must have exactly 3 entries")
    if any(not math.isfinite(f) or f < 0.0 for f in fr):
        raise ValueError(f"fractions must be non-negative and finite, got {fr}")
    if abs(sum(fr) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fr} (sum {sum(fr)!r})")
    return fr


def partition_entities(
    dataset: "SnapshotDataset | Iterable[str]",
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
    salt: str = DEFAULT_SALT,
) -> PartitionAssignment:
    """Assign every entity to TRAIN, VAL, or TEST by salted hashing.

    The assignment of an entity depends only on ``salt`` and its id: hash the
    id, scale to [0, 1), and compare against the cumulative fractions. Two
    datasets sharing entities therefore agree on every shared entity, and the
    split is entity-disjoint by construction.

    Args:
        dataset: a :class:`SnapshotDataset` or an iterable of entity ids.
        fractions: (train, val, test) fractions; non-negative, summing to 1.
        salt: hash salt; changing it reshuffles the whole assignment.

    Raises:
        ValueError: on bad fractions or an empty entity set.
    """
    if isinstance(dataset, SnapshotDataset):
        entities: tuple[str, ...] = dataset.entities
    else:
        entities = tuple(dict.fromkeys(str(e) for e in dataset))
    if not entities:
        raise ValueError("cannot partition an empty entity set")
    fr = check_fractions(fractions)
    u = _partition_units(salt, entities)
    # TRAIN below fr[0], VAL below fr[0] + fr[1], TEST from there
    part = (u >= fr[0]).astype(np.int64) + (u >= fr[0] + fr[1])
    assignment = dict(zip(entities, [PARTS[p] for p in part.tolist()]))
    return PartitionAssignment(salt=salt, fractions=fr, assignment=assignment)  # type: ignore[arg-type]


def _partition_units(salt: str, entity_ids: Sequence[str]) -> np.ndarray:
    """``partition_unit(salt, e)`` of every id, bit for bit.

    The FNV-1a hash of the shared prefix ``salt + "\\0"`` is taken once;
    each id's UTF-8 bytes then continue it as one column of a zero-padded
    byte matrix at a time, in uint64, whose multiplication wraps modulo
    2**64 as the masked one does. A row past the end of its id keeps its
    hash. The uint64 to float64 conversion rounds to nearest, as Python's
    int to float conversion does, and the division by 2**64 is exact.
    """
    encoded = [e.encode("utf-8") for e in entity_ids]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    width = int(lengths.max(initial=0))
    matrix = np.frombuffer(
        b"".join(e.ljust(width, b"\0") for e in encoded), dtype=np.uint8
    ).reshape(len(encoded), width)
    h = np.full(len(encoded), fnv1a64(salt.encode("utf-8") + b"\0"), dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for col in range(width):
        h = np.where(col < lengths, (h ^ matrix[:, col]) * prime, h)
    return h.astype(np.float64) / 2.0**64


def entities_in_partition(
    dataset: SnapshotDataset, assignment: PartitionAssignment, part: str
) -> list[str]:
    """The dataset's entities that ``assignment`` puts in ``part``, in
    ascending id order."""
    wanted = set(assignment.entities_in(part))
    return [e for e in dataset.entities if e in wanted]


def rows_in_partition(
    dataset: SnapshotDataset, assignment: PartitionAssignment, part: str
) -> np.ndarray:
    """Row indices of all rows whose entity falls in ``part``."""
    return dataset.rows_for(entities_in_partition(dataset, assignment, part))


def build_dataset(
    schema: Iterable[str],
    snapshot_kind: str,
    entity_ids: np.ndarray,
    snapshot_ids: np.ndarray,
    regions: np.ndarray,
    labels: np.ndarray,
    X: np.ndarray,
    *,
    sort: bool = True,
    validate: bool = True,
) -> SnapshotDataset:
    """Assemble a :class:`SnapshotDataset`, sorting rows into canonical order
    and enforcing dataset invariants (label codes of :class:`Label`, unique
    (entity, snapshot) pairs and a constant label per entity)."""
    schema_t = tuple(str(s) for s in schema)
    if snapshot_kind not in ("int", "date"):
        raise ValueError(f"snapshot_kind must be 'int' or 'date', got {snapshot_kind!r}")
    ent = np.asarray(entity_ids, dtype=np.str_)
    snap = np.asarray(snapshot_ids, dtype=np.str_)
    reg = np.asarray(regions, dtype=np.str_)
    lab = np.asarray(labels)
    Xm = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    n = len(ent)
    if not (len(snap) == len(reg) == len(lab) == Xm.shape[0] == n):
        raise ValueError("row arrays must all have the same length")
    if Xm.ndim != 2 or Xm.shape[1] != len(schema_t):
        raise ValueError(
            f"feature matrix shape {Xm.shape} does not match schema of {len(schema_t)} columns"
        )
    if validate:
        # before the int8 cast, which would wrap a code such as 257 into range
        unknown = np.flatnonzero(~np.isin(lab, list(_LABEL_NAME_OF)))
        if unknown.size:
            i = int(unknown[0])
            raise ValueError(
                f"invalid label code {lab[i].item()!r} for entity {str(ent[i])!r}, "
                f"expected one of {_LABEL_CODES_TEXT}"
            )
    lab = lab.astype(np.int8)
    if sort and n > 0:
        snap_key = snap.astype(np.int64) if snapshot_kind == "int" else snap
        order = np.lexsort((snap_key, ent))
        ent, snap, reg, lab = ent[order], snap[order], reg[order], lab[order]
        Xm = np.ascontiguousarray(Xm[order])
    ds = SnapshotDataset(
        schema=schema_t,
        snapshot_kind=snapshot_kind,
        entity_ids=ent,
        snapshot_ids=snap,
        regions=reg,
        labels=lab,
        X=Xm,
    )
    if validate:
        _validate_dataset(ds)
    return ds


def _validate_dataset(ds: SnapshotDataset) -> None:
    ent, snap, lab = ds.entity_ids, ds.snapshot_ids, ds.labels
    # the first row that repeats its predecessor's snapshot or changes its
    # label within one entity; a repeated snapshot is reported first
    same = ent[1:] == ent[:-1]
    duplicate = same & (snap[1:] == snap[:-1])
    bad = np.flatnonzero(duplicate | (same & (lab[1:] != lab[:-1])))
    if bad.size:
        i = int(bad[0]) + 1
        if duplicate[i - 1]:
            raise ValueError(
                f"duplicate (entity, snapshot) pair: ({str(ent[i])!r}, {str(snap[i])!r})"
            )
        raise ValueError(
            f"inconsistent label for entity {str(ent[i])!r}: "
            f"{Label(int(lab[i - 1])).name} vs {Label(int(lab[i])).name}"
        )
    if len(set(ds.schema)) != len(ds.schema):
        raise ValueError("duplicate feature column names in schema")


def _snapshot_kind(token: str) -> str | None:
    """``"int"`` or ``"date"``, or ``None`` for a token that is neither."""
    if _INT_SNAPSHOT_RE.fullmatch(token):
        return "int"
    if _DATE_SNAPSHOT_RE.fullmatch(token):
        return "date"
    return None


# A parsed chunk: entity ids, snapshot ids, regions, label codes, the
# (records x features) block, and the snapshot kind of the file so far.
_Chunk = tuple[list, list, list, list, np.ndarray, str]


def _parse_rows(
    path: Path, rows: list[list[str]], line_no: int, schema: tuple[str, ...],
    snapshot_kind: str | None,
) -> _Chunk:
    """Parse records one by one; the definition of every record check.

    ``line_no`` is the line of ``rows[0]`` and ``snapshot_kind`` the kind of
    the records before it. A record spans one line plus the line breaks in
    its quoted fields. Raises ``ValueError`` at the first bad record.
    """
    width = len(RESERVED_COLUMNS) + len(schema)
    d = len(schema)
    ents: list[str] = []
    snaps: list[str] = []
    regs: list[str] = []
    labs: list[int] = []
    vecs: list[np.ndarray] = []
    for row in rows:
        if len(row) != width:
            raise ValueError(
                f"{path}: line {line_no}: expected {width} fields, got {len(row)}"
            )
        ent, snap, reg, lab = row[0], row[1], row[2], row[3]
        if not _ID_RE.fullmatch(ent):
            raise ValueError(f"{path}: line {line_no}: invalid entity_id {ent!r}")
        if not _ID_RE.fullmatch(reg):
            raise ValueError(f"{path}: line {line_no}: invalid region {reg!r}")
        kind = _snapshot_kind(snap)
        if kind is None:
            raise ValueError(
                f"{path}: line {line_no}: snapshot_id {snap!r} is neither a non-negative "
                f"integer nor an ISO-8601 date (YYYY-MM-DD)"
            )
        if snapshot_kind is None:
            snapshot_kind = kind
        elif kind != snapshot_kind:
            raise ValueError(
                f"{path}: line {line_no}: mixed snapshot id types "
                f"({snapshot_kind} and {kind}) in one file"
            )
        try:
            labs.append(Label[lab].value)
        except KeyError:
            raise ValueError(
                f"{path}: line {line_no}: unknown label {lab!r}, "
                f"expected one of {', '.join(LABEL_NAMES)}"
            ) from None
        vec = np.empty(d, dtype=np.float64)
        for j, token in enumerate(row[4:]):
            if token == "":
                vec[j] = np.nan
                continue
            try:
                value = float(token)
            except ValueError:
                raise ValueError(
                    f"{path}: line {line_no}: feature {schema[j]!r}: "
                    f"unparseable value {token!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {line_no}: feature {schema[j]!r}: "
                    f"non-finite value {token!r}"
                )
            vec[j] = value
        ents.append(ent)
        snaps.append(snap)
        regs.append(reg)
        vecs.append(vec)
        line_no += 1 + sum(len(_LINE_BREAK_RE.findall(cell)) for cell in row)
    return ents, snaps, regs, labs, np.vstack(vecs), snapshot_kind


def _screen_rows(
    rows: list[list[str]], width: int, snapshot_kind: str | None,
    checked_ids: set[str], kinds: dict[str, str],
) -> _Chunk | None:
    """What :func:`_parse_rows` returns for ``rows``, computed with one pass
    per check, or ``None`` if any record fails one of its checks.

    ``checked_ids`` (entity ids and regions known to be valid) and ``kinds``
    (snapshot id -> kind) carry over between the chunks of one file, so each
    distinct value is checked once.
    """
    if any(len(row) != width for row in rows):
        return None
    ents, snaps, regs, labels = zip(*map(_RESERVED_FIELDS, rows))
    new_ids = set(ents).union(regs) - checked_ids
    if not all(map(_ID_RE.fullmatch, new_ids)):
        return None
    checked_ids |= new_ids
    distinct_snaps = set(snaps)
    for snap in distinct_snaps.difference(kinds):
        kind = _snapshot_kind(snap)
        if kind is None:
            return None
        kinds[snap] = kind
    chunk_kinds = {kinds[snap] for snap in distinct_snaps}
    if len(chunk_kinds) != 1 or snapshot_kind not in (None, *chunk_kinds):
        return None
    codes = list(map(_LABEL_CODES.get, labels))
    if None in codes:
        return None
    tokens = list(chain.from_iterable(map(_FEATURE_FIELDS, rows)))
    try:
        X = np.fromiter(
            map(float, map(_MISSING_AS_NAN.get, tokens, tokens)), np.float64, len(tokens)
        )
    except ValueError:
        return None
    # an empty token is the only source of a non-finite value: "nan" and
    # "inf" spelled out are errors
    if X.size - np.count_nonzero(np.isfinite(X)) != tokens.count(""):
        return None
    return list(ents), list(snaps), list(regs), codes, X.reshape(len(rows), -1), chunk_kinds.pop()


def _check_header(path: Path, header: Sequence[str]) -> tuple[str, ...]:
    """The feature columns of a CSV ``header``, after checking the one header
    rule of :func:`parse_csv` and :func:`write_csv`: the reserved columns,
    then at least one feature column, each ``f_`` plus the id charset, and
    no name twice. Raises ``ValueError`` naming ``path`` otherwise."""
    if len(header) < len(RESERVED_COLUMNS) + 1:
        raise ValueError(
            f"{path}: malformed header, expected "
            f"{','.join(RESERVED_COLUMNS)} plus at least one f_ column"
        )
    if tuple(header[: len(RESERVED_COLUMNS)]) != RESERVED_COLUMNS:
        raise ValueError(
            f"{path}: malformed header, first columns must be "
            f"{','.join(RESERVED_COLUMNS)}, got {header[:4]}"
        )
    schema = tuple(header[len(RESERVED_COLUMNS):])
    for name in schema:
        if not _FEATURE_NAME_RE.fullmatch(name):
            raise ValueError(
                f"{path}: feature column {name!r} must match prefix "
                f"'{FEATURE_PREFIX}' and id charset"
            )
    if len(set(schema)) != len(schema):
        raise ValueError(f"{path}: duplicate feature column names")
    return schema


def _records(path: Path, reader) -> Iterator[list[str]]:
    """The records of a ``csv.reader``, its ``csv.Error`` (such as a field
    over the field size limit) raised as a ``ValueError`` with the line, and
    a byte that is not UTF-8 as one with the file."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        # decoded a block at a time, so neither the line nor the position
        # in the block locates the byte in the file
        raise ValueError(
            f"{path}: not UTF-8 text: can't decode byte 0x{exc.object[exc.start]:02x} "
            f"({exc.reason})"
        ) from None


class _HashingReader(io.RawIOBase):
    """A binary file that feeds every byte read from it to ``digest``."""

    def __init__(self, raw: io.RawIOBase, digest) -> None:
        self._raw = raw
        self._digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        if n:
            self._digest.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def _open_text(path: Path, digest):
    if digest is None:
        return path.open("r", newline="", encoding="utf-8")
    raw = _HashingReader(path.open("rb", buffering=0), digest)
    return io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", newline="")


def parse_csv(path: str | Path, *, digest=None) -> SnapshotDataset:
    """Parse a snapshot CSV into a :class:`SnapshotDataset`.

    Contract: header ``entity_id,snapshot_id,region,label,<f_...>...`` with at
    least one ``f_``-prefixed feature column; empty cells are missing feature
    values; ids are restricted to ``[A-Za-z0-9_|.:-]``; snapshot ids are all
    non-negative integers or all ISO-8601 dates, never mixed. Rows are
    returned in canonical order regardless of file order. The file is read
    in chunks of ``_CHUNK_ROWS`` records.

    ``digest``, a ``hashlib`` object, is updated with every byte the parse
    reads, so after a successful return it holds the hash of exactly the
    bytes the dataset was parsed from.

    Raises:
        ValueError: malformed header, bad id or label, non-finite or
            unparseable feature value (with the record's line number),
            a record the CSV reader rejects (with its line), duplicate
            (entity, snapshot) pair, inconsistent label, mixed snapshot
            kinds, a byte that is not UTF-8.
        OSError: if the file cannot be read.
    """
    path = Path(path)
    with _open_text(path, digest) as fh:
        lines = csv.reader(fh)
        reader = _records(path, lines)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        schema = _check_header(path, header)

        width = len(header)
        d = len(schema)
        ents: list[str] = []
        snaps: list[str] = []
        regs: list[str] = []
        labs: list[int] = []
        blocks: list[np.ndarray] = []
        snapshot_kind: str | None = None
        checked_ids: set[str] = set()
        kinds: dict[str, str] = {}
        line_no = lines.line_num + 1  # the line of the chunk's first record
        while rows := list(islice(reader, _CHUNK_ROWS)):
            chunk = _screen_rows(rows, width, snapshot_kind, checked_ids, kinds)
            if chunk is None:
                chunk = _parse_rows(path, rows, line_no, schema, snapshot_kind)
            ents += chunk[0]
            snaps += chunk[1]
            regs += chunk[2]
            labs += chunk[3]
            blocks.append(chunk[4])
            snapshot_kind = chunk[5]
            line_no = lines.line_num + 1

    if snapshot_kind is None:
        snapshot_kind = "int"
    X = np.vstack(blocks) if blocks else np.empty((0, d), dtype=np.float64)
    ds = build_dataset(
        schema,
        snapshot_kind,
        np.array(ents, dtype=np.str_) if ents else np.empty(0, dtype=np.str_),
        np.array(snaps, dtype=np.str_) if snaps else np.empty(0, dtype=np.str_),
        np.array(regs, dtype=np.str_) if regs else np.empty(0, dtype=np.str_),
        np.array(labs, dtype=np.int8),
        X,
    )
    log.info(
        "parsed %s: %d rows, %d entities, %d snapshot ids, %d features",
        path, ds.n_rows, len(ds.entities), len(set(ds.snapshot_ids.tolist())), d,
    )
    return ds


def read_dataset(path: str | Path) -> SnapshotDataset:
    """``parse_csv(path)``, read from the sidecar ``<path>.fortress-cache``
    when that holds the dataset of the file's current bytes.

    A regular file is hashed in blocks only when a sidecar with the current
    format exists; on a match its arrays are loaded and checked. Otherwise
    the file is parsed through a hashing reader, and the dataset is stored
    under the digest of the bytes parsed: written to a temporary file in the
    same directory and moved into place, so a reader never sees half a
    sidecar. A sidecar that cannot be read or written only costs the parse.
    Any other file, such as a pipe, is parsed without a sidecar.

    Raises:
        what :func:`parse_csv` raises.
    """
    path = Path(path)
    start = time.perf_counter()
    try:
        regular = stat.S_ISREG(path.stat().st_mode)
    except OSError:
        regular = False
    if not regular:
        return parse_csv(path)
    cache = path.with_name(path.name + CACHE_SUFFIX)
    hit = _load_cache(path, cache)
    if hit is not None:
        key, ds = hit
        log.info("read %s from its sidecar (sha256 %s) in %.1f ms",
                 path, key[:12], 1e3 * (time.perf_counter() - start))
        return ds
    digest = hashlib.sha256()
    ds = parse_csv(path, digest=digest)
    parsed = time.perf_counter()
    written = _write_cache(cache, digest.hexdigest(), ds)
    log.info("parsed %s in %.1f ms; sidecar %s", path, 1e3 * (parsed - start),
             "written" if written else "not written")
    return ds


def _file_sha256(path: Path) -> str | None:
    """The sha256 of a regular file, read in blocks; ``None`` for any other."""
    digest = hashlib.sha256()
    block = memoryview(bytearray(_HASH_BLOCK))
    with path.open("rb", buffering=0) as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return None
        while n := fh.readinto(block):
            digest.update(block[:n])
    return digest.hexdigest()


def _load_cache(path: Path, cache: Path) -> tuple[str, SnapshotDataset] | None:
    """(key, dataset) from ``cache`` if its key is the sha256 of ``path``
    and its arrays form a dataset, else ``None``."""
    try:
        with cache.open("rb") as fh:
            line = fh.readline(len(_CACHE_HEADER) + 65)
            if not (line.startswith(_CACHE_HEADER) and line.endswith(b"\n")):
                return None
            key = line[len(_CACHE_HEADER):-1].decode("ascii")
            if _file_sha256(path) != key:
                return None
            schema, kind, ent, snap, reg, lab, X = (
                np.load(fh, allow_pickle=False) for _ in range(7))
            kind = kind.item() if kind.ndim == 0 else None
            n = len(X) if X.ndim == 2 else -1
            if not (
                kind in ("int", "date") and schema.dtype.kind == "U" and schema.ndim == 1
                and X.dtype == np.float64 and X.shape == (n, len(schema))
                and lab.dtype == np.int8 and lab.shape == (n,)
                and all(a.dtype.kind == "U" and a.shape == (n,) for a in (ent, snap, reg))
            ):
                return None
    except (OSError, ValueError, EOFError):
        return None
    return key, SnapshotDataset(
        schema=tuple(schema.tolist()), snapshot_kind=kind, entity_ids=ent, snapshot_ids=snap,
        regions=reg, labels=lab, X=X,
    )


def _write_cache(cache: Path, key: str, ds: SnapshotDataset) -> bool:
    """Store ``ds`` under ``key`` in ``cache``; ``False`` if that failed.

    Not through :func:`_replacing`: the sidecar is a file the user never
    named, so it keeps ``mkstemp``'s mode 0600 and replaces a symlink at
    ``cache`` rather than writing through it, as ``_replacing`` would.
    """
    fields = (np.array(ds.schema, dtype=np.str_), np.array(ds.snapshot_kind), ds.entity_ids,
              ds.snapshot_ids, ds.regions, ds.labels, ds.X)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=cache.name + ".", suffix=".tmp", dir=cache.parent)
        with os.fdopen(fd, "wb") as fh:
            fh.write(_CACHE_HEADER + key.encode("ascii") + b"\n")
            for array in fields:
                np.save(fh, array, allow_pickle=False)
        os.replace(tmp, cache)
        return True
    except OSError as exc:
        log.info("could not write %s: %s", cache, exc)
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        return False


def _check_writable(dataset: SnapshotDataset, path: Path) -> None:
    """Refuse a dataset whose file :func:`parse_csv` would refuse: its
    header by ``parse_csv``'s own rule, :func:`_check_header`, and its
    records checking each distinct value once. Every value it lets through
    is written unquoted, so ``write_csv`` can join fields with plain commas."""
    _check_header(path, RESERVED_COLUMNS + dataset.schema)
    for column, values in (("entity_id", dataset.entity_ids), ("region", dataset.regions)):
        for value in sorted(set(values.tolist())):
            if not _ID_RE.fullmatch(value):
                raise ValueError(
                    f"{path}: cannot write {column} {value!r}: ids must match "
                    f"[A-Za-z0-9_|.:-]+"
                )
    first_of_kind: dict[str | None, str] = {}
    for snap in sorted(set(dataset.snapshot_ids.tolist())):
        first_of_kind.setdefault(_snapshot_kind(snap), snap)
    if None in first_of_kind:
        raise ValueError(
            f"{path}: cannot write snapshot_id {first_of_kind[None]!r}: it is neither "
            f"a non-negative integer nor an ISO-8601 date (YYYY-MM-DD)"
        )
    if len(first_of_kind) > 1:
        raise ValueError(
            f"{path}: cannot write mixed snapshot id types "
            f"({first_of_kind['int']!r} and {first_of_kind['date']!r})"
        )
    for code in sorted(set(dataset.labels.tolist())):
        if code not in _LABEL_NAME_OF:
            raise ValueError(
                f"{path}: cannot write label code {code}, expected one of {_LABEL_CODES_TEXT}"
            )
    if np.isinf(dataset.X).any():
        i, j = (int(k[0]) for k in np.nonzero(np.isinf(dataset.X)))
        raise ValueError(
            f"{path}: cannot write non-finite value {float(dataset.X[i, j])!r} of feature "
            f"{dataset.schema[j]!r} for entity {str(dataset.entity_ids[i])!r}"
        )


def _format_rows(dataset: SnapshotDataset, start: int, stop: int) -> Iterator[bytes]:
    """The CSV lines of rows ``start:stop`` of a dataset that passed
    :func:`_check_writable`, as one block of bytes.

    Floats are written with their shortest round-trip ``repr``, which
    :func:`_floatrepr.reprs` gives the rows' cells at once; NaN is an empty
    cell. The rows are laid out as a byte matrix, a row's other fields and
    then a 24-byte NUL-padded slot and a separator per feature, and the
    text is the matrix without the NULs: no field of a writable dataset
    holds one.
    """
    rows = slice(start, stop)
    heads = np.array([
        (",".join(head) + ",").encode("utf-8")
        for head in zip(
            dataset.entity_ids[rows].tolist(),
            dataset.snapshot_ids[rows].tolist(),
            dataset.regions[rows].tolist(),
            map(_LABEL_NAME_OF.__getitem__, dataset.labels[rows].tolist()),
        )
    ])
    n, width, d = heads.size, heads.itemsize, dataset.n_features
    text = np.empty((n, width + d * (_floatrepr.SLOT + 1)), dtype=np.uint8)
    text[:, :width] = heads.view(np.uint8).reshape(n, width)
    cells = text[:, width:].reshape(n, d, _floatrepr.SLOT + 1)
    cells[:, :, :-1] = _floatrepr.reprs(dataset.X[rows]).view(np.uint8).reshape(n, d, _floatrepr.SLOT)
    cells[:, :, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    yield text[text != 0].tobytes()


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[io.BufferedWriter]:
    """A binary file whose bytes become ``path``'s only if the block ends
    without an error, so a failed write leaves a file that was there as it
    was. A regular file (or none yet) is written to a temporary sibling,
    which is moved into place then or unlinked on the error; the file keeps
    the mode ``open(path, "wb")`` gives it. Anything else, such as a pipe or
    ``/dev/stdout``, is written directly."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with path.open("wb") as fh:
            yield fh
        return
    real = Path(os.path.realpath(path))  # through a symlink, as open() writes
    tmp = real.with_name(f"{real.name}.{os.urandom(6).hex()}.tmp")
    try:
        # 0o666 less the umask: the mode open() creates a file with
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named as open(path, "wb") would name it
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, "wb") as fh:
            if mode is not None:  # open() keeps an existing file's mode
                os.fchmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(dataset: SnapshotDataset, path: str | Path) -> None:
    """Write ``dataset`` to ``path`` in the snapshot CSV contract.

    Floats are written with their shortest round-trip ``repr``, computed
    in numpy (:func:`_floatrepr.reprs`), so that
    ``parse_csv(write_csv(ds)) == ds`` field for field, including missing
    values.

    The rows are cut into the fewest contiguous parts of whole chunks of
    ``_CHUNK_ROWS`` that keep each to at most ``_PART_CELLS`` feature
    cells, as even as whole chunks allow. :func:`_fork.in_order` formats
    each part with :func:`_format_rows`, on forked workers where
    ``_fork.worker_count`` allows two or more and there are two or more
    parts, else in this process; this process writes the header and then
    the parts in order. So the file is the serial write's, byte for byte,
    and every worker is reaped before this returns or raises. A regular
    file is replaced only once every part is written (see
    :func:`_replacing`).

    Raises:
        ValueError: before the file is opened, if ``parse_csv`` would refuse
            the file (a bad header with ``parse_csv``'s message): an id,
            region, snapshot id, label code or header outside the contract,
            or an infinite feature value.
        ChildProcessError: a formatter died.
    """
    path = Path(path)
    _check_writable(dataset, path)
    chunks = -(-dataset.n_rows // _CHUNK_ROWS)
    part_chunks = max(1, _PART_CELLS // (_CHUNK_ROWS * max(1, dataset.n_features)))
    parts = max(1, -(-chunks // part_chunks))
    bounds = [min(dataset.n_rows, chunks * k // parts * _CHUNK_ROWS) for k in range(parts + 1)]

    def part(k: int) -> bytes:
        return b"".join(_format_rows(dataset, bounds[k], bounds[k + 1]))

    _floatrepr.tables()  # once here, not in each worker
    with _replacing(path) as fh, \
            _fork.in_order(part, range(parts), lambda k: "the CSV formatter") as texts:
        fh.write((",".join(RESERVED_COLUMNS + dataset.schema) + "\n").encode("utf-8"))
        fh.writelines(texts)


def latest_snapshot_view(dataset: SnapshotDataset) -> SnapshotDataset:
    """Keep only each entity's most recent snapshot row.

    Idempotent: applying it twice equals applying it once.
    """
    if dataset.n_rows == 0:
        return dataset
    keep = np.array([stop - 1 for _, stop in dataset.index.values()], dtype=np.int64)
    return build_dataset(
        dataset.schema,
        dataset.snapshot_kind,
        dataset.entity_ids[keep],
        dataset.snapshot_ids[keep],
        dataset.regions[keep],
        dataset.labels[keep],
        dataset.X[keep],
        sort=False,
        validate=False,
    )
