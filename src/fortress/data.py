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

Partitioning into TRAIN/VAL/TEST is entity-level and hash-based: an entity's
split is a pure function of the salt and its id, so it is stable across runs,
machines, and dataset revisions that add or drop rows.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

log = logging.getLogger(__name__)

RESERVED_COLUMNS = ("entity_id", "snapshot_id", "region", "label")
FEATURE_PREFIX = "f_"

TRAIN = "TRAIN"
VAL = "VAL"
TEST = "TEST"
PARTS = (TRAIN, VAL, TEST)

_ID_RE = re.compile(r"[A-Za-z0-9_|.:-]+\Z")
_INT_SNAPSHOT_RE = re.compile(r"\d+\Z")
_DATE_SNAPSHOT_RE = re.compile(r"\d{4}-\d{2}-\d{2}\Z")
_FEATURE_NAME_RE = re.compile(r"f_[A-Za-z0-9_.:|-]+\Z")

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


@dataclass
class Sample:
    """One (entity, snapshot) row with features as a name -> value mapping.

    Missing feature values are represented as ``None``.
    """

    entity_id: str
    snapshot_id: str
    region: str
    label: Label
    features: dict[str, float | None]


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
            idx: dict[str, tuple[int, int]] = {}
            ids = self.entity_ids
            start = 0
            for i in range(1, len(ids) + 1):
                if i == len(ids) or ids[i] != ids[start]:
                    idx[str(ids[start])] = (start, i)
                    start = i
            self._index = idx
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
            fractions = tuple(float(f) for f in doc["fractions"])
            assignment = dict(doc["assignment"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed partition document: {exc}") from None
        for part in assignment.values():
            if part not in PARTS:
                raise ValueError(f"unknown partition name in document: {part!r}")
        if len(fractions) != 3:
            raise ValueError("partition fractions must have exactly 3 entries")
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
    fr = tuple(float(f) for f in fractions)
    if len(fr) != 3:
        raise ValueError("fractions must have exactly 3 entries")
    if any(not math.isfinite(f) or f < 0.0 for f in fr):
        raise ValueError(f"fractions must be non-negative and finite, got {fr}")
    if abs(sum(fr) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fr} (sum {sum(fr)!r})")
    return fr


def partition_entities(
    dataset: "SnapshotDataset | Iterable[str]",
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15),
    salt: str = "fortress",
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
    c_train = fr[0]
    c_val = fr[0] + fr[1]
    assignment: dict[str, str] = {}
    for e in entities:
        u = partition_unit(salt, e)
        if u < c_train:
            assignment[e] = TRAIN
        elif u < c_val:
            assignment[e] = VAL
        else:
            assignment[e] = TEST
    return PartitionAssignment(salt=salt, fractions=fr, assignment=assignment)  # type: ignore[arg-type]


def rows_in_partition(
    dataset: SnapshotDataset, assignment: PartitionAssignment, part: str
) -> np.ndarray:
    """Row indices of all rows whose entity falls in ``part``."""
    wanted = set(assignment.entities_in(part))
    keep = [e for e in dataset.entities if e in wanted]
    return dataset.rows_for(keep)


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
    and enforcing dataset invariants (unique (entity, snapshot) pairs and a
    constant label per entity)."""
    schema_t = tuple(str(s) for s in schema)
    if snapshot_kind not in ("int", "date"):
        raise ValueError(f"snapshot_kind must be 'int' or 'date', got {snapshot_kind!r}")
    ent = np.asarray(entity_ids, dtype=np.str_)
    snap = np.asarray(snapshot_ids, dtype=np.str_)
    reg = np.asarray(regions, dtype=np.str_)
    lab = np.asarray(labels, dtype=np.int8)
    Xm = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    n = len(ent)
    if not (len(snap) == len(reg) == len(lab) == Xm.shape[0] == n):
        raise ValueError("row arrays must all have the same length")
    if Xm.ndim != 2 or Xm.shape[1] != len(schema_t):
        raise ValueError(
            f"feature matrix shape {Xm.shape} does not match schema of {len(schema_t)} columns"
        )
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
    if validate and n > 0:
        _validate_dataset(ds)
    return ds


def _validate_dataset(ds: SnapshotDataset) -> None:
    ent, snap, lab = ds.entity_ids, ds.snapshot_ids, ds.labels
    for i in range(1, ds.n_rows):
        if ent[i] == ent[i - 1]:
            if snap[i] == snap[i - 1]:
                raise ValueError(
                    f"duplicate (entity, snapshot) pair: ({ent[i]!r}, {snap[i]!r})"
                )
            if lab[i] != lab[i - 1]:
                raise ValueError(
                    f"inconsistent label for entity {ent[i]!r}: "
                    f"{Label(int(lab[i - 1])).name} vs {Label(int(lab[i])).name}"
                )
    if len(set(ds.schema)) != len(ds.schema):
        raise ValueError("duplicate feature column names in schema")


def _classify_snapshot_id(token: str, line_no: int) -> str:
    if _INT_SNAPSHOT_RE.fullmatch(token):
        return "int"
    if _DATE_SNAPSHOT_RE.fullmatch(token):
        return "date"
    raise ValueError(
        f"line {line_no}: snapshot_id {token!r} is neither a non-negative "
        f"integer nor an ISO-8601 date (YYYY-MM-DD)"
    )


def parse_csv(path: str | Path) -> SnapshotDataset:
    """Parse a snapshot CSV into a :class:`SnapshotDataset`.

    Contract: header ``entity_id,snapshot_id,region,label,<f_...>...`` with at
    least one ``f_``-prefixed feature column; empty cells are missing feature
    values; ids are restricted to ``[A-Za-z0-9_|.:-]``; snapshot ids are all
    non-negative integers or all ISO-8601 dates, never mixed. Rows are
    returned in canonical order regardless of file order.

    Raises:
        ValueError: malformed header, bad id or label, non-finite or
            unparseable feature value (with row number), duplicate
            (entity, snapshot) pair, inconsistent label, mixed snapshot kinds.
        OSError: if the file cannot be read.
    """
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
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

        width = len(header)
        d = len(schema)
        ents: list[str] = []
        snaps: list[str] = []
        regs: list[str] = []
        labs: list[int] = []
        rows: list[np.ndarray] = []
        snapshot_kind: str | None = None
        for line_no, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(
                    f"{path}: line {line_no}: expected {width} fields, got {len(row)}"
                )
            ent, snap, reg, lab = row[0], row[1], row[2], row[3]
            if not _ID_RE.fullmatch(ent):
                raise ValueError(f"{path}: line {line_no}: invalid entity_id {ent!r}")
            if not _ID_RE.fullmatch(reg):
                raise ValueError(f"{path}: line {line_no}: invalid region {reg!r}")
            kind = _classify_snapshot_id(snap, line_no)
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
            rows.append(vec)

    if snapshot_kind is None:
        snapshot_kind = "int"
    X = np.vstack(rows) if rows else np.empty((0, d), dtype=np.float64)
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
        path, ds.n_rows, len(ds.entities), len(set(map(str, ds.snapshot_ids))), d,
    )
    return ds


def _format_value(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def write_csv(dataset: SnapshotDataset, path: str | Path) -> None:
    """Write ``dataset`` to ``path`` in the snapshot CSV contract.

    Floats are written with shortest round-trip repr so that
    ``parse_csv(write_csv(ds)) == ds`` field for field, including missing
    values.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(RESERVED_COLUMNS) + list(dataset.schema))
        labels = dataset.labels
        for i in range(dataset.n_rows):
            writer.writerow(
                [
                    str(dataset.entity_ids[i]),
                    str(dataset.snapshot_ids[i]),
                    str(dataset.regions[i]),
                    Label(int(labels[i])).name,
                ]
                + [_format_value(v) for v in dataset.X[i]]
            )


def entity_series(dataset: SnapshotDataset, entity_id: str) -> list[Sample]:
    """All samples of one entity in ascending snapshot order."""
    start, stop = dataset.entity_rows(entity_id)
    out: list[Sample] = []
    for i in range(start, stop):
        features = {
            name: (None if math.isnan(dataset.X[i, j]) else float(dataset.X[i, j]))
            for j, name in enumerate(dataset.schema)
        }
        out.append(
            Sample(
                entity_id=str(dataset.entity_ids[i]),
                snapshot_id=str(dataset.snapshot_ids[i]),
                region=str(dataset.regions[i]),
                label=Label(int(dataset.labels[i])),
                features=features,
            )
        )
    return out


def iter_entity_blocks(dataset: SnapshotDataset) -> Iterator[tuple[str, int, int]]:
    """Yield (entity_id, start, stop) for each entity block in canonical order."""
    for e, (start, stop) in dataset.index.items():
        yield e, start, stop


def latest_snapshot_view(dataset: SnapshotDataset) -> SnapshotDataset:
    """Keep only each entity's most recent snapshot row.

    Idempotent: applying it twice equals applying it once.
    """
    if dataset.n_rows == 0:
        return dataset
    keep = np.array([stop - 1 for _, _, stop in iter_entity_blocks(dataset)], dtype=np.int64)
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


def coverage_stats(dataset: SnapshotDataset) -> dict:
    """Per-feature presence fractions and the entity-level label distribution."""
    n = dataset.n_rows
    present = np.zeros(dataset.n_features, dtype=np.int64)
    if n:
        present = np.sum(~np.isnan(dataset.X), axis=0)
    coverage = {
        name: (float(present[j] / n) if n else 0.0)
        for j, name in enumerate(dataset.schema)
    }
    label_counts = {name: 0 for name in LABEL_NAMES}
    for e, start, _ in iter_entity_blocks(dataset):
        label_counts[Label(int(dataset.labels[start])).name] += 1
    n_ent = max(1, len(dataset.entities)) if n else 1
    distribution = {name: label_counts[name] / n_ent if n else 0.0 for name in LABEL_NAMES}
    return {
        "n_rows": n,
        "n_entities": len(dataset.entities) if n else 0,
        "n_snapshots": len(set(map(str, dataset.snapshot_ids))) if n else 0,
        "feature_coverage": coverage,
        "label_distribution": distribution,
    }
