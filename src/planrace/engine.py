"""Columnar storage: collections, secondary indexes, dataset generation and I/O.

A collection is an immutable, in-memory set of documents with dense record
ids (0..N-1), stored as one integer column per field in record_id order;
that order models on-disk sequential scan order. An index is the same
columns permuted into (key tuple, record_id) order, plus the record ids in
that order, so a range scan is a contiguous slice found by binary search on
the leading key's column.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import eq, ne
from pathlib import Path

from .errors import DatasetFormatError, EmptyCollectionError, UnknownFieldError

DISTRIBUTIONS = ("uniform-distinct", "uniform-with-repeats", "zipfian")


@dataclass
class Collection:
    """One integer column per field, each in record_id order; dict order is field order."""

    name: str
    columns: dict[str, list[int]]
    _sorted_values: dict[str, list[int]] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def field_list(self) -> list[str]:
        return list(self.columns)

    def sorted_values(self, field_name: str) -> list[int]:
        """Sorted copy of one field's column, built once (collections are immutable)."""
        if field_name not in self.columns:
            raise UnknownFieldError(f"collection has no field {field_name!r}")
        cached = self._sorted_values.get(field_name)
        if cached is None:
            cached = sorted(self.columns[field_name])
            self._sorted_values[field_name] = cached
        return cached

    def value_bounds(self, field_name: str) -> tuple[int, int]:
        """Smallest and largest value stored for a field."""
        if field_name not in self.columns:
            raise UnknownFieldError(f"collection has no field {field_name!r}")
        column = self.columns[field_name]
        return min(column), max(column)


@dataclass
class Index:
    """Sorted secondary index stored as columns in index order.

    rids[k] is the record id of the k-th entry and columns[f][k] its value of
    field f, for every field of the collection (not only the key fields), so
    a scan reads any field of an entry without a fetch by record id. Entries
    are ordered by the key fields, then by record id. Indexes are never
    modified, so two indexes in the same order may share these lists.
    """

    name: str
    key_fields: tuple[str, ...]
    rids: list[int]
    columns: dict[str, list[int]]
    # the leading key's column, which is sorted: the binary-search array
    _leading: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self._leading = self.columns[self.key_fields[0]]

    def range_positions(self, low: int, high: int) -> tuple[int, int]:
        """Entry positions [lo, hi) whose leading key lies in [low, high)."""
        return bisect_left(self._leading, low), bisect_left(self._leading, high)


@dataclass
class IndexCatalog:
    """Indexes in creation order; order is the downstream tie-break."""

    indexes: list[Index] = field(default_factory=list)

    def add(self, index: Index) -> None:
        if any(ix.name == index.name for ix in self.indexes):
            raise ValueError(f"duplicate index name {index.name!r}")
        self.indexes.append(index)

    def by_name(self, name: str) -> Index:
        for ix in self.indexes:
            if ix.name == name:
                return ix
        raise KeyError(name)

    def single_field_index(self, field_name: str) -> Index | None:
        for ix in self.indexes:
            if ix.key_fields == (field_name,):
                return ix
        return None


@dataclass(frozen=True)
class RangePredicate:
    """Half-open range low <= value < high on one field."""

    field: str
    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"range low {self.low} > high {self.high}")

    def matches(self, value: int) -> bool:
        return self.low <= value < self.high


@dataclass(frozen=True)
class Projection:
    fields: tuple[str, ...]
    suppress_record_id: bool = True

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(sorted(self.fields)))


@dataclass(frozen=True)
class Query:
    """Conjunction of two range predicates, optional projection and hint."""

    predicates: tuple[RangePredicate, RangePredicate]
    projection: Projection | None = None
    hint: object | None = None  # a plans.PlanId when set

    def __post_init__(self):
        names = [p.field for p in self.predicates]
        if len(set(names)) != len(names):
            raise ValueError("predicate fields must be distinct")

    def predicate_on(self, field_name: str) -> RangePredicate | None:
        for p in self.predicates:
            if p.field == field_name:
                return p
        return None

    def fields(self) -> set[str]:
        return {p.field for p in self.predicates}


def query_shape(query: Query) -> str:
    """Canonical shape string: structure only, constants elided.

    Two queries differing only in range bounds share a shape; this is the
    plan-cache key.
    """
    preds = ",".join(f"{p.field}:range" for p in sorted(query.predicates, key=lambda p: p.field))
    if query.projection is None:
        proj = "-"
    else:
        rid = "no_rid" if query.projection.suppress_record_id else "rid"
        proj = ",".join(query.projection.fields) + ";" + rid
    return f"find({preds})|proj({proj})|sort()"


def generate_dataset(n: int, distribution: str = "uniform-distinct", seed: int = 0) -> Collection:
    """Build an n-document collection with integer fields A and B.

    uniform-distinct assigns each field an independent random permutation of
    0..n-1, so every value occurs exactly once per field and range counts are
    exact. The other modes draw with repetition and carry no exactness
    guarantees. Deterministic for a fixed (n, distribution, seed).
    """
    if n < 1:
        raise EmptyCollectionError("cannot generate an empty collection (n must be >= 1)")
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")
    rng = random.Random(seed)
    columns = {}
    for field_name in ("A", "B"):
        if distribution == "uniform-distinct":
            values = list(range(n))
            rng.shuffle(values)
        elif distribution == "uniform-with-repeats":
            values = [rng.randrange(n) for _ in range(n)]
        else:  # zipfian, exponent 1.2 over ranks 1..n mapped onto values 0..n-1
            weights = [1.0 / (rank**1.2) for rank in range(1, n + 1)]
            values = rng.choices(range(n), weights=weights, k=n)
        columns[field_name] = values
    return Collection(name=f"gen_{distribution}_{n}_{seed}", columns=columns)


def index_name_for(key_fields: tuple[str, ...]) -> str:
    return "_".join(f"{f}_1" for f in key_fields)


def build_index(collection: Collection, key_fields,
                catalog: IndexCatalog | None = None) -> Index:
    """Order record ids by (key tuple, record_id); name like "A_1_B_1".

    Stable sorts by the last key first give exactly the order of sorting
    (key tuple, record_id) pairs, without building a tuple per document.
    When `catalog` holds the single-field index on a compound key's leading
    field, the compound index is derived from it instead (see
    _extend_leading_index).
    """
    key_fields = tuple(key_fields)
    for f in key_fields:
        if f not in collection.columns:
            raise UnknownFieldError(f"cannot index unknown field {f!r}")
    name = index_name_for(key_fields)
    if catalog is not None and len(key_fields) > 1:
        leading = catalog.single_field_index(key_fields[0])
        if leading is not None:
            return _extend_leading_index(collection, name, key_fields, leading)
    rids = list(range(len(collection)))
    for f in reversed(key_fields):
        rids.sort(key=collection.columns[f].__getitem__)
    columns = {f: [column[rid] for rid in rids] for f, column in collection.columns.items()}
    return Index(name=name, key_fields=key_fields, rids=rids, columns=columns)


def _extend_leading_index(collection: Collection, name: str, key_fields: tuple[str, ...],
                          leading: Index) -> Index:
    """The compound index on key_fields, from the index on key_fields[0] alone.

    That index is in (leading key, record_id) order, so only each run of
    equal leading keys needs re-sorting by the other keys, stably, which
    keeps record_id as the last tie-break. Without such a run the order is
    already final, and the new index shares the leading index's lists.
    """
    lead = leading.columns[key_fields[0]]
    if not any(map(eq, lead, islice(lead, 1, None))):
        return Index(name=name, key_fields=key_fields, rids=leading.rids,
                     columns=dict(leading.columns))
    # positions k >= 1 that start a new leading key
    starts = list(compress(range(1, len(lead)), map(ne, lead, islice(lead, 1, None))))
    rids = list(leading.rids)
    rest = [collection.columns[f].__getitem__ for f in reversed(key_fields[1:])]
    for a, b in zip([0] + starts, starts + [len(lead)]):
        if b - a > 1:
            run = rids[a:b]
            for key in rest:
                run.sort(key=key)
            rids[a:b] = run
    columns = {f: lead if f == key_fields[0] else [column[rid] for rid in rids]
               for f, column in collection.columns.items()}
    return Index(name=name, key_fields=key_fields, rids=rids, columns=columns)


def selectivity(collection: Collection, predicate: RangePredicate,
                catalog: IndexCatalog | None = None) -> float:
    """Exact fraction of documents matching the predicate.

    Counts through a single-field index on the predicate's field when one is
    available, otherwise scans.
    """
    count = match_count(collection, predicate, catalog)
    return count / len(collection)


def count_column(collection: Collection, field_name: str,
                 catalog: IndexCatalog | None = None) -> list[int]:
    """The sorted values of one field that range counts bisect.

    That is the leading column of the catalog's single-field index on the
    field when there is one, otherwise the collection's sorted copy.
    """
    if field_name not in collection.columns:
        raise UnknownFieldError(f"collection has no field {field_name!r}")
    if catalog is not None:
        ix = catalog.single_field_index(field_name)
        if ix is not None:
            return ix.columns[field_name]
    return collection.sorted_values(field_name)


def match_count(collection: Collection, predicate: RangePredicate,
                catalog: IndexCatalog | None = None) -> int:
    values = count_column(collection, predicate.field, catalog)
    return bisect_left(values, predicate.high) - bisect_left(values, predicate.low)


def save_dataset(collection: Collection, path) -> None:
    """Write the collection as UTF-8 CSV: header record_id,<fields>, LF endings."""
    path = Path(path)
    header = ",".join(["record_id"] + collection.field_list)
    rows = zip(range(len(collection)), *collection.columns.values())
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_dataset(path) -> Collection:
    """Read a dataset file written by save_dataset; strict about the format."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError(path, 1, "empty file")
    header = lines[0].split(",")
    if header[:1] != ["record_id"] or len(header) < 2:
        raise DatasetFormatError(path, 1, f"bad header {lines[0]!r} (expected record_id,<fields>)")
    if len(set(header)) != len(header):
        raise DatasetFormatError(path, 1, f"duplicate field name in header {lines[0]!r}")
    field_list = header[1:]
    width = len(header)
    # row-major values of every row, record_id included; sliced into columns below
    flat: list[int] = []
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise DatasetFormatError(
                path, line_no, f"expected {width} columns, found {len(parts)}")
        try:
            values = list(map(int, parts))
        except ValueError:
            raise DatasetFormatError(path, line_no, f"non-integer value in {line!r}") from None
        rid = values[0]
        if rid != line_no - 2:
            raise DatasetFormatError(
                path, line_no, f"record_id {rid} out of order (expected {line_no - 2})")
        flat += values
    if not flat:
        raise DatasetFormatError(path, 1, "no documents")
    columns = {f: flat[k::width] for k, f in enumerate(field_list, start=1)}
    return Collection(name=path.stem, columns=columns)
