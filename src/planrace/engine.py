"""Columnar storage: collections, secondary indexes, dataset generation and I/O.

A collection is an immutable, in-memory set of documents with dense record
ids (0..N-1), stored as one int64 array per field in record_id order; that
order models on-disk sequential scan order. The collection also keeps, per
field and built on first use, the field's values in sorted order
(sorted_values), which a range's positions bisect (positions), and the
record ids in (value, record_id) order (order). An index is a view on
them: its leading key's sorted values and its record ids in (key tuple,
record_id) order, so a range scan is a contiguous slice found by binary
search on the sorted values, and each entry's field values are read from
the collection's columns through its record id. A run that only counts
ranges never builds an order. Collection.sort_fields builds either for two
fields at once, the second in a forked worker where that pays
(workers.forked). Every column, sorted copy and record id order is an
array('q'): 8 bytes per value, where a list of ints holds an 8-byte
reference and a 32-byte int object. The race masks each access order
through columns of rank-bucket numbers, which its layout scatters from the
fields' orders (optimizer.RaceLayout).

Dataset files are read in blocks of whole lines; a block in save_dataset's
own form is checked and converted by a few passes in C, any other block
line by line.
"""

from __future__ import annotations

import random
import re
from array import array
from bisect import bisect_left
from contextlib import closing
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import eq, ne
from pathlib import Path

from . import workers
from .errors import (
    DatasetFormatError,
    EmptyCollectionError,
    PlanraceError,
    UnknownFieldError,
)

DISTRIBUTIONS = ("uniform-distinct", "uniform-with-repeats", "zipfian")

# Below this many documents a collection sorts all its fields here: on a 2-core
# host a sort worker breaks even at about 20,000, and takes a third off at 50,000.
SORT_WORKER_MIN = 50_000

# The values an int64 column holds (MongoDB's NumberLong range).
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def _sorted_bytes(sort, field_name: str) -> bytes:
    """A sort worker's result: the raw bytes of sort(field_name)'s array."""
    return sort(field_name).tobytes()


def _int64_column(field_name: str, values) -> array:
    """The values as an array('q'); an array('q') is kept as it is."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    try:
        return array("q", values)
    except OverflowError:
        raise PlanraceError(f"field {field_name!r} holds a value outside the int64 range "
                            f"[{INT64_MIN}, {INT64_MAX}]") from None


@dataclass
class Collection:
    """One int64 column per field, each in record_id order; dict order is field order.

    Columns given as other sequences of ints are converted to array('q').
    What is derived from a field's column (sorted values, order) is built
    on first use and kept: collections are immutable, and two with equal
    columns and name compare equal whatever each has built.
    """

    name: str
    columns: dict[str, array]
    _sorted_values: dict[str, array] = field(default_factory=dict, repr=False, compare=False)
    _orders: dict[str, array] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.columns = {f: _int64_column(f, values) for f, values in self.columns.items()}

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def field_list(self) -> list[str]:
        return list(self.columns)

    def column(self, field_name: str) -> array:
        """One field's column, or an UnknownFieldError."""
        try:
            return self.columns[field_name]
        except KeyError:
            raise UnknownFieldError(f"collection has no field {field_name!r}") from None

    def sorted_values(self, field_name: str) -> array:
        """Sorted copy of one field's column."""
        cached = self._sorted_values.get(field_name)
        if cached is None:
            cached = self._sorted_values[field_name] = array("q", sorted(self.column(field_name)))
        return cached

    def sort_fields(self, fields, orders: bool) -> None:
        """Build the fields' sorted values, or with `orders` their orders,
        where not built yet (a field the collection lacks fails where used).
        With two to build, SORT_WORKER_MIN documents and a worker that can
        overlap (workers.can_overlap), a forked one sorts the second, and its
        array's raw bytes are kept once their length is checked, while this
        process sorts the first; else both sort here. The worker is the race
        layout's order worker with `orders`, else the catalog's sort worker."""
        sort, built, worker = (
            (self.order, self._orders, "the race layout's order worker") if orders else
            (self.sorted_values, self._sorted_values, "the catalog's sort worker"))
        todo = [f for f in dict.fromkeys(fields) if f in self.columns and f not in built]
        second = (len(todo) > 1 and len(self) >= SORT_WORKER_MIN and workers.can_overlap()
                  and workers.forked(_sorted_bytes, (sort, todo[1]), worker))
        if second:
            with closing(second):
                sort(todo[0])
                kept = array("q", second.result())
            if len(kept) != len(self):
                raise PlanraceError(f"{worker} sent {len(kept)} values for field "
                                    f"{todo[1]!r} of {len(self)} documents")
            built[todo[1]] = kept
        for f in todo:
            sort(f)

    def order(self, field_name: str) -> array:
        """Record ids in (value, record_id) order: order[k] is the record id
        of sorted_values(field_name)[k].

        A stable sort of the record ids by the field's values, so equal
        values keep record_id order.
        """
        cached = self._orders.get(field_name)
        if cached is None:
            rids = list(range(len(self)))
            rids.sort(key=self.column(field_name).__getitem__)
            cached = self._orders[field_name] = array("q", rids)
        return cached

    def positions(self, predicate: RangePredicate) -> tuple[int, int]:
        """The bisect_left positions (start, end) of the predicate's low and
        high in its field's sorted values: its matches are ranks start..end-1."""
        values = self.sorted_values(predicate.field)
        return bisect_left(values, predicate.low), bisect_left(values, predicate.high)


class Index:
    """Sorted secondary index: a view on its collection's key_values and rids.

    Entries are ordered by the key fields, then by record id. rids[k] is
    the record id of the k-th entry and key_values[k] its value of the
    leading key field; key_values is what range counts and range_positions
    bisect. Any field of an entry, the other key fields included, is read
    from the collection's column at its record id.

    key_values is the leading field's Collection.sorted_values. rids is
    built the first time it is read: a run that never scans an index, such
    as one that reuses a primed plan, never builds it. The closed-form race
    (optimizer.RaceLayout) and a stepped plan (PlanExecution) both read the
    collection's columns through rids.
    """

    def __init__(self, name: str, key_fields: tuple[str, ...], collection: Collection):
        self.name = name
        self.key_fields = key_fields
        self.key_values = collection.sorted_values(key_fields[0])
        self._collection = collection
        self._rids: array | None = None

    def __repr__(self) -> str:
        return f"Index(name={self.name!r}, key_fields={self.key_fields!r})"

    @property
    def rids(self) -> array:
        if self._rids is None:
            self._rids = self._order()
        return self._rids

    def _order(self) -> array:
        """Record ids in (key tuple, record_id) order.

        That is the leading field's order (Collection.order), with each run
        of equal leading keys re-sorted by the other keys, last key first;
        the sorts are stable, which keeps record_id as the last tie-break.
        Without other keys or such a run, the index shares the field's
        order.
        """
        lead = self.key_values
        order = self._collection.order(self.key_fields[0])
        if len(self.key_fields) == 1 or not any(map(eq, lead, islice(lead, 1, None))):
            return order
        # positions k >= 1 that start a new leading key
        starts = list(compress(range(1, len(lead)), map(ne, lead, islice(lead, 1, None))))
        rids = array("q", order)
        columns = self._collection.columns
        rest = [columns[f].__getitem__ for f in reversed(self.key_fields[1:])]
        for a, b in zip([0] + starts, starts + [len(lead)]):
            if b - a > 1:
                run = rids[a:b].tolist()
                for key in rest:
                    run.sort(key=key)
                rids[a:b] = array("q", run)
        return rids

    def range_positions(self, low: int, high: int) -> tuple[int, int]:
        """Entry positions [lo, hi) whose leading key lies in [low, high)."""
        return bisect_left(self.key_values, low), bisect_left(self.key_values, high)


@dataclass(frozen=True)
class IndexCatalog:
    """Indexes in creation order, fixed when the catalog is built; order is
    the downstream tie-break.

    shape_plans holds the race layout of each query shape raced in this
    catalog (optimizer.race_layout). The indexes are a tuple, so those
    layouts never go stale.
    """

    indexes: tuple[Index, ...] = ()
    shape_plans: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "indexes", tuple(self.indexes))
        names = [ix.name for ix in self.indexes]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ValueError(f"duplicate index name {name!r}")


@dataclass(frozen=True)
class RangePredicate:
    """Half-open range low <= value < high on one field."""

    field: str
    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"range low {self.low} > high {self.high}")


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


def query_shape(query: Query) -> tuple:
    """The plan-cache key: the query's predicate fields, sorted, and its
    projection.

    Two queries differing only in range bounds, or in the order of their
    predicates, share a shape; the plans of a shape look each range up by
    its field, and its filters are ANDed.
    """
    return (*sorted([p.field for p in query.predicates]), query.projection)


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


def build_index(collection: Collection, key_fields) -> Index:
    """The index on key_fields, named like "A_1_B_1" (see Index)."""
    key_fields = tuple(key_fields)
    for f in key_fields:
        if f not in collection.columns:
            raise UnknownFieldError(f"cannot index unknown field {f!r}")
    return Index(index_name_for(key_fields), key_fields, collection)


def selectivity(collection: Collection, predicate: RangePredicate) -> float:
    """Exact fraction of documents matching the predicate (match_count)."""
    return match_count(collection, predicate) / len(collection)


def match_count(collection: Collection, predicate: RangePredicate) -> int:
    """Documents matching the predicate: the difference of its positions."""
    start, end = collection.positions(predicate)
    return end - start


def save_dataset(collection: Collection, path) -> None:
    """Write the collection as UTF-8 CSV: header record_id,<fields>, LF endings."""
    path = Path(path)
    header = ",".join(["record_id"] + collection.field_list)
    rows = zip(range(len(collection)), *collection.columns.values())
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# Characters of whole lines that load_dataset reads, checks and converts at once.
LOAD_BLOCK_CHARS = 1 << 16

# The one form of an integer in a dataset file.
_INTEGER = re.compile(r"-?[0-9]+")
# What int() reads in ASCII text besides that form: a "+" sign, underscores
# between digits, and white space around the number.
_INT_EXTRAS = "+_" + "".join(c for c in map(chr, range(128)) if c.isspace() and c != "\n")


def load_dataset(path) -> Collection:
    """Read a dataset file written by save_dataset; strict about the format.

    The rows are read in blocks of about LOAD_BLOCK_CHARS characters of
    whole lines. A block in save_dataset's own form is converted by
    _block_columns; any other block goes to _parse_lines, the one definition
    of a valid line, which raises the error or accepts the block.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as file:
        header_line = file.readline()
        if not header_line:
            raise DatasetFormatError(path, 1, "empty file")
        header_line = header_line.rstrip("\n")
        header = header_line.split(",")
        if header[:1] != ["record_id"] or len(header) < 2:
            raise DatasetFormatError(
                path, 1, f"bad header {header_line!r} (expected record_id,<fields>)")
        if len(set(header)) != len(header):
            raise DatasetFormatError(path, 1, f"duplicate field name in header {header_line!r}")
        field_list = header[1:]
        width = len(header)
        columns = [array("q") for _ in field_list]
        rows = 0
        while block := file.readlines(LOAD_BLOCK_CHARS):
            values = _block_columns(block, rows, width)
            if values is None:
                values = _parse_lines(path, [line.rstrip("\n") for line in block], rows, width)
            for column, more in zip(columns, values):
                column += more
            rows += len(block)
    if not rows:
        raise DatasetFormatError(path, 1, "no documents")
    return Collection(name=path.stem, columns=dict(zip(field_list, columns)))


def _block_columns(lines: list[str], first_row: int, width: int) -> list[array] | None:
    """The field columns of lines in save_dataset's own form, else None.

    `lines` are whole lines of rows first_row, first_row + 1, ..., each
    ending in a newline but the file's last one. They are in that form when
    every line has width - 1 commas, the text is ASCII without anything
    else int() reads (_INT_EXTRAS), every record id reads exactly str(row),
    and every field parses with int into the int64 range: _parse_lines
    would then accept them and return the same values.
    """
    if list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines):
        return None
    text = "".join(lines)
    if not text.isascii() or any(c in text for c in _INT_EXTRAS):
        return None
    if text.endswith("\n"):
        text = text[:-1]
    parts = text.replace("\n", ",").split(",")
    if parts[::width] != list(map(str, range(first_row, first_row + len(lines)))):
        return None
    try:
        return [array("q", list(map(int, parts[k::width]))) for k in range(1, width)]
    except (ValueError, OverflowError):
        return None


def _parse_lines(path: Path, lines: list[str], first_row: int,
                 width: int) -> list[array]:
    """The field columns of rows first_row, first_row + 1, ..., line by line.

    A valid line has `width` comma-separated integers, the first of which
    is its row's record id and the others in the int64 range. An integer is
    ASCII digits with an optional leading `-`.
    """
    columns: list[list[int]] = [[] for _ in range(width - 1)]
    for line_no, line in enumerate(lines, start=first_row + 2):
        parts = line.split(",")
        if len(parts) != width:
            raise DatasetFormatError(
                path, line_no, f"expected {width} columns, found {len(parts)}")
        if not all(map(_INTEGER.fullmatch, parts)):
            raise DatasetFormatError(path, line_no, f"non-integer value in {line!r}")
        values = list(map(int, parts))
        rid = values[0]
        if rid != line_no - 2:
            raise DatasetFormatError(
                path, line_no, f"record_id {rid} out of order (expected {line_no - 2})")
        for column, value in zip(columns, values[1:]):
            if not INT64_MIN <= value <= INT64_MAX:
                raise DatasetFormatError(path, line_no, f"value {value} outside the int64 range "
                                                        f"[{INT64_MIN}, {INT64_MAX}]")
            column.append(value)
    return [array("q", column) for column in columns]
