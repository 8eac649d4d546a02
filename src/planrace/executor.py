"""Plan execution under a unit-of-work protocol.

Every call to work() is one logical step as the optimizer counts it, while
sim_time is what the steps so far would really cost under the configured
cost model. The two deliberately diverge for index plans: examining an index
entry and fetching its document count as a single work unit but cost
c_idx + c_fetch time units, whereas a collection scan's step costs c_seq.
That gap is the entire story this package exists to measure.

Terminal convention: the work() call that discovers cursor exhaustion
returns EOF, counts as a work unit, and adds no time. After that the
execution is inert; further work() calls return EOF without state change.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field

from .engine import (
    Collection,
    Index,
    IndexCatalog,
    Query,
    bucket_column,
    rank_buckets,
)
from .plans import CandidatePlan, FilterStage, PlanKind, ShapePlan


class WorkState(enum.Enum):
    ADVANCED = "ADVANCED"
    NEED_TIME = "NEED_TIME"
    EOF = "EOF"


@dataclass(frozen=True)
class CostModel:
    """Time units charged per step, by access path.

    Defaults are calibrated so a collection scan overtakes a single-field
    index scan once the indexed range covers more than
    c_seq / (c_idx + c_fetch) = 20% of the documents.
    """

    c_seq: float = 1.0
    c_idx: float = 1.0
    c_fetch: float = 4.0

    def __post_init__(self):
        for name in ("c_seq", "c_idx", "c_fetch"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")

    def scaled(self, factor: float) -> "CostModel":
        return CostModel(self.c_seq * factor, self.c_idx * factor, self.c_fetch * factor)


@dataclass
class PlanScan:
    """One plan's scan, described in closed form.

    The plan visits positions start..end-1 of an access order: index order
    for index plans, record_id order for COLLSCAN (index is None there, as a
    position is its own record id). A position matches when each filter
    (field, low, high) holds low <= value < high for its record's value of
    that field. Stepping reads a plan's scan from here and compares each
    position's value (filter_columns); mask gives the same matches for a
    chunk of positions through match_mask, the closed-form race's kernel.
    """

    start: int
    end: int
    index: Index | None
    filters: tuple[tuple[str, int, int], ...]
    collection: Collection = field(repr=False, compare=False)
    catalog: IndexCatalog = field(repr=False, compare=False)
    _masking: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def rids(self) -> array | None:
        """The record id at each position, or None for COLLSCAN."""
        return None if self.index is None else self.index.rids

    def filter_columns(self) -> tuple[tuple[array, int, int], ...]:
        """(column in the access order, low, high) of each filter."""
        if self.index is None:
            columns = self.collection.columns
        else:
            # IXSCAN's residual reads the fetched document, a covered plan's
            # reads the index key; both values sit in the index-order column
            columns = self.index.columns
        return tuple((columns[f], low, high) for f, low, high in self.filters)

    def _mask_filters(self) -> list[tuple[bytes, bytes, array, int, int]]:
        """(bucket column, translate table, record_id-order column, low, high)
        of each filter, built on the first call."""
        if self._masking is None:
            self._masking = [(bucket_column(self.collection, f, self.index, self.catalog),
                              rank_buckets(self.collection, f, self.catalog).table(low, high),
                              self.collection.columns[f], low, high)
                             for f, low, high in self.filters]
        return self._masking

    def mask(self, lo: int, hi: int) -> bytes:
        """match_mask of the scan's positions lo..hi-1 (counted from 0)."""
        return match_mask(self._mask_filters(), self.rids, self.start + lo, self.start + hi)


def match_mask(filters, rids: array | None, a: int, b: int) -> bytes:
    """1 for each position a..b-1 of an access order that matches every
    filter, 0 for the others.

    A filter is (bucket column in the access order, translate table,
    record_id-order column, low, high). Its mask is the slice of its bucket
    column translated by its table (RankBuckets.table): a position in a
    bucket wholly inside or outside [low, high) is decided there, and only
    a position marked 2 has its value read, through rids (None for
    record_id order), and compared. The filters' masks are ANDed as
    integers.
    """
    out = None
    for buckets, table, column, low, high in filters:
        m = buckets[a:b].translate(table)
        k = m.find(2)
        if k >= 0:
            m = bytearray(m)
            while k >= 0:
                value = column[a + k] if rids is None else column[rids[a + k]]
                m[k] = low <= value < high
                k = m.find(2, k + 1)
        if out is None:
            out = m
        else:
            out = (int.from_bytes(out, "little") & int.from_bytes(m, "little")).to_bytes(
                b - a, "little")
    return b"\1" * (b - a) if out is None else out


def _scan_bounds(plan: CandidatePlan, collection: Collection,
                 catalog: IndexCatalog) -> tuple[int, int, Index | None]:
    """(start, end, index) of a plan's scan; index is None for COLLSCAN."""
    if plan.id.kind is PlanKind.COLLSCAN:
        return 0, len(collection), None
    scan = plan.stages[0]
    index = catalog.by_name(scan.index_name)
    start, end = index.range_positions(scan.low, scan.high)
    return start, end, index


def plan_scan(plan: CandidatePlan, collection: Collection, catalog: IndexCatalog) -> PlanScan:
    """The positions a plan scans and the filters it applies to each."""
    start, end, index = _scan_bounds(plan, collection, catalog)
    if index is None:
        predicates = plan.stages[0].predicates
    else:
        predicates = [s.predicate for s in plan.stages if isinstance(s, FilterStage)]
    filters = tuple((p.field, p.low, p.high) for p in predicates)
    return PlanScan(start, end, index, filters, collection, catalog)


def shape_ranges(plans: tuple[ShapePlan, ...], query: Query, n_records: int,
                 positions: tuple[int, ...] | None = None) -> list[tuple[int, int]]:
    """(start, end) of each shape plan's scan for the query's bounds.

    Two bisects per leading field serve every plan whose index leads on
    it, as such indexes share their sorted leading column's values.
    `positions`, when given, are those bisects' results already: the
    (start, end) of each of the query's predicates in that column, in the
    query's predicate order (count_column gives the same positions).
    """
    spans: dict[str, tuple[int, int]] = {}
    if positions is not None:
        ends = iter(positions)
        spans = {p.field: (start, end) for p, start, end in zip(query.predicates, ends, ends)}
    ranges = []
    for plan in plans:
        f = plan.leading
        if f is None:
            ranges.append((0, n_records))
            continue
        span = spans.get(f)
        if span is None:
            pred = query.predicate_on(f)
            span = spans[f] = plan.index.range_positions(pred.low, pred.high)
        ranges.append(span)
    return ranges


def step_time(kind: PlanKind, cost: CostModel) -> float:
    """Simulated time of one non-terminal work() step of a plan of this kind."""
    if kind is PlanKind.COLLSCAN:
        return cost.c_seq
    if kind is PlanKind.IXSCAN:
        return cost.c_idx + cost.c_fetch
    return cost.c_idx


class PlanExecution:
    """Single-owner mutable cursor state for one plan over one collection."""

    def __init__(self, plan: CandidatePlan, collection: Collection,
                 catalog: IndexCatalog, cost: CostModel):
        self.plan = plan
        self.collection = collection
        self.cost = cost
        self.works = 0
        self.results = 0
        self.eof = False
        self.emitted: list[int] = []

        scan = plan_scan(plan, collection, catalog)
        self._start = self._pos = scan.start
        self._end = scan.end
        self._rids = scan.rids
        self._filters = scan.filter_columns()
        self._step_time = step_time(plan.id.kind, cost)

    @property
    def sim_time(self) -> float:
        """Simulated time so far: the step time per non-terminal step taken.

        Multiplied rather than summed per step, so that a full run's time
        equals plan_cost_totals' exactly for any cost model.
        """
        return (self._pos - self._start) * self._step_time

    def work(self) -> WorkState:
        if self.eof:
            return WorkState.EOF
        self.works += 1
        pos = self._pos
        if pos >= self._end:
            self.eof = True
            return WorkState.EOF
        self._pos = pos + 1
        for column, low, high in self._filters:
            if not (low <= column[pos] < high):
                return WorkState.NEED_TIME
        self.results += 1
        self.emitted.append(pos if self._rids is None else self._rids[pos])
        return WorkState.ADVANCED


def run_to_completion(execution: PlanExecution) -> tuple[set[int], float, int]:
    """Step work() until EOF; returns (result record ids, sim_time, works).

    Works on fresh executions and on partially-worked ones left over from a
    race, continuing from the current cursor.
    """
    while not execution.eof:
        execution.work()
    return set(execution.emitted), execution.sim_time, execution.works


def plan_cost_totals(plan: CandidatePlan, collection: Collection,
                     catalog: IndexCatalog, cost: CostModel) -> tuple[float, int]:
    """(sim_time, works) of a full fresh run, in closed form.

    COLLSCAN touches every document once; an index plan touches exactly the
    entries inside its bounds, plus one terminal step each. Equality with the
    stepped protocol is enforced by tests. It is the reference for
    measure_grid's scan length x step_time from each cell's positions,
    and explain prints it. It reads only the index's leading column.
    """
    start, end, _ = _scan_bounds(plan, collection, catalog)
    k = end - start
    return k * step_time(plan.id.kind, cost), k + 1
