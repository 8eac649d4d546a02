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
from dataclasses import dataclass

from .engine import Collection, Index, IndexCatalog
from .plans import CandidatePlan, FilterStage, PlanKind


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


@dataclass(frozen=True)
class PlanScan:
    """One plan's scan, described in closed form.

    The plan visits positions start..end-1 of an access order: index order
    for index plans, record_id order for COLLSCAN (index is None there, as a
    position is its own record id). A position matches when each filter
    (column in that access order, low, high) holds low <= value < high.
    Stepping and the closed-form race both read a plan's scan from here.
    """

    start: int
    end: int
    index: Index | None
    filters: tuple[tuple[list[int], int, int], ...]

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def rids(self) -> list[int] | None:
        """The record id at each position, or None for COLLSCAN.

        Only stepping reads it, as only emitted results need record ids.
        """
        return None if self.index is None else self.index.rids

    def mask(self, lo: int, hi: int) -> list[bool]:
        """Which of the scan's positions lo..hi-1 (counted from 0) match."""
        a, b = self.start + lo, self.start + hi
        if not self.filters:
            return [True] * (b - a)
        if len(self.filters) == 1:
            ((column, low, high),) = self.filters
            return [low <= v < high for v in column[a:b]]
        (col1, low1, high1), (col2, low2, high2) = self.filters
        return [low1 <= v < high1 and low2 <= w < high2
                for v, w in zip(col1[a:b], col2[a:b])]


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
        filters = tuple((collection.columns[p.field], p.low, p.high)
                        for p in plan.stages[0].predicates)
    else:
        # IXSCAN's residual reads the fetched document, a covered plan's reads
        # the index key; both values sit in the index-order column of that field
        filters = tuple((index.columns[s.predicate.field], s.predicate.low, s.predicate.high)
                        for s in plan.stages if isinstance(s, FilterStage))
    return PlanScan(start, end, index, filters)


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
        self._filters = scan.filters
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
    stepped protocol is enforced by tests; the harness uses this path so that
    measuring a plan is O(log N) instead of O(N). It reads only the index's
    leading column.
    """
    start, end, _ = _scan_bounds(plan, collection, catalog)
    k = end - start
    return k * step_time(plan.id.kind, cost), k + 1
