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

This module is the stepped reference: the cost model, each plan kind's step
time (step_time), PlanExecution's work() and the closed-form totals of a
full run (plan_cost_totals), which tests hold equal to stepping it. The
race's closed form, over rank-bucket columns, is the optimizer's.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .engine import Collection, IndexCatalog
from .plans import CandidatePlan, PlanKind


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


def step_time(kind: PlanKind, cost: CostModel) -> float:
    """Simulated time of one non-terminal work() step of a plan of this kind."""
    if kind is PlanKind.COLLSCAN:
        return cost.c_seq
    if kind is PlanKind.IXSCAN:
        return cost.c_idx + cost.c_fetch
    return cost.c_idx


class PlanExecution:
    """Single-owner mutable cursor state for one plan over one collection.

    The plan visits positions start..end-1 of its access order: its index's
    entries within the query's range on the leading field, or every record
    in record_id order for COLLSCAN. A position matches when its record's
    value of each filtered field, read from the collection's column at the
    position's record id, lies in the query's range on that field. The plan
    carries its index, so the catalog is not read.
    """

    def __init__(self, plan: CandidatePlan, collection: Collection,
                 catalog: IndexCatalog, cost: CostModel):
        self.plan = plan
        self.collection = collection
        self.cost = cost
        self.works = 0
        self.results = 0
        self.eof = False
        self.emitted: list[int] = []

        shape, query = plan.plan, plan.query
        index = shape.index
        if index is None:
            start, end = 0, len(collection)
            self._rids = None
        else:
            pred = query.predicate_on(shape.leading)
            start, end = index.range_positions(pred.low, pred.high)
            # IXSCAN's filter reads the fetched document, a covered plan's
            # reads the index key; both hold the record's own value
            self._rids = index.rids
        self._start = self._pos = start
        self._end = end
        self._filters = tuple((collection.columns[p.field], p.low, p.high)
                              for p in map(query.predicate_on, shape.filters))
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
        rid = pos if self._rids is None else self._rids[pos]
        for column, low, high in self._filters:
            if not (low <= column[rid] < high):
                return WorkState.NEED_TIME
        self.results += 1
        self.emitted.append(rid)
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
    and explain prints it. It reads only the index's key_values, through
    Index.range_positions as PlanExecution does.
    """
    index = plan.plan.index
    if index is None:
        k = len(collection)
    else:
        pred = plan.query.predicate_on(plan.plan.leading)
        start, end = index.range_positions(pred.low, pred.high)
        k = end - start
    return k * step_time(plan.id.kind, cost), k + 1
