"""Candidate plan enumeration and the collection-scan gating rule.

The optimizer only ever sees the plans produced here. The vanilla rule is
the important one: a collection scan joins the candidate set only when it
is explicitly hinted or no index-based plan exists, so with any usable
index the scan cannot win the race because it never runs. The
"with-collscan" variant always adds it; "mod" additionally changes scoring
(handled in the optimizer module).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .engine import Index, IndexCatalog, Query, RangePredicate, index_name_for, shape_key
from .errors import NoCandidatesError, UnknownPlanError


class OptimizerVariant(enum.Enum):
    VANILLA = "vanilla"
    WITH_COLLSCAN = "with-collscan"
    MOD = "mod"


class PlanKind(enum.Enum):
    COLLSCAN = "COLLSCAN"
    IXSCAN = "IXSCAN"
    IXSCAN_COVER = "IXSCAN_COVER"


@dataclass(frozen=True)
class PlanId:
    kind: PlanKind
    key_fields: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.kind is PlanKind.COLLSCAN:
            return "COLLSCAN"
        return "IXSCAN_" + "".join(self.key_fields)

    @property
    def index_name(self) -> str | None:
        if self.kind is PlanKind.COLLSCAN:
            return None
        return index_name_for(self.key_fields)


COLLSCAN_ID = PlanId(PlanKind.COLLSCAN)

# Stable string forms accepted in hints, reports and diagram legends.
KNOWN_PLAN_IDS = {
    "COLLSCAN": COLLSCAN_ID,
    "IXSCAN_A": PlanId(PlanKind.IXSCAN, ("A",)),
    "IXSCAN_B": PlanId(PlanKind.IXSCAN, ("B",)),
    "IXSCAN_AB": PlanId(PlanKind.IXSCAN_COVER, ("A", "B")),
}

# Canonical report/tie-break order for plan ids.
PLAN_ID_ORDER = ("COLLSCAN", "IXSCAN_A", "IXSCAN_B", "IXSCAN_AB")


def plan_order_key(plan_name: str) -> tuple[int, str]:
    try:
        return (PLAN_ID_ORDER.index(plan_name), plan_name)
    except ValueError:
        return (len(PLAN_ID_ORDER), plan_name)


# ---------------------------------------------------------------------------
# Stage tree. Plans here are straight pipelines, stored leaf-first in
# execution order.

@dataclass(frozen=True)
class CollScanStage:
    predicates: tuple[RangePredicate, ...]


@dataclass(frozen=True)
class IxScanStage:
    index_name: str
    field: str  # the bounded (leading) field
    low: int
    high: int


@dataclass(frozen=True)
class FetchStage:
    pass


@dataclass(frozen=True)
class FilterStage:
    predicate: RangePredicate


@dataclass(frozen=True)
class CandidatePlan:
    id: PlanId
    stages: tuple

    @property
    def has_fetch(self) -> bool:
        return any(isinstance(s, FetchStage) for s in self.stages)

    def __str__(self) -> str:
        return str(self.id)


def _ixscan_plan(query: Query, plan_id: PlanId) -> CandidatePlan:
    (field,) = plan_id.key_fields
    pred = query.predicate_on(field)
    other = next(p for p in query.predicates if p.field != field)
    stages = (
        IxScanStage(plan_id.index_name, field, pred.low, pred.high),
        FetchStage(),
        FilterStage(other),
    )
    return CandidatePlan(plan_id, stages)


def _cover_plan(query: Query, plan_id: PlanId) -> CandidatePlan:
    key_fields = plan_id.key_fields
    leading = key_fields[0]
    pred = query.predicate_on(leading)
    residuals = tuple(
        FilterStage(query.predicate_on(f))
        for f in key_fields[1:]
        if query.predicate_on(f) is not None
    )
    stages = (
        IxScanStage(plan_id.index_name, leading, pred.low, pred.high),
        *residuals,
    )
    return CandidatePlan(plan_id, stages)


def _collscan_plan(query: Query) -> CandidatePlan:
    return CandidatePlan(COLLSCAN_ID, (CollScanStage(tuple(query.predicates)),))


def _covers(query: Query, key_fields: tuple[str, ...]) -> bool:
    if query.projection is None or not query.projection.suppress_record_id:
        return False
    return set(query.projection.fields) <= set(key_fields)


def plan_for(query: Query, plan_id: PlanId) -> CandidatePlan:
    """The plan `plan_id` names, with the query's bounds."""
    if plan_id.kind is PlanKind.COLLSCAN:
        return _collscan_plan(query)
    if plan_id.kind is PlanKind.IXSCAN:
        return _ixscan_plan(query, plan_id)
    return _cover_plan(query, plan_id)


def _index_plans(query: Query, catalog: IndexCatalog) -> list[CandidatePlan]:
    """One plan per usable index, in catalog order."""
    query_fields = query.fields()
    index_plans: list[CandidatePlan] = []
    for ix in catalog.indexes:
        if ix.key_fields[0] not in query_fields:
            continue
        if len(ix.key_fields) == 1:
            index_plans.append(_ixscan_plan(query, PlanId(PlanKind.IXSCAN, ix.key_fields)))
        elif _covers(query, ix.key_fields):
            index_plans.append(_cover_plan(query, PlanId(PlanKind.IXSCAN_COVER, ix.key_fields)))
    return index_plans


def producible_plans(query: Query, catalog: IndexCatalog,
                     collscan_allowed: bool = True) -> dict[str, CandidatePlan]:
    """Every plan a hint can force on this query, by its stable string form.

    The plans do not depend on the query's hint, so one call serves every
    plan forced on the same predicates and projection.
    """
    producible = {str(p.id): p for p in _index_plans(query, catalog)}
    if collscan_allowed:
        producible["COLLSCAN"] = _collscan_plan(query)
    return producible


def hinted_plan(producible: dict[str, CandidatePlan], hint: PlanId) -> CandidatePlan:
    """The plan `hint` names among `producible`, or an UnknownPlanError."""
    chosen = producible.get(str(hint))
    if chosen is None:
        raise UnknownPlanError(
            f"hint {hint} names no producible plan; available: {sorted(producible)}")
    return chosen


def enumerate_candidates(query: Query, catalog: IndexCatalog,
                         variant: OptimizerVariant = OptimizerVariant.VANILLA,
                         collscan_allowed: bool = True) -> list[CandidatePlan]:
    """All plans the optimizer will race for this query, in catalog order.

    One plan per usable index (single-field indexes on a queried field;
    compound indexes whose leading field is queried and whose keys cover the
    projection), then COLLSCAN last when the gating rule lets it in. A hinted
    query yields exactly the hinted plan or an UnknownPlanError.
    """
    if query.hint is not None:
        return [hinted_plan(producible_plans(query, catalog, collscan_allowed), query.hint)]
    candidates = _index_plans(query, catalog)
    collscan_required = not candidates
    if collscan_allowed and (
        variant in (OptimizerVariant.WITH_COLLSCAN, OptimizerVariant.MOD) or collscan_required
    ):
        candidates.append(_collscan_plan(query))
    if not candidates:
        raise NoCandidatesError("no viable plan: no usable index and collection scan disallowed")
    return candidates


def parse_plan_hint(text: str) -> PlanId:
    """Map a stable plan string ("COLLSCAN", "IXSCAN_A", ...) to its PlanId."""
    try:
        return KNOWN_PLAN_IDS[text]
    except KeyError:
        valid = ", ".join(PLAN_ID_ORDER)
        raise UnknownPlanError(f"unknown plan {text!r}; valid forms: {valid}") from None


# ---------------------------------------------------------------------------
# Plans per query shape. Candidates and producible plans depend on a query's
# fields, projection and hint, never on its bounds, so every query of a
# sweep (one shape) has the same plans; only their ranges change.

@dataclass(frozen=True)
class ShapePlan:
    """One plan of a query shape, without the query's bounds.

    Bound to a query, its index scan takes its range from the query's
    predicate on `leading`, and each filter its bounds from the query's
    predicate on that field (see optimizer.bind_layout and bind_plans).
    """

    id: PlanId
    has_fetch: bool
    index: Index | None  # the access order; None is record_id order (COLLSCAN)
    leading: str | None  # the field the index scan's range is on
    filters: tuple[str, ...]  # the fields filtered, in stage order


def _shape_plan(plan: CandidatePlan, catalog: IndexCatalog) -> ShapePlan:
    first = plan.stages[0]
    if isinstance(first, CollScanStage):
        return ShapePlan(plan.id, plan.has_fetch, None, None,
                         tuple(p.field for p in first.predicates))
    return ShapePlan(plan.id, plan.has_fetch, catalog.by_name(first.index_name), first.field,
                     tuple(s.predicate.field for s in plan.stages if isinstance(s, FilterStage)))


def shape_candidates(query: Query, catalog: IndexCatalog,
                     variant: OptimizerVariant = OptimizerVariant.VANILLA,
                     collscan_allowed: bool = True) -> tuple[ShapePlan, ...]:
    """enumerate_candidates(query, catalog, variant, collscan_allowed),
    without the bounds.

    Enumerated for the first query of each shape, hint, variant and gate,
    and kept in catalog.shape_plans. A failed enumeration is not kept, so
    it fails again, with the same error, for every query of its shape.
    """
    key = ("candidates", shape_key(query), query.hint, variant, collscan_allowed)
    plans = catalog.shape_plans.get(key)
    if plans is None:
        plans = tuple(_shape_plan(p, catalog) for p in
                      enumerate_candidates(query, catalog, variant, collscan_allowed))
        catalog.shape_plans[key] = plans
    return plans


def shape_forced(query: Query, catalog: IndexCatalog,
                 forced: list[PlanId]) -> tuple[ShapePlan, ...]:
    """The plan hint forcing selects for each of `forced`, without the bounds.

    As hinted_plan on producible_plans(query, catalog): an UnknownPlanError
    for a plan the query's shape cannot produce. Kept like shape_candidates.
    """
    key = ("forced", shape_key(query), tuple(forced))
    plans = catalog.shape_plans.get(key)
    if plans is None:
        producible = producible_plans(query, catalog)
        plans = tuple(_shape_plan(hinted_plan(producible, plan_id), catalog)
                      for plan_id in forced)
        catalog.shape_plans[key] = plans
    return plans


def bind_plans(plans: tuple[ShapePlan, ...], query: Query) -> list[CandidatePlan]:
    """The shape plans with the query's bounds."""
    return [plan_for(query, p.id) for p in plans]
