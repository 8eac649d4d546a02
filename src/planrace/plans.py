"""Candidate plan enumeration and the collection-scan gating rule.

The optimizer only ever sees the plans produced here. The vanilla rule is
the important one: a collection scan joins the candidate set only when it
is explicitly hinted or no index-based plan exists, so with any usable
index the scan cannot win the race because it never runs. The
"with-collscan" variant always adds it; "mod" additionally changes scoring
(handled in the optimizer module).

A plan is a description: its id, the kind and key fields of the index it
scans (PlanId), and the fields it filters on. The collection keeps the
access order it scans (Collection.order).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .engine import IndexCatalog, Query
from .errors import UnknownPlanError


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


COLLSCAN_ID = PlanId(PlanKind.COLLSCAN)

# Stable string forms accepted in hints, reports and diagram legends.
KNOWN_PLAN_IDS = {
    "COLLSCAN": COLLSCAN_ID,
    "IXSCAN_A": PlanId(PlanKind.IXSCAN, ("A",)),
    "IXSCAN_B": PlanId(PlanKind.IXSCAN, ("B",)),
    "IXSCAN_AB": PlanId(PlanKind.IXSCAN_COVER, ("A", "B")),
}

# Canonical report/tie-break order for plan ids.
PLAN_ID_ORDER = tuple(KNOWN_PLAN_IDS)


def plan_order_key(plan_name: str) -> tuple[int, str]:
    try:
        return (PLAN_ID_ORDER.index(plan_name), plan_name)
    except ValueError:
        return (len(PLAN_ID_ORDER), plan_name)


# ---------------------------------------------------------------------------
# Plans per query shape. Candidates and producible plans depend on a query's
# shape (query_shape) and hint, never on its bounds or the order of its
# predicates, so every query of a sweep (one shape) has the same plans; only
# their ranges change.

@dataclass(frozen=True)
class ShapePlan:
    """One plan of a query shape, without the query's bounds.

    The plan scans the access order of its id's key fields
    (Collection.order; record_id order for COLLSCAN, which has none) over
    the range of the query's predicate on `leading` (every record for
    COLLSCAN), and keeps the positions whose values of each of `filters`
    lie in the query's range on that field.
    """

    id: PlanId
    filters: tuple[str, ...]

    @property
    def leading(self) -> str | None:
        """The field whose range the plan scans; None for COLLSCAN."""
        return self.id.key_fields[0] if self.id.key_fields else None

    @property
    def has_fetch(self) -> bool:
        """Only a single-field index scan fetches each entry's document for
        its filter; a covered scan filters on the index key."""
        return self.id.kind is PlanKind.IXSCAN


@dataclass(frozen=True)
class CandidatePlan:
    """A shape plan bound to a query, whose predicates give its bounds."""

    plan: ShapePlan
    query: Query

    @property
    def id(self) -> PlanId:
        return self.plan.id

    @property
    def has_fetch(self) -> bool:
        return self.plan.has_fetch

    def __str__(self) -> str:
        return str(self.id)


def _covers(query: Query, key_fields: tuple[str, ...]) -> bool:
    if query.projection is None or not query.projection.suppress_record_id:
        return False
    return set(query.projection.fields) <= set(key_fields)


def producible_plans(query: Query, catalog: IndexCatalog) -> dict[str, ShapePlan]:
    """Every plan this query's shape can run, by its stable string form: one
    per usable index, in catalog order, then COLLSCAN. These are the plans a
    hint can force, a run times (harness.measure_grid) and a primed plan
    cache may hold (harness.primed_cache_for).

    The filter fields come in sorted order, so the plans depend only on the
    query's shape (query_shape), not on its hint or the order of its
    predicates; one call serves every query of that shape.
    """
    fields = sorted([p.field for p in query.predicates])
    producible = {}
    for keys in catalog.indexes:
        leading = keys[0]
        if leading not in fields:
            continue
        if len(keys) == 1:
            plan = ShapePlan(PlanId(PlanKind.IXSCAN, keys),
                             tuple(f for f in fields if f != leading))
        elif _covers(query, keys):
            plan = ShapePlan(PlanId(PlanKind.IXSCAN_COVER, keys),
                             tuple(f for f in keys[1:] if f in fields))
        else:
            continue
        producible[str(plan.id)] = plan
    producible["COLLSCAN"] = ShapePlan(COLLSCAN_ID, tuple(fields))
    return producible


def shape_candidates(query: Query, catalog: IndexCatalog,
                     variant: OptimizerVariant = OptimizerVariant.VANILLA
                     ) -> tuple[ShapePlan, ...]:
    """All plans the optimizer will race for queries of this one's shape,
    in catalog order.

    One plan per usable index (single-field indexes on a queried field;
    compound indexes whose leading field is queried and whose keys cover the
    projection), then COLLSCAN last when the gating rule lets it in. A hinted
    query yields exactly the hinted plan or an UnknownPlanError.
    """
    producible = producible_plans(query, catalog)
    if query.hint is not None:
        chosen = producible.get(str(query.hint))
        if chosen is None:
            raise UnknownPlanError(f"hint {query.hint} names no producible plan; "
                                   f"available: {sorted(producible)}")
        return (chosen,)
    collscan = producible.pop("COLLSCAN")
    candidates = list(producible.values())
    if variant in (OptimizerVariant.WITH_COLLSCAN, OptimizerVariant.MOD) or not candidates:
        candidates.append(collscan)
    return tuple(candidates)


def bind_plans(plans: tuple[ShapePlan, ...], query: Query) -> list[CandidatePlan]:
    """The shape plans with the query's bounds."""
    return [CandidatePlan(p, query) for p in plans]


def enumerate_candidates(query: Query, catalog: IndexCatalog,
                         variant: OptimizerVariant = OptimizerVariant.VANILLA
                         ) -> list[CandidatePlan]:
    """shape_candidates(query, catalog, variant), bound to the query."""
    return bind_plans(shape_candidates(query, catalog, variant), query)


def parse_plan_hint(text: str) -> PlanId:
    """Map a stable plan string ("COLLSCAN", "IXSCAN_A", ...) to its PlanId."""
    try:
        return KNOWN_PLAN_IDS[text]
    except KeyError:
        valid = ", ".join(PLAN_ID_ORDER)
        raise UnknownPlanError(f"unknown plan {text!r}; valid forms: {valid}") from None
