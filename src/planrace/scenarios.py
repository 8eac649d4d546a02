"""Physical-design presets: which indexes exist and how queries are shaped.

A scenario lists no plans: the plans a run times and a primed plan cache may
hold are those its query shape can run over its indexes
(plans.producible_plans).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    Collection,
    IndexCatalog,
    Projection,
    Query,
    RangePredicate,
    build_index,
)
from .plans import PlanId


@dataclass(frozen=True)
class Scenario:
    name: str
    index_keys: tuple[tuple[str, ...], ...]
    # covered queries need an explicit projection; None means project nothing away
    projection: Projection | None = None

    def build_catalog(self, collection: Collection) -> IndexCatalog:
        """The scenario's indexes on the collection, in index_keys order.

        A range on an index's leading field is scanned at its positions in
        the field's sorted values (Collection.positions), so those are
        sorted first, the second in a worker (Collection.sort_fields).
        """
        collection.sort_fields([keys[0] for keys in self.index_keys], orders=False)
        return IndexCatalog([build_index(collection, keys) for keys in self.index_keys])

    def make_query(self, pred_a: RangePredicate, pred_b: RangePredicate,
                   hint: PlanId | None = None) -> Query:
        return Query((pred_a, pred_b), projection=self.projection, hint=hint)


SCENARIOS = {
    "both-indexed": Scenario("both-indexed", (("A",), ("B",))),
    "single-index": Scenario("single-index", (("B",),)),
    "covering": Scenario(
        "covering",
        (("A",), ("B",), ("A", "B")),
        projection=Projection(("A", "B"), suppress_record_id=True),
    ),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}") from None
