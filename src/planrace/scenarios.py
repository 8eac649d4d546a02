"""Physical-design presets: which indexes exist and how queries are shaped."""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

from . import workers
from .engine import (
    Collection,
    IndexCatalog,
    Projection,
    Query,
    RangePredicate,
    build_index,
)
from .plans import COLLSCAN_ID, PlanId, PlanKind

# Below this many documents the catalog sorts both fields here: on a 2-core
# host a sort worker only breaks even at about 20,000, and at 50,000 it
# takes about a third off the catalog build.
SORT_WORKER_MIN = 50_000


def _sorted_bytes(collection: Collection, field_name: str):
    """The sort worker's one item: the field's sorted values as raw bytes."""
    yield collection.sorted_values(field_name).tobytes()


@dataclass(frozen=True)
class Scenario:
    name: str
    index_keys: tuple[tuple[str, ...], ...]
    # covered queries need an explicit projection; None means project nothing away
    projection: Projection | None = None

    def build_catalog(self, collection: Collection) -> IndexCatalog:
        """The scenario's indexes on the collection, in index_keys order.

        Every index leading on a field holds the field's sorted values
        (Collection.sorted_values). With two single-field indexes, at least
        SORT_WORKER_MIN documents and a worker that can overlap this process
        (workers.can_overlap), the second index's field is sorted in a
        forked worker, which sends back the array's raw bytes, while this
        process sorts the first's; without a pipe or a process both sort
        here.
        """
        fields = [keys[0] for keys in self.index_keys if len(keys) == 1]
        if (len(fields) > 1 and len(collection) >= SORT_WORKER_MIN
                and workers.can_overlap()):
            second = workers.forked(_sorted_bytes, (collection, fields[1]),
                                    "the catalog's sort worker", "its sorted values")
            with closing(second):
                collection.sorted_values(fields[0])
                collection.keep_sorted_values(fields[1], next(iter(second)))
        return IndexCatalog([build_index(collection, keys) for keys in self.index_keys])

    def make_query(self, pred_a: RangePredicate, pred_b: RangePredicate,
                   hint: PlanId | None = None) -> Query:
        return Query((pred_a, pred_b), projection=self.projection, hint=hint)

    def forced_plan_ids(self) -> list[PlanId]:
        """Every plan measured per query: one per index, plus COLLSCAN always."""
        ids = []
        for keys in self.index_keys:
            kind = PlanKind.IXSCAN if len(keys) == 1 else PlanKind.IXSCAN_COVER
            ids.append(PlanId(kind, keys))
        ids.append(COLLSCAN_ID)
        return ids


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
