"""Candidate enumeration, the collscan gate, hints, and plan equivalence."""

from __future__ import annotations

import random

import pytest

from planrace.engine import (
    Index,
    IndexCatalog,
    Projection,
    Query,
    RangePredicate,
    build_index,
    generate_dataset,
)
from planrace.errors import UnknownPlanError
from planrace.executor import CostModel, PlanExecution, run_to_completion
from planrace.optimizer import bind_layout, race_layout
from planrace.plans import (
    PLAN_ID_ORDER,
    CandidatePlan,
    OptimizerVariant,
    PlanKind,
    bind_plans,
    enumerate_candidates,
    parse_plan_hint,
    producible_plans,
    shape_candidates,
)
from planrace.scenarios import SCENARIOS, get_scenario

COST = CostModel()


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(400, "uniform-distinct", seed=17)


def catalog_for(name, dataset):
    return get_scenario(name).build_catalog(dataset)


def query_for(name, low_a=10, high_a=60, low_b=100, high_b=300, hint=None):
    return get_scenario(name).make_query(
        RangePredicate("A", low_a, high_a), RangePredicate("B", low_b, high_b), hint=hint)


def plan_names(candidates):
    return [str(p.id) for p in candidates]


def test_vanilla_both_indexed_has_no_collscan(dataset):
    cands = enumerate_candidates(query_for("both-indexed"), catalog_for("both-indexed", dataset),
                                 OptimizerVariant.VANILLA)
    assert plan_names(cands) == ["IXSCAN_A", "IXSCAN_B"]


def test_with_collscan_appends_collscan_last(dataset):
    for variant in (OptimizerVariant.WITH_COLLSCAN, OptimizerVariant.MOD):
        cands = enumerate_candidates(query_for("both-indexed"),
                                     catalog_for("both-indexed", dataset), variant)
        assert plan_names(cands) == ["IXSCAN_A", "IXSCAN_B", "COLLSCAN"]


def test_no_indexes_forces_collscan(dataset):
    cands = enumerate_candidates(query_for("both-indexed"), IndexCatalog(),
                                 OptimizerVariant.VANILLA)
    assert plan_names(cands) == ["COLLSCAN"]


def test_covering_scenario_enumerates_cover_plan(dataset):
    cands = enumerate_candidates(query_for("covering"), catalog_for("covering", dataset),
                                 OptimizerVariant.VANILLA)
    assert plan_names(cands) == ["IXSCAN_A", "IXSCAN_B", "IXSCAN_AB"]


def test_cover_plan_requires_projection(dataset):
    # same indexes, but the query projects nothing: the compound index yields no plan
    q = query_for("both-indexed")  # no projection
    cands = enumerate_candidates(q, catalog_for("covering", dataset), OptimizerVariant.VANILLA)
    assert plan_names(cands) == ["IXSCAN_A", "IXSCAN_B"]


def test_cover_plan_has_no_fetch(dataset):
    cands = enumerate_candidates(query_for("covering"), catalog_for("covering", dataset),
                                 OptimizerVariant.VANILLA)
    cover = next(p for p in cands if p.id.kind is PlanKind.IXSCAN_COVER)
    assert not cover.has_fetch
    assert (cover.plan.leading, cover.plan.filters) == ("A", ("B",))
    ixscan = next(p for p in cands if str(p.id) == "IXSCAN_A")
    assert ixscan.has_fetch
    assert (ixscan.plan.leading, ixscan.plan.filters) == ("A", ("B",))


def test_single_index_scenario(dataset):
    cands = enumerate_candidates(query_for("single-index"),
                                 catalog_for("single-index", dataset),
                                 OptimizerVariant.VANILLA)
    assert plan_names(cands) == ["IXSCAN_B"]


def test_hint_returns_exactly_that_plan(dataset):
    catalog = catalog_for("both-indexed", dataset)
    for hint_text in ("IXSCAN_B", "COLLSCAN"):
        q = query_for("both-indexed", hint=parse_plan_hint(hint_text))
        cands = enumerate_candidates(q, catalog, OptimizerVariant.VANILLA)
        assert plan_names(cands) == [hint_text]


def test_hint_for_missing_index_errors(dataset):
    q = query_for("single-index", hint=parse_plan_hint("IXSCAN_A"))
    with pytest.raises(UnknownPlanError, match="IXSCAN_A"):
        enumerate_candidates(q, catalog_for("single-index", dataset), OptimizerVariant.VANILLA)


PRODUCIBLE = {
    "both-indexed": ["IXSCAN_A", "IXSCAN_B", "COLLSCAN"],
    "single-index": ["IXSCAN_B", "COLLSCAN"],
    "covering": ["IXSCAN_A", "IXSCAN_B", "IXSCAN_AB", "COLLSCAN"],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_producible_plans_are_the_hinted_candidates(dataset, name):
    # a run times these plans in this order, and a hint forces each of them
    catalog = catalog_for(name, dataset)
    producible = producible_plans(query_for(name), catalog)
    assert list(producible) == PRODUCIBLE[name]
    for plan in producible.values():
        q = query_for(name, hint=plan.id)
        assert [CandidatePlan(plan, q)] == enumerate_candidates(q, catalog)


def test_candidate_order_is_deterministic(dataset):
    catalog = catalog_for("covering", dataset)
    q = query_for("covering")
    first = plan_names(enumerate_candidates(q, catalog, OptimizerVariant.MOD))
    for _ in range(3):
        assert plan_names(enumerate_candidates(q, catalog, OptimizerVariant.MOD)) == first


def test_parse_plan_hint_round_trip():
    assert str(parse_plan_hint("COLLSCAN")) == "COLLSCAN"
    assert str(parse_plan_hint("IXSCAN_A")) == "IXSCAN_A"
    assert Index(parse_plan_hint("IXSCAN_A").key_fields).name == "A_1"
    assert Index(parse_plan_hint("IXSCAN_AB").key_fields).name == "A_1_B_1"
    assert parse_plan_hint("IXSCAN_AB").kind is PlanKind.IXSCAN_COVER


def test_parse_plan_hint_rejects_unknown():
    with pytest.raises(UnknownPlanError, match="IXSCAN_A"):
        parse_plan_hint("IXSCAN_Q")


def test_all_plans_return_oracle_result_set(dataset):
    # every candidate, fully executed, must produce exactly the filter's rid set
    rng = random.Random(5)
    n = len(dataset)
    for scenario_name in ("both-indexed", "single-index", "covering"):
        scenario = get_scenario(scenario_name)
        catalog = scenario.build_catalog(dataset)
        for _ in range(25):
            a0 = rng.randrange(n); a1 = rng.randrange(a0, n + 1)
            b0 = rng.randrange(n); b1 = rng.randrange(b0, n + 1)
            q = scenario.make_query(RangePredicate("A", a0, a1), RangePredicate("B", b0, b1))
            oracle = {rid for rid, (a, b) in enumerate(zip(dataset.columns["A"],
                                                           dataset.columns["B"]))
                      if a0 <= a < a1 and b0 <= b < b1}
            for plan in enumerate_candidates(q, catalog, OptimizerVariant.MOD):
                got, _, _ = run_to_completion(PlanExecution(plan, dataset, catalog, COST))
                assert got == oracle, f"{plan.id} diverged from filter oracle"


# --- plans per query shape ------------------------------------------------------

def outcome(fn, *args):
    """fn's result, or the type and message of the PlanraceError it raises."""
    try:
        return "plans", fn(*args)
    except UnknownPlanError as exc:
        return "error", type(exc), str(exc)


SHAPE_CATALOGS = [*sorted(SCENARIOS), "no-indexes"]
HINTS = [None, *(parse_plan_hint(name) for name in PLAN_ID_ORDER)]


@pytest.mark.parametrize("name", SHAPE_CATALOGS)
def test_shape_candidates_bound_equal_enumerate_candidates(dataset, name):
    rng = random.Random(name)
    catalog = IndexCatalog() if name == "no-indexes" else catalog_for(name, dataset)
    projections = [None, Projection(("A", "B")), Projection(("A", "B"), suppress_record_id=False),
                   Projection(("A",))]
    errors = 0
    columns = {}  # each field's bucket numbers by access order
    for variant in OptimizerVariant:
        for hint in HINTS:
            for projection in projections:
                for _ in range(4):  # the first query builds the shape's plans
                    a0, b0 = rng.randrange(-5, 405), rng.randrange(-5, 405)
                    predicates = [RangePredicate("A", a0, rng.randrange(a0, 410)),
                                  RangePredicate("B", b0, rng.randrange(b0, 410))]
                    rng.shuffle(predicates)  # one shape, either predicate order
                    q = Query(tuple(predicates), projection, hint)
                    # the plans of the layout kept for the shape are those a
                    # catalog with nothing kept enumerates for this query,
                    # and a failed enumeration fails again
                    fresh = IndexCatalog(catalog.indexes)
                    want = outcome(shape_candidates, q, fresh, variant)
                    got = outcome(lambda: race_layout(q, dataset, catalog, variant).plans)
                    assert got == want
                    if want[0] == "error":
                        errors += 1
                        continue
                    bound = enumerate_candidates(q, catalog, variant)
                    assert bound == bind_plans(got[1], q)
                    # the race layout bound to q scans what PlanExecution steps
                    layout = race_layout(q, dataset, catalog, variant)
                    positions = [k for p in q.predicates for k in dataset.positions(p)]
                    scans = bind_layout(layout, q, positions)
                    assert sorted(set(layout.slots)) == list(range(len(scans)))
                    for slot, plan in zip(layout.slots, bound):
                        start, end, rids, filters = scans[slot]
                        ex = PlanExecution(plan, dataset, catalog, COST)
                        assert (start, end) == (ex._start, ex._end) and rids is ex._rids
                        want = []
                        for f, (_, low, high) in zip(plan.plan.filters, ex._filters):
                            if (f, id(rids)) not in columns:
                                numbers = layout.buckets.numbers_from_order(dataset.order(f))
                                columns[f, id(rids)] = (numbers if rids is None
                                                        else bytes(numbers[r] for r in rids))
                            table = layout.buckets.table(
                                *dataset.positions(RangePredicate(f, low, high)))
                            want.append((columns[f, id(rids)], table,
                                         dataset.columns[f], low, high))
                        assert filters == want
    # hints the catalog cannot produce
    assert errors > 0


def test_a_catalog_rebuilt_with_a_compound_index_serves_its_cover_plan(dataset):
    catalog = catalog_for("both-indexed", dataset)
    q = query_for("covering")
    assert plan_names(enumerate_candidates(q, catalog)) == ["IXSCAN_A", "IXSCAN_B"]
    compound = build_index(dataset, ("A", "B"))
    with pytest.raises(AttributeError):
        catalog.indexes.append(compound)
    # the catalog and the plans it keeps stay as they were built
    assert plan_names(enumerate_candidates(q, catalog)) == ["IXSCAN_A", "IXSCAN_B"]
    hinted = query_for("covering", hint=parse_plan_hint("IXSCAN_AB"))
    with pytest.raises(UnknownPlanError):
        enumerate_candidates(hinted, catalog)
    rebuilt = IndexCatalog([*catalog.indexes, compound])
    assert plan_names(enumerate_candidates(q, rebuilt)) == ["IXSCAN_A", "IXSCAN_B", "IXSCAN_AB"]
    assert plan_names(enumerate_candidates(hinted, rebuilt)) == ["IXSCAN_AB"]
