"""Race loop, race layout, rank buckets and byte masks, score arithmetic,
winner choice, and the plan cache."""

from __future__ import annotations

import dataclasses
import functools
import random
from bisect import bisect_left

import pytest

from planrace.engine import (
    DISTRIBUTIONS,
    Collection,
    IndexCatalog,
    Query,
    RangePredicate,
    generate_dataset,
)
from planrace.errors import NoCandidatesError, UndefinedProductivityError
from planrace.executor import CostModel, PlanExecution
from planrace.optimizer import (
    BUCKETS,
    PlanCache,
    RaceKnobs,
    RankBuckets,
    Score,
    TrialStats,
    match_mask,
    optimize,
    pick_best,
    race,
    race_layout,
    score_plan,
)
from planrace.plans import (
    CandidatePlan,
    OptimizerVariant,
    ShapePlan,
    enumerate_candidates,
    parse_plan_hint,
)
from planrace.scenarios import SCENARIOS, get_scenario

COST = CostModel()
KNOBS = RaceKnobs()


def stats(works, results, *, eof=False, fetch=False, plan="IXSCAN_A"):
    return TrialStats(plan_id=parse_plan_hint(plan), works=works, results=results,
                      reached_eof=eof, has_fetch=fetch)


def executions_for(collection, scenario_name, variant, low_a, high_a, low_b, high_b):
    scenario = get_scenario(scenario_name)
    catalog = scenario.build_catalog(collection)
    q = scenario.make_query(RangePredicate("A", low_a, high_a),
                            RangePredicate("B", low_b, high_b))
    plans = enumerate_candidates(q, catalog, variant)
    return [PlanExecution(p, collection, catalog, COST) for p in plans]


# --- race -----------------------------------------------------------------

def test_max_rounds_formula():
    assert RaceKnobs().max_rounds(100_000) == 30_000
    assert RaceKnobs().max_rounds(10_000) == 10_000


def test_single_collscan_race_runs_to_eof():
    c = generate_dataset(50, "uniform-distinct", seed=3)
    scenario = get_scenario("both-indexed")
    q = scenario.make_query(RangePredicate("A", 0, 50), RangePredicate("B", 0, 50))
    catalog = IndexCatalog()  # no indexes: COLLSCAN is required
    plans = enumerate_candidates(q, catalog, OptimizerVariant.VANILLA)
    stats_out = race([PlanExecution(plans[0], c, catalog, COST)], 50, KNOBS)
    s = stats_out[0]
    assert (s.works, s.results, s.reached_eof) == (51, 50, True)


def test_race_stops_round_after_max_results():
    c = generate_dataset(5000, "uniform-distinct", seed=9)
    # plan A advances every round (B matches everything), hits 101 at round 101
    exs = executions_for(c, "both-indexed", OptimizerVariant.VANILLA, 0, 5000, 0, 5000)
    out = race(exs, len(c), KNOBS)
    assert out[0].results == 101
    assert all(s.works == 101 for s in out)


def test_race_round_robin_gives_equal_works():
    c = generate_dataset(3000, "uniform-distinct", seed=10)
    exs = executions_for(c, "both-indexed", OptimizerVariant.MOD, 100, 900, 50, 1500)
    out = race(exs, len(c), KNOBS)
    works = [s.works for s in out]
    assert max(works) - min(works) <= 1
    assert all(s.results <= min(s.works, KNOBS.max_results) for s in out)


def test_race_respects_round_cap():
    c = generate_dataset(200, "uniform-distinct", seed=12)
    knobs = RaceKnobs(evaluation_works=7, coll_fraction=0.001, max_results=101)
    exs = executions_for(c, "both-indexed", OptimizerVariant.VANILLA, 0, 200, 0, 200)
    out = race(exs, len(c), knobs)
    assert all(s.works == 7 for s in out)


def test_race_completes_round_after_stop_condition():
    # first candidate EOFs mid-round; the later candidate still gets its
    # work() for that round, so both end with identical work counts
    c = generate_dataset(400, "uniform-distinct", seed=8)
    exs = executions_for(c, "both-indexed", OptimizerVariant.WITH_COLLSCAN, 0, 30, 0, 400)
    out = race(exs, len(c), KNOBS)
    assert out[0].reached_eof  # IXSCAN_A: 30 entries + terminal step
    assert out[0].works == 31
    assert [s.works for s in out] == [31, 31, 31]


def test_race_retains_cursor_state_for_continuation():
    c = generate_dataset(500, "uniform-distinct", seed=14)
    exs = executions_for(c, "both-indexed", OptimizerVariant.VANILLA, 0, 500, 0, 500)
    race(exs, len(c), KNOBS)
    winner = exs[0]
    from planrace.executor import run_to_completion
    rids, _, works = run_to_completion(winner)
    assert works == 501  # continued, not restarted
    assert len(rids) == 500


def test_race_rejects_empty_and_stale():
    with pytest.raises(NoCandidatesError):
        race([], 10, KNOBS)
    c = generate_dataset(50, "uniform-distinct", seed=3)
    exs = executions_for(c, "both-indexed", OptimizerVariant.VANILLA, 0, 50, 0, 50)
    race(exs, len(c), KNOBS)
    with pytest.raises(ValueError):
        race(exs, len(c), KNOBS)


# --- closed-form race -----------------------------------------------------

DIFFERENTIAL_KNOBS = (
    RaceKnobs(),                                      # results cap or EOF ends races
    RaceKnobs(evaluation_works=5, coll_fraction=0.001, max_results=101),  # budget binds
    RaceKnobs(evaluation_works=10_000, coll_fraction=0.3, max_results=1),
    RaceKnobs(evaluation_works=40, coll_fraction=0.05, max_results=7),
)


@pytest.mark.parametrize("n,dist", [(37, "uniform-with-repeats"),
                                    (400, "uniform-distinct"),
                                    (1500, "zipfian"),
                                    (5000, "uniform-with-repeats")])
def test_closed_form_race_equals_stepped_race(n, dist):
    rng = random.Random(n)
    collection = generate_dataset(n, dist, seed=n)
    a_values, b_values = collection.columns["A"], collection.columns["B"]
    races = mismatches = 0
    for name, scenario in SCENARIOS.items():
        catalog = scenario.build_catalog(collection)
        for knobs in DIFFERENTIAL_KNOBS:
            for variant in OptimizerVariant:
                for _ in range(28):
                    # bounds start at stored values, so skewed data gets busy ranges
                    a0 = rng.choice(a_values); a1 = rng.randrange(a0, n + 1)
                    b0 = rng.choice(b_values); b1 = rng.randrange(b0, n + 1)
                    q = scenario.make_query(RangePredicate("A", a0, a1),
                                            RangePredicate("B", b0, b1))
                    plans = enumerate_candidates(q, catalog, variant)
                    stepped = race([PlanExecution(p, collection, catalog, COST) for p in plans],
                                   n, knobs)
                    closed = optimize(q, collection, catalog, variant, knobs)
                    races += 1
                    mismatches += closed.stats != stepped or closed.candidates != plans
                    # the same race from the ranges' positions in the count columns
                    positions = tuple(
                        bisect_left(collection.sorted_values(p.field), bound)
                        for p in q.predicates for bound in (p.low, p.high))
                    mismatches += optimize(q, collection, catalog, variant, knobs,
                                           positions=positions) != closed
                    mismatches += closed.chosen != pick_best(
                        [score_plan(st, variant) for st in stepped], plans)
    assert races == 3 * 4 * 3 * 28  # 1008 races per dataset
    assert mismatches == 0


# --- race layout ----------------------------------------------------------

def layout_for(collection, scenario_name, variant):
    scenario = get_scenario(scenario_name)
    catalog = scenario.build_catalog(collection)
    q = scenario.make_query(RangePredicate("A", 0, 1), RangePredicate("B", 0, 1))
    return race_layout(q, collection, catalog, variant)


@pytest.mark.parametrize("variant", list(OptimizerVariant))
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_layout_columns_are_bucket_numbers_in_each_scan_order(dist, scenario_name, variant):
    collection = generate_dataset(2000, dist, seed=13)
    layout = layout_for(collection, scenario_name, variant)
    assert layout.buckets.n == len(collection)
    for slot, (leading, rids, filters) in enumerate(layout.scans):
        plan = layout.plans[layout.slots.index(slot)]
        assert leading == plan.leading
        assert rids is (None if plan.leading is None else collection.order(*plan.id.key_fields))
        assert tuple(f for f, _, _ in filters) == plan.filters
        for f, column, values in filters:
            assert values is collection.columns[f]
            numbers = rank_numbers(collection, f)
            assert column == (numbers if rids is None else bytes(numbers[r] for r in rids))


@pytest.mark.parametrize("variant", list(OptimizerVariant))
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_layout_scatters_every_filtered_field_from_its_order(monkeypatch, scenario_name,
                                                             variant):
    collection = generate_dataset(2000, "uniform-with-repeats", seed=5)
    scattered = []
    numbers_from_order = RankBuckets.numbers_from_order
    monkeypatch.setattr(RankBuckets, "numbers_from_order",
                        lambda self, rids: scattered.append(rids)
                        or numbers_from_order(self, rids))
    layout = layout_for(collection, scenario_name, variant)
    filtered = {f for plan in layout.plans for f in plan.filters}
    assert len(scattered) == len(filtered)
    assert all(any(rids is collection.order(f) for rids in scattered) for f in filtered)


# (N, data seed) -> R and each covering plan's results (IXSCAN_A, IXSCAN_B,
# IXSCAN_AB, COLLSCAN) of the mod race of A[100, 900) B[0, 400)
OWN_RACES = {
    (3000, 1): (401, [40, 96, 40, 16]),
    (3000, 2): (348, [42, 101, 42, 19]),
    (500, 42): (121, [101, 97, 101, 78]),
}


def test_one_catalog_races_each_collection_over_its_own_layout():
    # a catalog is plain data; the layout it races is kept by the collection,
    # so a catalog built on one collection and raced over others reads their
    # orders and bucket columns, not the first one's
    assert [f.name for f in dataclasses.fields(IndexCatalog)] == ["indexes"]
    scenario = get_scenario("covering")
    variant = OptimizerVariant.MOD
    q = scenario.make_query(RangePredicate("A", 100, 900), RangePredicate("B", 0, 400))
    collections = [generate_dataset(n, "uniform-distinct", seed) for n, seed in OWN_RACES]
    catalog = scenario.build_catalog(collections[0])
    for collection, (rounds, results) in zip(collections, OWN_RACES.values()):
        raced = optimize(q, collection, catalog, variant)
        assert (raced.rounds, raced.results) == (rounds, results)
        plans = enumerate_candidates(q, catalog, variant)
        stepped = race([PlanExecution(p, collection, catalog, COST) for p in plans],
                       len(collection), KNOBS)
        assert raced.stats == stepped
        assert raced.chosen == pick_best([score_plan(st, variant) for st in stepped], plans)
        fresh = Collection(collection.name, dict(collection.columns))
        assert raced == optimize(q, fresh, scenario.build_catalog(fresh), variant)
    assert [len(c.race_layouts) for c in collections] == [1, 1, 1]


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_layout_shares_one_scan_between_a_and_ab_without_repeated_a_values(dist):
    collection = generate_dataset(2000, dist, seed=5)
    layout = layout_for(collection, "covering", OptimizerVariant.MOD)
    slots = {str(plan.id): slot for plan, slot in zip(layout.plans, layout.slots)}
    assert {"IXSCAN_A", "IXSCAN_AB"} <= set(slots)
    assert (slots["IXSCAN_A"] == slots["IXSCAN_AB"]) == (dist == "uniform-distinct")
    assert len(layout.scans) == len(set(slots.values()))


# --- rank buckets and byte masks ----------------------------------------------

@functools.cache
def bucket_of_rank(n):
    """Each rank's bucket among n ranks, by brute force: the last k whose
    first rank, floor(k * n / BUCKETS), lies at or below it."""
    return bytes(max(k for k in range(BUCKETS) if k * n // BUCKETS <= rank)
                 for rank in range(n))


def rank_numbers(collection, f):
    """Each record's bucket number in record_id order, by brute force: the
    bucket of its rank in (value, record_id) order."""
    column = collection.columns[f]
    buckets = bucket_of_rank(len(collection))
    out = bytearray(len(collection))
    for rank, rid in enumerate(sorted(range(len(collection)), key=lambda r: (column[r], r))):
        out[rid] = buckets[rank]
    return bytes(out)


MASK_SIZES = [1, 2, 7, 100, 255, 256, 257, 3000]


@pytest.mark.parametrize("n", [1, 2, 9, 255, 256, 257, 1000])
def test_rank_bucket_tables_decide_every_rank_outside_the_boundary(n):
    # every range of ranks [start, end): each rank marked 0 lies outside it
    # and each marked 1 inside; a bucket marked 2, at most two of them, has
    # ranks on both sides of one of its ends
    buckets = RankBuckets(n)
    numbers = bucket_of_rank(n)
    # where each bucket's ranks start and end; with n < BUCKETS, every rank
    # has a bucket of its own and the others are empty
    spans = [(numbers.find(k), numbers.rfind(k) + 1) for k in range(BUCKETS)]
    assert len(set(numbers)) == min(n, BUCKETS)
    tables = 0
    for start in range(n + 1):
        for end in range(start, n + 1):
            table = buckets.table(start, end)
            marks = numbers.translate(table)
            assert (marks.find(1, 0, start) < 0 and marks.find(0, start, end) < 0
                    and marks.find(1, end) < 0), (start, end)
            first, last = table.find(2), table.rfind(2)
            if first >= 0:
                assert table.count(2) == 1 + (first < last), (start, end)
                for lo, hi in (spans[first], spans[last]):
                    assert lo < end and start < hi and not start <= lo < hi <= end, (start, end)
            tables += len(table) == BUCKETS
    assert tables == (n + 1) * (n + 2) // 2


@pytest.mark.parametrize("n", MASK_SIZES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_numbers_from_order_are_each_records_rank_bucket(dist, n):
    collection = generate_dataset(n, dist, seed=n + 2)
    for f in ("A", "B"):
        assert RankBuckets(n).numbers_from_order(collection.order(f)) == rank_numbers(
            collection, f)


def list_mask(columns, filters, a, b):
    """The list-comprehension mask of positions a..b-1: every position's
    values compared, in the access order's own columns."""
    return [int(all(low <= columns[f][k] < high for f, low, high in filters))
            for k in range(a, b)]


def bound_candidates(collection, f, rng):
    """Range bounds that stress the buckets: stored values, the values at
    the buckets' first ranks and their neighbours, and values below the
    minimum and above the maximum."""
    values = collection.sorted_values(f)
    lo, hi = values[0], values[-1]
    firsts = {values[k * len(values) // BUCKETS] for k in range(BUCKETS)}
    pool = [lo - 7, lo - 1, lo, hi, hi + 1, hi + 9]
    pool += [v + d for v in firsts for d in (-1, 0, 1)]
    pool += rng.sample(list(values), min(len(values), 40))
    return pool


def check_byte_masks(collection, rng):
    n = len(collection)
    catalog = get_scenario("covering").build_catalog(collection)
    orders = [None, *catalog.indexes]
    pools = {f: bound_candidates(collection, f, rng) for f in ("A", "B")}
    buckets = RankBuckets(n)
    numbers = {f: rank_numbers(collection, f) for f in ("A", "B")}
    checked = 0
    for _ in range(150):
        index = rng.choice(orders)
        fields = (("A", "B") if index is None
                  else tuple(f for f in ("A", "B") if f != index[0]))
        # up to two filters, some with empty ranges
        filters = []
        for f in fields[:rng.choice([0, 1, len(fields)])]:
            low = rng.choice(pools[f])
            high = low if rng.random() < 0.1 else rng.choice(pools[f])
            filters.append((f, min(low, high), max(low, high)))
        start = rng.randrange(n + 1)
        end = rng.randrange(start, n + 1)
        rids = None if index is None else collection.order(*index)
        # each field's column in the access order, gathered through its rids
        columns = collection.columns if index is None else {
            f: [collection.columns[f][rid] for rid in rids] for f in collection.columns}
        masking = [(numbers[f] if rids is None else bytes(numbers[f][r] for r in rids),
                    buckets.table(*collection.positions(RangePredicate(f, low, high))),
                    collection.columns[f], low, high)
                   for f, low, high in filters]
        for _ in range(3):
            lo = rng.randrange(end - start + 1)
            hi = rng.randrange(lo, end - start + 1)
            assert (list(match_mask(masking, rids, start + lo, start + hi))
                    == list_mask(columns, filters, start + lo, start + hi))
            checked += 1
        assert list(match_mask(masking, rids, start, end)) == list_mask(
            columns, filters, start, end)
    assert checked == 450


@pytest.mark.parametrize("n", MASK_SIZES)
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_byte_masks_equal_list_masks(dist, n):
    check_byte_masks(generate_dataset(n, dist, seed=n + 1), random.Random(n))


def spread(collection):
    """The collection with A's values far apart and B's below zero."""
    return Collection("spread", {"A": [v * 10**9 for v in collection.columns["A"]],
                                 "B": [v - 500 for v in collection.columns["B"]]})


@pytest.mark.parametrize("n", [1, 300, 3000])
def test_byte_masks_equal_list_masks_on_spread_values(n):
    check_byte_masks(spread(generate_dataset(n, "uniform-with-repeats", seed=n)),
                     random.Random(n))


# --- score_plan -----------------------------------------------------------

def test_score_productive_no_fetch_no_eof():
    s = score_plan(stats(101, 101), OptimizerVariant.VANILLA)
    assert s.total == pytest.approx(2.0003, abs=1e-12)
    assert s.tie_break_unit == pytest.approx(1e-4, abs=1e-15)


def test_score_productive_with_fetch():
    s = score_plan(stats(101, 101, fetch=True), OptimizerVariant.VANILLA)
    assert s.no_fetch_bonus == 0.0
    assert s.total == pytest.approx(2.0002, abs=1e-12)


def test_score_mod_halves_fetch_productivity():
    s = score_plan(stats(101, 101, fetch=True), OptimizerVariant.MOD)
    assert s.productivity == pytest.approx(0.5, abs=1e-15)
    assert s.total == pytest.approx(1.5002, abs=1e-12)


def test_score_mod_leaves_fetchless_plans_alone():
    vanilla = score_plan(stats(101, 101), OptimizerVariant.VANILLA)
    mod = score_plan(stats(101, 101), OptimizerVariant.MOD)
    assert mod.total == vanilla.total


def test_score_unproductive_long_trial():
    s = score_plan(stats(30_000, 0), OptimizerVariant.VANILLA)
    assert s.total == pytest.approx(1.00001, abs=1e-12)


def test_score_eof_bonus():
    s = score_plan(stats(51, 50, eof=True, fetch=True), OptimizerVariant.VANILLA)
    assert s.eof_bonus == 1.0
    assert s.total == pytest.approx(1 + 50 / 51 + 2 * min(1 / 510, 1e-4) + 1, abs=1e-12)


def test_score_decomposition_invariant():
    rng = random.Random(1)
    for _ in range(200):
        works = rng.randint(1, 40_000)
        results = rng.randint(0, min(works, 101))
        s = score_plan(stats(works, results, eof=rng.random() < 0.3,
                             fetch=rng.random() < 0.5),
                       rng.choice(list(OptimizerVariant)))
        assert s.total == s.base + s.productivity + s.tie_breakers + s.eof_bonus
        assert 0.0 <= s.productivity <= 1.0
        assert 1.0 <= s.total <= 2 + 3e-4 + 1


def test_score_mod_never_exceeds_vanilla():
    rng = random.Random(2)
    for _ in range(200):
        works = rng.randint(1, 5000)
        st = stats(works, rng.randint(0, min(works, 101)), fetch=rng.random() < 0.5)
        v = score_plan(st, OptimizerVariant.VANILLA).total
        m = score_plan(st, OptimizerVariant.MOD).total
        if st.has_fetch and st.results:
            assert m < v
        else:
            assert m == v


def test_score_zero_works_rejected():
    with pytest.raises(UndefinedProductivityError):
        score_plan(stats(0, 0), OptimizerVariant.VANILLA)


# --- pick_best ------------------------------------------------------------

def fake_plan(name):
    return CandidatePlan(ShapePlan(parse_plan_hint(name), ()), None)


def make_score(total):
    # decompose an arbitrary total as base + productivity-like remainder
    return Score(base=1.0, productivity=total - 1.0, tie_break_unit=0.0,
                 no_fetch_bonus=0.0, no_sort_bonus=0.0, no_ixisect_bonus=0.0,
                 eof_bonus=0.0)


def test_pick_best_argmax():
    cands = [fake_plan("IXSCAN_A"), fake_plan("IXSCAN_B"), fake_plan("COLLSCAN")]
    scores = [make_score(2.0002), make_score(1.9), make_score(1.7)]
    assert str(pick_best(scores, cands)) == "IXSCAN_A"


def test_pick_best_tie_goes_to_candidate_order():
    cands = [fake_plan("IXSCAN_A"), fake_plan("IXSCAN_B")]
    assert str(pick_best([make_score(1.5), make_score(1.5)], cands)) == "IXSCAN_A"


def test_pick_best_singleton():
    assert str(pick_best([make_score(1.0)], [fake_plan("COLLSCAN")])) == "COLLSCAN"


def test_pick_best_shift_invariance():
    rng = random.Random(4)
    cands = [fake_plan("IXSCAN_A"), fake_plan("IXSCAN_B"), fake_plan("COLLSCAN")]
    for _ in range(100):
        totals = [rng.uniform(1, 3) for _ in cands]
        shifted = [t + 0.37 for t in totals]
        assert pick_best([make_score(t) for t in totals], cands) == \
               pick_best([make_score(t) for t in shifted], cands)


# --- optimize -------------------------------------------------------------

@pytest.fixture(scope="module")
def collection():
    return generate_dataset(10_000, "uniform-distinct", seed=77)


def make_query(scenario_name, e_a, e_b, collection):
    n = len(collection)
    scenario = get_scenario(scenario_name)
    return scenario.make_query(RangePredicate("A", 0, int(e_a * n)),
                               RangePredicate("B", 0, int(e_b * n)))


def test_optimize_prefers_lower_selectivity_index(collection):
    scenario = get_scenario("both-indexed")
    catalog = scenario.build_catalog(collection)
    q = make_query("both-indexed", 0.1, 0.5, collection)
    assert str(optimize(q, collection, catalog).chosen) == "IXSCAN_A"
    q = make_query("both-indexed", 0.5, 0.1, collection)
    assert str(optimize(q, collection, catalog).chosen) == "IXSCAN_B"


def test_optimize_is_deterministic(collection):
    scenario = get_scenario("covering")
    catalog = scenario.build_catalog(collection)
    q = make_query("covering", 0.3, 0.4, collection)
    first = optimize(q, collection, catalog, OptimizerVariant.MOD)
    for _ in range(3):
        again = optimize(q, collection, catalog, OptimizerVariant.MOD)
        assert again.chosen == first.chosen
        assert [s.works for s in again.stats] == [s.works for s in first.stats]


def test_optimize_result_derives_its_fields_on_each_read(collection):
    scenario = get_scenario("covering")
    catalog = scenario.build_catalog(collection)
    r = optimize(make_query("covering", 0.2, 0.6, collection), collection, catalog,
                 OptimizerVariant.MOD)
    for name in ("candidates", "stats", "scores"):
        first, again = getattr(r, name), getattr(r, name)
        assert first == again and first is not again and len(first) == 4
    assert [s.total for s in r.scores] == [score_plan(s, OptimizerVariant.MOD).total
                                           for s in r.stats]
    assert r.chosen == pick_best(r.scores, r.candidates)


def test_optimize_cache_hit_skips_race(collection):
    scenario = get_scenario("both-indexed")
    catalog = scenario.build_catalog(collection)
    cache = PlanCache()
    q1 = make_query("both-indexed", 0.1, 0.5, collection)
    r1 = optimize(q1, collection, catalog, cache=cache)
    assert not r1.from_cache
    q2 = make_query("both-indexed", 0.6, 0.05, collection)  # same shape, different constants
    r2 = optimize(q2, collection, catalog, cache=cache)
    assert r2.from_cache
    assert r2.chosen == r1.chosen  # primed plan reused even though B would now win
    assert r2.stats == [] and r2.candidates == [] and r2.scores == []


def test_optimize_hinted_query_races_single_candidate(collection):
    scenario = get_scenario("both-indexed")
    catalog = scenario.build_catalog(collection)
    q = scenario.make_query(RangePredicate("A", 0, 1000), RangePredicate("B", 0, 5000),
                            hint=parse_plan_hint("COLLSCAN"))
    r = optimize(q, collection, catalog)
    assert [str(p.id) for p in r.candidates] == ["COLLSCAN"]
    assert str(r.chosen) == "COLLSCAN"


@pytest.mark.parametrize("scenario_name", ["both-indexed", "covering", "single-index"])
def test_reordered_query_races_as_on_a_fresh_catalog(collection, scenario_name):
    # (A, B) and (B, A) queries share a shape, so after an (A, B) query the
    # (B, A) one races the plans and layout kept for the (A, B) one
    scenario = get_scenario(scenario_name)
    catalog = scenario.build_catalog(collection)
    fresh = scenario.build_catalog(collection)  # only ever sees (B, A) queries
    rng = random.Random(scenario_name)
    n = len(collection)
    chosen = set()
    for variant in OptimizerVariant:
        for _ in range(12):
            a0, b0 = rng.randrange(n), rng.randrange(n)
            pred_a = RangePredicate("A", a0, rng.randrange(a0, n + 1))
            pred_b = RangePredicate("B", b0, rng.randrange(b0, n + 1))
            optimize(scenario.make_query(pred_a, pred_b), collection, catalog, variant)
            reordered = Query((pred_b, pred_a), scenario.projection)
            got = optimize(reordered, collection, catalog, variant)
            want = optimize(reordered, collection, fresh, variant)
            assert (got.chosen, got.rounds, got.results, got.lengths) == (
                want.chosen, want.rounds, want.results, want.lengths)
            # positions come in the query's own predicate order
            positions = tuple(bisect_left(collection.sorted_values(p.field), bound)
                              for p in reordered.predicates for bound in (p.low, p.high))
            assert optimize(reordered, collection, catalog, variant,
                            positions=positions) == got
            chosen.add(str(got.chosen))
    # single-index's IXSCAN_B filters the same matches out of fewer entries
    # than COLLSCAN, so it always wins
    assert (len(chosen) > 1) == (scenario_name != "single-index")
