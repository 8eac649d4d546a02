"""Grid sweep, forced measurement, outlier filtering, and metrics."""

from __future__ import annotations

import errno
import os
import random
import signal
import statistics
import threading
import time
from array import array
from bisect import bisect_left
from contextlib import contextmanager

import pytest

from planrace import engine, harness, workers
from planrace.engine import (
    DISTRIBUTIONS,
    Collection,
    Projection,
    Query,
    RangePredicate,
    generate_dataset,
    match_count,
    selectivity,
)
from planrace.errors import PlanraceError, UnknownPlanError
from planrace.executor import CostModel, plan_cost_totals
from planrace.harness import (
    ExperimentGrid,
    GridCell,
    SummaryMetrics,
    draw_space,
    filter_outliers,
    finalize,
    map_selectivity_to_cell,
    measure_all_plans,
    measure_grid,
    primed_cache_for,
    quantile_r7,
    rand_range_predicate,
    range_with_count,
    run_experiment,
    sweep,
)
from planrace.optimizer import RaceKnobs, optimize
from planrace.plans import (
    PLAN_ID_ORDER,
    CandidatePlan,
    OptimizerVariant,
    enumerate_candidates,
    parse_plan_hint,
    producible_plans,
    shape_candidates,
)
from planrace.scenarios import SCENARIOS, Scenario, get_scenario

COST = CostModel()


# --- rand_range_predicate --------------------------------------------------

def test_rand_range_predicate_stays_in_domain():
    rng = random.Random(1)
    for _ in range(500):
        p = rand_range_predicate("A", 0, 99_999, rng)
        assert 0 <= p.low < p.high <= 100_000


def test_rand_range_predicate_can_cover_domain():
    # width is drawn from [1, domain size]; force the maximal draw
    class FullWidth(random.Random):
        def randint(self, a, b):
            return b if (a, b) == (1, 100) else super().randint(a, b)

    p = rand_range_predicate("A", 0, 99, FullWidth())
    assert (p.low, p.high) == (0, 100)


def test_rand_range_predicate_seeded_reproducibility():
    a = [rand_range_predicate("A", 0, 999, random.Random(5)) for _ in range(1)]
    b = [rand_range_predicate("A", 0, 999, random.Random(5)) for _ in range(1)]
    assert a == b


# --- map_selectivity_to_cell -------------------------------------------------

@pytest.mark.parametrize("e,d,expected", [
    (0.999, 50, 49),
    (0.0, 50, 0),
    (0.5, 50, 25),
    (1.0, 50, 49),
    (0.02, 50, 1),
])
def test_map_selectivity_examples(e, d, expected):
    assert map_selectivity_to_cell(e, d) == expected


# --- quantiles and the outlier filter ---------------------------------------

def test_filter_outliers_reference_example():
    # Q1=5, Q3=6, fences [3.5, 7.5]
    assert filter_outliers([4, 5, 5, 6, 100]) == [4, 5, 5, 6]
    kept = filter_outliers([4, 5, 5, 6, 100])
    assert sum(kept) / len(kept) == 5.0


def test_filter_outliers_degenerate_cases():
    assert filter_outliers([7.0] * 6) == [7.0] * 6
    assert filter_outliers([3.5]) == [3.5]


def test_filter_outliers_low_side():
    assert filter_outliers([-100, 5, 5, 6, 6]) == [5, 5, 6, 6]


def test_filter_outliers_is_submultiset_and_bounded():
    rng = random.Random(8)
    for _ in range(200):
        samples = [rng.uniform(0, 100) for _ in range(rng.randint(1, 30))]
        kept = filter_outliers(samples)
        assert len(kept) >= (len(samples) + 1) // 2  # never more than half dropped
        remaining = list(samples)
        for x in kept:
            remaining.remove(x)  # raises if kept is not a sub-multiset


def test_quantiles_match_stdlib_reference():
    # statistics.quantiles(method="inclusive") is the same linear-interpolation
    # definition; use it as the independent oracle
    rng = random.Random(9)
    for _ in range(300):
        samples = [rng.gauss(50, 20) for _ in range(rng.randint(2, 40))]
        ref = statistics.quantiles(samples, n=4, method="inclusive")
        assert quantile_r7(samples, 0.25) == pytest.approx(ref[0], abs=1e-9)
        assert quantile_r7(samples, 0.75) == pytest.approx(ref[2], abs=1e-9)


# --- measurement -------------------------------------------------------------

@pytest.fixture(scope="module")
def small_world():
    collection = generate_dataset(1000, "uniform-distinct", seed=41)
    scenario = get_scenario("covering")
    return collection, scenario, scenario.build_catalog(collection)


def test_measure_all_plans_sim_mode_is_exact(small_world):
    collection, scenario, catalog = small_world
    q = scenario.make_query(RangePredicate("A", 0, 100), RangePredicate("B", 0, 500))
    times = measure_all_plans(q, collection, catalog, COST)
    assert times["COLLSCAN"] == 1000 * COST.c_seq
    assert times["IXSCAN_A"] == 100 * (COST.c_idx + COST.c_fetch)
    assert times["IXSCAN_B"] == 500 * (COST.c_idx + COST.c_fetch)
    assert times["IXSCAN_AB"] == 100 * COST.c_idx


def test_measure_all_plans_one_run_keeps_ten_sample_mean(small_world, monkeypatch):
    collection, scenario, catalog = small_world
    cost = CostModel(0.1, 0.3, 0.7)
    q = scenario.make_query(RangePredicate("A", 0, 37), RangePredicate("B", 0, 500))
    producible = producible_plans(q, catalog)
    calls = []

    def counted(*args):
        calls.append(args[0].id)
        return plan_cost_totals(*args)

    monkeypatch.setattr(harness, "plan_cost_totals", counted)
    times = measure_all_plans(q, collection, catalog, cost, reps=10)
    # one closed-form run per plan, not ten
    assert calls == [plan.id for plan in producible.values()]
    assert list(times) == list(producible)
    for name, shape_plan in producible.items():
        hinted = Query(q.predicates, q.projection, hint=shape_plan.id)
        plan = enumerate_candidates(hinted, catalog)[0]
        t, _ = plan_cost_totals(plan, collection, cost)
        kept = filter_outliers([t] * 10)  # what ten identical runs used to give
        assert times[name] == sum(kept) / len(kept)
    # ten summed copies of 37 * 0.3 do not divide back to it
    assert times["IXSCAN_AB"] != 37 * 0.3


@pytest.mark.parametrize("cost", [COST, CostModel(0.1, 0.3, 0.7)], ids=["default", "fractional"])
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_measure_grid_equals_plan_cost_totals(dist, cost):
    # measure_grid's closed form against hint forcing through plan_cost_totals,
    # for every producible plan of every cell of every scenario
    collection = generate_dataset(600, dist, seed=9)
    for name, scenario in SCENARIOS.items():
        catalog = scenario.build_catalog(collection)
        grid = sweep(scenario, collection, catalog, OptimizerVariant.MOD, d=6, seed=4)
        measure_grid(grid, collection, catalog, cost, reps=7)
        for cell in grid.sorted_cells():
            assert list(cell.per_plan_times.items()) == list(measure_all_plans(
                cell.query, collection, catalog, cost, reps=7).items()), (name, cell.i, cell.j)


def test_measure_grid_of_direct_fill_and_hand_built_cells(monkeypatch):
    # the direct fill's positions, and positions from Collection.positions
    # of cells built by hand, against hint forcing through plan_cost_totals
    monkeypatch.setattr(harness, "REJECTION_CAP", 2000)
    collection = generate_dataset(9, "uniform-distinct", seed=7)
    scenario = get_scenario("both-indexed")
    catalog = scenario.build_catalog(collection)
    grid = sweep(scenario, collection, catalog, OptimizerVariant.VANILLA, 10, 7)
    assert grid.filled_directly == 19
    by_hand = ExperimentGrid(d=2)
    for i, (la, ha, lb, hb) in enumerate([(0, 9, 3, 5), (-4, 2, 7, 40)]):
        query = scenario.make_query(RangePredicate("A", la, ha), RangePredicate("B", lb, hb))
        positions = query_positions(query, collection)
        by_hand.cells[(i, i)] = GridCell(i=i, j=i, e_a=0.0, e_b=0.0, query=query,
                                         chosen="COLLSCAN", positions=positions)
    for g in (grid, by_hand):
        measure_grid(g, collection, catalog, COST, reps=3)
        for cell in g.sorted_cells():
            assert cell.per_plan_times == measure_all_plans(
                cell.query, collection, catalog, COST, reps=3)


def test_a_cell_whose_query_lists_b_first_reads_its_positions_in_that_order():
    # positions come in the query's predicate order, B's range first here
    collection = generate_dataset(1000, "uniform-distinct", seed=41)
    scenario = get_scenario("covering")
    catalog = scenario.build_catalog(collection)
    query = Query((RangePredicate("B", 0, 500), RangePredicate("A", 0, 100)),
                  scenario.projection)
    positions = query_positions(query, collection)
    assert positions == (0, 500, 0, 100)
    assert optimize(query, collection, catalog, positions=positions) == optimize(
        query, collection, catalog)
    grid = ExperimentGrid(d=1)
    grid.cells[(0, 0)] = GridCell(i=0, j=0, e_a=0.1, e_b=0.5, query=query,
                                  chosen="IXSCAN_AB", positions=positions)
    measure_grid(grid, collection, catalog, COST)
    times = {"IXSCAN_A": 500.0, "IXSCAN_B": 2500.0, "IXSCAN_AB": 100.0, "COLLSCAN": 1000.0}
    assert grid.cells[(0, 0)].per_plan_times == times
    assert measure_all_plans(query, collection, catalog, COST) == times


def test_measure_grid_times_only_the_plans_a_shape_can_run(small_world):
    collection, scenario, catalog = small_world
    grid = sweep(scenario, collection, catalog, OptimizerVariant.VANILLA, d=2, seed=1)
    # no projection: the compound index does not cover the query, so no
    # IXSCAN_AB is producible, and none is timed
    for cell in grid.sorted_cells():
        cell.query = Query(cell.query.predicates)
    measure_grid(grid, collection, catalog, COST)
    for cell in grid.sorted_cells():
        assert list(cell.per_plan_times) == ["IXSCAN_A", "IXSCAN_B", "COLLSCAN"]
        assert cell.per_plan_times == measure_all_plans(cell.query, collection, catalog, COST)


def test_measure_all_plans_includes_collscan_even_when_never_chosen(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("both-indexed")
    catalog = scenario.build_catalog(collection)
    q = scenario.make_query(RangePredicate("A", 0, 10), RangePredicate("B", 0, 10))
    times = measure_all_plans(q, collection, catalog, COST)
    assert set(times) == {"IXSCAN_A", "IXSCAN_B", "COLLSCAN"}


# --- sweep -------------------------------------------------------------------

def test_sweep_visits_every_cell_once(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("both-indexed")
    catalog = scenario.build_catalog(collection)
    d = 6
    grid = sweep(scenario, collection, catalog, OptimizerVariant.VANILLA, d, seed=7)
    assert grid.complete
    assert len(grid.cells) == d * d
    for (i, j), cell in grid.cells.items():
        assert map_selectivity_to_cell(cell.e_a, d) == i
        assert map_selectivity_to_cell(cell.e_b, d) == j


def test_sweep_vanilla_never_chooses_collscan(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("both-indexed")
    catalog = scenario.build_catalog(collection)
    grid = sweep(scenario, collection, catalog, OptimizerVariant.VANILLA, 5, seed=3)
    assert all(cell.chosen != "COLLSCAN" for cell in grid.cells.values())


def test_sweep_deterministic_per_seed(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("both-indexed")
    catalog = scenario.build_catalog(collection)
    g1 = sweep(scenario, collection, catalog, OptimizerVariant.MOD, 5, seed=11)
    g2 = sweep(scenario, collection, catalog, OptimizerVariant.MOD, 5, seed=11)
    assert {k: v.chosen for k, v in g1.cells.items()} == \
           {k: v.chosen for k, v in g2.cells.items()}


def value_bounds(collection, field_name):
    """The smallest and largest value of a field: its sorted values' ends."""
    values = collection.sorted_values(field_name)
    return values[0], values[-1]


def reference_sweep(scenario, collection, catalog, variant, d, seed, cache=None):
    """The sweep loop built from the public per-draw functions, with its counters."""
    rng = random.Random(seed)
    n = len(collection)
    grid = ExperimentGrid(d=d)
    a_lo, a_hi = value_bounds(collection, "A")
    b_lo, b_hi = value_bounds(collection, "B")

    def record(i, j, query):
        result = optimize(query, collection, catalog, variant, RaceKnobs(), cache=cache)
        count_a, count_b = (match_count(collection, p) for p in query.predicates)
        grid.cells[(i, j)] = GridCell(i=i, j=j, e_a=count_a / n, e_b=count_b / n,
                                      query=query, chosen=str(result.chosen),
                                      positions=query_positions(query, collection))

    misses = 0
    while not grid.complete:
        pred_a = rand_range_predicate("A", a_lo, a_hi, rng)
        pred_b = rand_range_predicate("B", b_lo, b_hi, rng)
        grid.draws += 1
        count_a = match_count(collection, pred_a)
        count_b = match_count(collection, pred_b)
        i = harness._cell_from_count(count_a, n, d)
        j = harness._cell_from_count(count_b, n, d)
        if (i, j) in grid.cells:
            grid.rejections += 1
            misses += 1
            if misses >= harness.REJECTION_CAP:
                missing = [(x, y) for x in range(d) for y in range(d)
                           if (x, y) not in grid.cells]
                for fi, fj, la, ha, lb, hb, *_ in harness._direct_fill_cells(
                        collection, missing, d):
                    query = scenario.make_query(RangePredicate("A", la, ha),
                                                RangePredicate("B", lb, hb))
                    record(fi, fj, query)
                grid.filled_directly = len(missing)
                break
            continue
        misses = 0
        record(i, j, scenario.make_query(pred_a, pred_b))
    return grid


def query_positions(query, collection):
    """(start, end) of each of the query's ranges, flattened
    (Collection.positions)."""
    return tuple(k for p in query.predicates for k in collection.positions(p))


def cell_facts(grid):
    """Every cell in fill order, with its query bounds, plus the sweep's counters."""
    cells = []
    for (i, j), cell in grid.cells.items():
        bounds = [(p.field, p.low, p.high) for p in cell.query.predicates]
        cells.append(((i, j), cell.i, cell.j, bounds, cell.query.projection,
                      cell.e_a, cell.e_b, cell.chosen, cell.positions))
    return cells, (grid.draws, grid.rejections, grid.filled_directly)


SWEEP_SECONDS = 60


def sweep_timed_out(signum, frame):
    raise TimeoutError(f"sweep ran for over {SWEEP_SECONDS} s")


def assert_sweep_matches_reference(scenario, collection, d, seed,
                                   variant=OptimizerVariant.VANILLA, primed=None):
    catalog = scenario.build_catalog(collection)
    caches = [None, None]
    if primed is not None:
        caches = [primed_cache_for(scenario, parse_plan_hint(primed)) for _ in range(2)]
    # a draw whose retry accepts r == n leaves an empty range for the low
    # bound, and getrandbits(0) == 0 retries forever: fail instead of hanging
    handler = signal.signal(signal.SIGALRM, sweep_timed_out)
    signal.alarm(SWEEP_SECONDS)
    try:
        grid = sweep(scenario, collection, catalog, variant, d, seed, cache=caches[0])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    ref = reference_sweep(scenario, collection, catalog, variant, d, seed, cache=caches[1])
    assert cell_facts(grid) == cell_facts(ref)
    assert grid.complete and grid.draws == grid.rejections + d * d - grid.filled_directly
    return grid


@pytest.mark.parametrize("d", [1, 4, 10])
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("dist", ["uniform-distinct", "uniform-with-repeats", "zipfian"])
def test_sweep_draws_what_the_public_functions_draw(monkeypatch, dist, scenario_name, d):
    # a cap low enough that a grid with unreachable cells still ends quickly
    monkeypatch.setattr(harness, "REJECTION_CAP", 5000)
    collection = generate_dataset(300, dist, seed=17)
    assert_sweep_matches_reference(get_scenario(scenario_name), collection, d,
                                   seed=d + 5, variant=OptimizerVariant.MOD)


@pytest.mark.parametrize("dist,n", [
    ("uniform-distinct", 9), ("uniform-with-repeats", 7), ("zipfian", 9)])
def test_sweep_direct_fill_matches_reference(monkeypatch, dist, n):
    # fewer documents than columns: some rows and columns are unreachable,
    # and once the draws fill every reachable cell the direct fill builds
    # the others
    monkeypatch.setattr(harness, "REJECTION_CAP", 2000)
    collection = generate_dataset(n, dist, seed=7)
    grid = assert_sweep_matches_reference(get_scenario("both-indexed"), collection, 10, 7)
    rows, columns = (brute_force_buckets(collection.sorted_values(f), 10) for f in "AB")
    drawn = list(grid.cells)[:len(grid.cells) - grid.filled_directly]
    assert set(drawn) == {(i, j) for i in rows for j in columns}
    assert grid.filled_directly == 100 - len(drawn) > 0
    assert grid.rejections >= 2000


def test_a_cap_of_one_miss_fills_directly_at_the_first_miss(monkeypatch):
    # the cap ends the draws at the first miss
    monkeypatch.setattr(harness, "REJECTION_CAP", 1)
    collection = generate_dataset(9, "uniform-distinct", seed=7)
    grid = assert_sweep_matches_reference(get_scenario("both-indexed"), collection, 10, 7)
    assert grid.rejections == 1 and grid.filled_directly > 19


DENSE = list(range(9))
GAP_AND_REPEAT = [0, 1, 1, 2, 3, 4, 5, 7, 8]  # 1 twice, and no 6


@pytest.mark.parametrize("d", [4, 10])
@pytest.mark.parametrize("a_values,b_values", [
    (DENSE, GAP_AND_REPEAT),
    (GAP_AND_REPEAT, DENSE),
    ([x - 6 for x in DENSE], GAP_AND_REPEAT),  # a dense field starting below 0
], ids=["dense-a", "dense-b", "dense-a-below-0"])
def test_sweep_of_a_dense_and_a_non_dense_field_matches_reference(monkeypatch, a_values,
                                                                   b_values, d):
    # after the first miss the draws count the dense field from its width
    # and bisect the other; N = 9 < D = 10 leaves the dense field's bucket 0
    # unreachable, so the draws end at the cap and the direct fill runs
    monkeypatch.setattr(harness, "REJECTION_CAP", 2000)
    rng = random.Random(d)
    columns = {"A": list(a_values), "B": list(b_values)}
    for values in columns.values():
        rng.shuffle(values)
    collection = Collection("mixed", columns)
    assert sorted(draw_space(collection.sorted_values(f), d)[0] for f in "AB") == [False, True]
    grid = assert_sweep_matches_reference(get_scenario("both-indexed"), collection, d, seed=5)
    assert grid.rejections > 0
    assert (grid.filled_directly > 0) == (d == 10)


def test_sparse_sweep_counters_at_the_real_cap():
    # the benchmark's sparse-sweep draws (N = 9, D = 10, seed 7): about a
    # million rejected draws before the 19 unreachable cells are filled
    # directly, which the differentials above run only at small caps
    collection = generate_dataset(9, "uniform-distinct", seed=7)
    *cells, counters = harness.draw_cells(collection, 10, 7)
    assert len(cells) == 100
    assert counters == (1000283, 1000202, 19)


def spread_collection(a_bounds, b_bounds, n=50, seed=29):
    """n documents whose A and B values lie within the bounds and reach both ends."""
    rng = random.Random(seed)

    def column(lo, hi):
        values = [lo, hi] + [rng.randint(lo, hi) for _ in range(n - 2)]
        rng.shuffle(values)
        return values

    return Collection("spread", {"A": column(*a_bounds), "B": column(*b_bounds)})


@pytest.mark.parametrize("a_bounds,b_bounds", [
    # domain sizes above 2**32: getrandbits joins 32-bit words
    ((0, 2**40), (-2**39, 2**40 + 3)),
    # domain sizes of exactly 2**k, where n.bit_length() > (n - 1).bit_length()
    ((0, 2**6 - 1), (5, 2**6 + 4)),
    # and of 2**k + 1, where about half of the getrandbits values are retried
    ((0, 2**6), (-3, 2**6 - 3)),
])
def test_sweep_matches_reference_across_domain_sizes(monkeypatch, a_bounds, b_bounds):
    monkeypatch.setattr(harness, "REJECTION_CAP", 5000)
    collection = spread_collection(a_bounds, b_bounds)
    assert [value_bounds(collection, f) for f in "AB"] == [a_bounds, b_bounds]
    assert_sweep_matches_reference(get_scenario("both-indexed"), collection, 5, seed=13)


def test_randrange_draws_through_getrandbits():
    # sweep reads getrandbits as randrange does through this method; if a
    # Python release changes it, the golden digests move with it
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


def test_sweep_cache_primed_matches_reference(small_world):
    collection, scenario, _ = small_world
    grid = assert_sweep_matches_reference(scenario, collection, 8, 3, primed="IXSCAN_AB")
    assert {cell.chosen for cell in grid.cells.values()} == {"IXSCAN_AB"}
    assert grid.filled_directly == 0


# --- sweeping in process, sorting in workers ----------------------------------

SORTS = "the catalog's sort worker"
ORDERS = "the race layout's order worker"


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked during the test, by the worker's name,
    with a worker used whatever the number of CPUs and the collection's
    size."""
    forked = {SORTS: [], ORDERS: []}
    fork = workers.forked

    def recorded(produce, args, name):
        worker = fork(produce, args, name)
        if worker is not None:
            forked[name].append(worker._pid)
        return worker

    monkeypatch.setattr(workers, "forked", recorded)
    monkeypatch.setattr(workers, "can_overlap", lambda: True)
    monkeypatch.setattr(engine, "SORT_WORKER_MIN", 0)
    return forked


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def drawn_cells(grid, n):
    """Every cell in fill order as draw_cells gives it, and the counters."""
    cells = []
    for (i, j), cell in grid.cells.items():
        bounds = {p.field: (p.low, p.high) for p in cell.query.predicates}
        start_a, end_a, start_b, end_b = cell.positions
        assert [(end_a - start_a) / n, (end_b - start_b) / n] == [cell.e_a, cell.e_b]
        cells.append((i, j, *bounds["A"], *bounds["B"], *cell.positions))
    return [*cells, (grid.draws, grid.rejections, grid.filled_directly)]


def assert_positions_are_scan_ranges(grid, collection, catalog, variant):
    """Each cell's positions are fresh bisects of the fields' sorted values
    (Collection.positions), the length of every candidate and producible plan's
    scan (all N records for COLLSCAN) comes from the positions of the
    range it leads on, and their lengths are the cell's selectivities."""
    n = len(collection)
    for cell in grid.cells.values():
        q = cell.query
        assert cell.positions == query_positions(q, collection)
        start_a, end_a, start_b, end_b = cell.positions
        assert (cell.e_a, cell.e_b) == ((end_a - start_a) / n, (end_b - start_b) / n)
        lengths = {"A": end_a - start_a, "B": end_b - start_b, None: n}
        for plans in (shape_candidates(q, catalog, variant),
                      producible_plans(q, catalog).values()):
            for plan in plans:
                _, works = plan_cost_totals(CandidatePlan(plan, q), collection, COST)
                assert works == lengths[plan.leading] + 1


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("dist", ["uniform-distinct", "uniform-with-repeats", "zipfian"])
def test_sweep_records_the_cells_draw_cells_gives(monkeypatch, forks, dist, scenario_name):
    # zipfian data leaves cells unreachable: the cap ends their search quickly
    monkeypatch.setattr(harness, "REJECTION_CAP", 5000)
    collection = generate_dataset(2000, dist, seed=19)
    scenario = get_scenario(scenario_name)
    catalog = scenario.build_catalog(collection)
    grid = sweep(scenario, collection, catalog, OptimizerVariant.MOD, 8, seed=5)
    assert drawn_cells(grid, len(collection)) == list(harness.draw_cells(collection, 8, 5))
    # the run forks only to sort: single-index's catalog has one field to
    # sort, and its race layout sorts B's order for its index and A's for
    # its filters
    sorts = int(scenario_name != "single-index")
    assert {name: len(pids) for name, pids in forks.items()} == {SORTS: sorts, ORDERS: 1}
    assert_reaped(forks[SORTS] + forks[ORDERS])


def test_sweep_records_the_direct_fill_and_primed_sweeps(monkeypatch, forks, small_world):
    collection, scenario, catalog = small_world
    cache = primed_cache_for(scenario, parse_plan_hint("IXSCAN_AB"))
    grid = sweep(scenario, collection, catalog, OptimizerVariant.VANILLA, 8, 3, cache=cache)
    assert drawn_cells(grid, len(collection)) == list(
        harness.draw_cells(collection, 8, 3))
    assert_positions_are_scan_ranges(grid, collection, catalog, OptimizerVariant.VANILLA)
    assert forks[ORDERS] == []  # a primed sweep races nothing, so it builds no layout
    monkeypatch.setattr(harness, "REJECTION_CAP", 2000)
    tiny = generate_dataset(9, "uniform-distinct", seed=7)
    both = get_scenario("both-indexed")
    tiny_catalog = both.build_catalog(tiny)
    grid = sweep(both, tiny, tiny_catalog, OptimizerVariant.VANILLA, 10, 7)
    assert grid.filled_directly == 19
    assert drawn_cells(grid, 9) == list(harness.draw_cells(tiny, 10, 7))
    assert_positions_are_scan_ranges(grid, tiny, tiny_catalog, OptimizerVariant.VANILLA)


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_positions_are_every_plans_scan_range(monkeypatch, dist, scenario_name):
    monkeypatch.setattr(harness, "REJECTION_CAP", 5000)
    collection = generate_dataset(1000, dist, seed=21)
    scenario = get_scenario(scenario_name)
    catalog = scenario.build_catalog(collection)
    grid = sweep(scenario, collection, catalog, OptimizerVariant.MOD, 7, seed=6)
    assert_positions_are_scan_ranges(grid, collection, catalog, OptimizerVariant.MOD)


class Unreadable:
    """A column of n values that fails when any of them is read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, k):
        raise AssertionError("a column was read")

    def __iter__(self):
        raise AssertionError("a column was scanned")


def test_draws_and_direct_fill_scan_no_column_for_its_bounds(monkeypatch):
    # the bounds are the ends of the sorted count columns; the reference
    # sweeps above, which take the same ends, hold them equal
    monkeypatch.setattr(harness, "REJECTION_CAP", 2000)
    collection = generate_dataset(9, "uniform-distinct", seed=7)
    get_scenario("both-indexed").build_catalog(collection)
    monkeypatch.setattr(collection, "columns",
                        {f: Unreadable(len(column)) for f, column in collection.columns.items()})
    *cells, (_, _, filled_directly) = harness.draw_cells(collection, 10, 7)
    assert len(cells) == 100 and filled_directly == 19


def test_threads_keep_the_sorts_in_process(monkeypatch):
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert not workers.can_overlap()


def test_a_run_below_the_worker_minimum_forks_no_process(monkeypatch):
    # the benchmark's sparse-sweep data: 9 documents, both fields indexed
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(workers, "can_overlap", lambda: True)
    monkeypatch.setattr(harness, "REJECTION_CAP", 2000)
    collection = generate_dataset(9, "uniform-distinct", seed=7)
    assert len(collection) < engine.SORT_WORKER_MIN
    grid, _ = run_experiment(get_scenario("both-indexed"), collection,
                             OptimizerVariant.VANILLA, d=10, seed=7)
    assert grid.complete and set(collection._orders) == {("A",), ("B",)}
    assert pids == []


def boom():
    raise RuntimeError("boom")


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


def hang():
    while True:
        time.sleep(1)


def sort_both(scenario, collection, worker):
    """Build the scenario's catalog, and for ORDERS race one query, whose
    layout sorts the orders of the fields its plans lead or filter on."""
    catalog = scenario.build_catalog(collection)
    if worker == ORDERS:
        query = scenario.make_query(RangePredicate("A", 0, 100), RangePredicate("B", 0, 200))
        optimize(query, collection, catalog, OptimizerVariant.MOD)
    return catalog


def assert_sorted_as_in_process(collection):
    """Every array the collection built is byte-equal to the one a fresh
    collection of the same columns builds in this process."""
    fresh = Collection("fresh", dict(collection.columns))
    for field_name, values in collection._sorted_values.items():
        assert values.tobytes() == fresh.sorted_values(field_name).tobytes()
    for key_fields, order in collection._orders.items():
        assert order.tobytes() == fresh.order(*key_fields).tobytes()


@pytest.mark.parametrize("worker", [SORTS, ORDERS])
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_second_field_is_sorted_in_a_worker(forks, dist, scenario_name, worker):
    collection = generate_dataset(3000, dist, seed=23)
    scenario = get_scenario(scenario_name)
    catalog = sort_both(scenario, collection, worker)
    # single-index has one index, on one field, so its catalog has nothing
    # to sort alongside; its layout sorts A's order, for the filters, too
    assert len(forks[worker]) == (scenario_name != "single-index" or worker == ORDERS)
    assert forks[ORDERS] == [] or worker == ORDERS
    assert_reaped(forks[SORTS] + forks[ORDERS])
    assert_sorted_as_in_process(collection)
    assert {keys[0] for keys in catalog.indexes} <= set(collection._sorted_values)
    if worker == ORDERS:
        for keys in catalog.indexes:
            # equal values keep record_id order; a compound order without
            # repeated leading values is its leading field's order
            lead = keys[0]
            rids = sorted(range(len(collection)), key=lambda rid: tuple(
                collection.columns[f][rid] for f in keys))
            order = collection.order(*keys)
            assert order.tolist() == rids
            repeats = len(set(collection.columns[lead])) < len(collection)
            assert (order is collection.order(lead)) == (len(keys) == 1 or not repeats)


@pytest.mark.parametrize("worker", [SORTS, ORDERS])
@pytest.mark.parametrize("unavailable", ["fork", "pipe"])
def test_without_a_worker_both_fields_sort_here(monkeypatch, forks, unavailable, worker):
    def fail():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, unavailable, fail)
    collection = generate_dataset(2000, "zipfian", seed=3)
    sort_both(get_scenario("covering"), collection, worker)
    assert set(collection._orders) == ({("A",), ("B",), ("A", "B")} if worker == ORDERS
                                       else set())
    assert_sorted_as_in_process(collection)
    assert forks == {SORTS: [], ORDERS: []}


@pytest.mark.parametrize("worker", [SORTS, ORDERS])
def test_a_small_collection_sorts_both_fields_here(monkeypatch, forks, worker):
    monkeypatch.setattr(engine, "SORT_WORKER_MIN", 2001)
    collection = generate_dataset(2000, "zipfian", seed=3)
    sort_both(get_scenario("covering"), collection, worker)
    assert_sorted_as_in_process(collection)
    assert forks == {SORTS: [], ORDERS: []}


def test_built_fields_are_not_sorted_again(forks):
    # with A's order built, the layout has one order left: nothing to overlap
    collection = generate_dataset(2000, "zipfian", seed=3)
    collection.order("A")
    sort_both(get_scenario("covering"), collection, ORDERS)
    assert len(forks[SORTS]) == 1 and forks[ORDERS] == []
    assert_sorted_as_in_process(collection)


@pytest.mark.parametrize("worker", [SORTS, ORDERS])
@pytest.mark.parametrize("stop,message", [
    (boom, "failed: RuntimeError: boom"),
    (killed, "stopped before its result (killed by signal 9)"),
    (lambda: None, "sent 0 values for field 'B' of 2000 documents"),
])
def test_worker_failure_is_one_error_and_the_worker_is_reaped(monkeypatch, forks, worker,
                                                              stop, message):
    sorted_bytes = engine._sorted_bytes

    def failing(sort, field_name):
        # only a forked worker runs this, so stop() never ends this process
        if (sort.__name__ == "order") == (worker == ORDERS):
            stop()
            return b""
        return sorted_bytes(sort, field_name)

    monkeypatch.setattr(engine, "_sorted_bytes", failing)
    collection = generate_dataset(2000, "uniform-distinct", seed=3)
    with pytest.raises(PlanraceError) as err:
        sort_both(get_scenario("covering"), collection, worker)
    assert str(err.value) == f"{worker} {message}"
    assert len(forks[worker]) == 1
    assert_reaped(forks[SORTS] + forks[ORDERS])
    # the worker's field is left unbuilt
    assert ("B",) not in collection._orders if worker == ORDERS else (
        "B" not in collection._sorted_values)


def test_a_sort_that_fails_here_kills_and_reaps_the_worker(monkeypatch, forks):
    def failing_order(self, field_name):
        raise PlanraceError("order failed")

    # the worker hangs before its result; this process's sort fails first
    monkeypatch.setattr(engine, "_sorted_bytes", lambda sort, field_name: hang())
    monkeypatch.setattr(Collection, "order", failing_order)
    collection = generate_dataset(2000, "uniform-distinct", seed=3)
    with deadline(10), pytest.raises(PlanraceError, match="order failed"):
        collection.sort_fields(["A", "B"], orders=True)
    assert len(forks[ORDERS]) == 1
    assert_reaped(forks[ORDERS])


@contextmanager
def deadline(seconds):
    """SIGALRM raises TimeoutError after `seconds`, then again every second
    until the block ends, so that a wait on a worker that was never killed
    fails the test instead of hanging it."""

    def timed_out(signum, frame):
        signal.alarm(1)
        raise TimeoutError(f"ran for over {seconds} s")

    handler = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def test_deadline_bounds_a_hung_worker(monkeypatch, forks):
    monkeypatch.setattr(engine, "_sorted_bytes", lambda sort, field_name: hang())
    collection = generate_dataset(2000, "uniform-distinct", seed=3)
    with deadline(1), pytest.raises(TimeoutError):
        collection.sort_fields(["A", "B"], orders=False)
    assert len(forks[SORTS]) == 1
    assert_reaped(forks[SORTS])


def test_draws_in_a_full_row_skip_b_counts(monkeypatch):
    # the cells and counters are the reference's (the differentials above);
    # here B's range is bisected only for draws whose A row has an open
    # cell, on fields with repeated values, which the draws bisect
    collection = generate_dataset(300, "uniform-with-repeats", seed=17)
    b_values = collection.sorted_values("B")
    assert not any(draw_space(collection.sorted_values(f), 6)[0] for f in "AB")
    bisects = {"A": 0, "B": 0}

    def counted(values, x):
        bisects["B" if values is b_values else "A"] += 1
        return bisect_left(values, x)

    monkeypatch.setattr(harness, "bisect_left", counted)
    *cells, (draws, rejections, filled_directly) = harness.draw_cells(collection, 6, 2)
    assert len(cells) == 36 and filled_directly == 0
    assert bisects["A"] == 2 * draws
    assert 2 * len(cells) <= bisects["B"] < bisects["A"]


def test_dense_fields_are_never_bisected(monkeypatch):
    # A holds 0..8 and B 100..108: both dense, and with N < D row 0 and
    # column 0 are unreachable, so the last REJECTION_CAP draws, with every
    # reachable cell filled, find no open cell in any A row
    rng = random.Random(3)
    columns = {"A": list(range(9)), "B": list(range(100, 109))}
    for values in columns.values():
        rng.shuffle(values)
    collection = Collection("dense", columns)
    monkeypatch.setattr(harness, "REJECTION_CAP", 2000)
    b_values = collection.sorted_values("B")
    assert all(draw_space(collection.sorted_values(f), 10)[0] for f in "AB")
    bisects = {"A": 0, "B": 0}

    def bisected(values, x):
        bisects["B" if values is b_values else "A"] += 1
        return bisect_left(values, x)

    monkeypatch.setattr(harness, "bisect_left", bisected)
    *cells, (draws, rejections, filled_directly) = harness.draw_cells(collection, 10, 7)
    assert len(cells) == 100 and filled_directly == 19 and draws > 2000
    # each field's draw space is worked out before the first draw, so a
    # dense field's positions always come from its drawn offset and width
    assert bisects == {"A": 0, "B": 0}


def brute_force_counts(values):
    """The count of every (width, low) draw on these sorted values."""
    lo, hi = values[0], values[-1]
    return {bisect_left(values, low + width) - bisect_left(values, low)
            for width in range(1, hi - lo + 2) for low in range(lo, hi - width + 2)}


def brute_force_buckets(values, d):
    """The bucket of every (width, low) draw's count on these sorted values."""
    return {harness._cell_from_count(count, len(values), d) for count in brute_force_counts(values)}


def assert_range_has_count_in(values, found, least, below):
    low, high, start, end = found
    assert values[0] <= low < high <= values[-1] + 1
    assert (start, end) == (bisect_left(values, low), bisect_left(values, high))
    assert least <= end - start < below


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_ranges_with_each_count_are_every_draws_counts(dist):
    for n in (1, 2, 3, 5, 9, 13, 20, 30):
        for seed in range(3):
            collection = generate_dataset(n, dist, seed)
            for field_name in "AB":
                values = collection.sorted_values(field_name)
                found = {count: range_with_count(values, count, count + 1)
                         for count in range(n + 1)}
                assert {count for count, r in found.items() if r} == brute_force_counts(values)
                for count, r in found.items():
                    if r:
                        assert_range_has_count_in(values, r, count, count + 1)


@pytest.mark.parametrize("values", [
    [0, 0, 0, 5, 9, 9, 9, 9, 20], [3] * 12, [0, 1, 1, 3, 4], [0] * 5 + [1] * 10,
    [-3] * 20 + [-2, 5] + [6] * 9, list(range(9)),
])
def test_range_with_count_in_any_span_of_counts(values):
    values = array("q", values)
    counts = brute_force_counts(values)
    for least in range(len(values) + 1):
        for below in range(least + 1, len(values) + 2):
            found = range_with_count(values, least, below)
            assert (found is not None) == any(least <= c < below for c in counts)
            if found:
                assert_range_has_count_in(values, found, least, below)


def test_direct_fill_labels_rare_reachable_cells():
    # the cells that the zipfian CLI run (N = 5000, D = 10, seed 7) leaves
    # after REJECTION_CAP misses: every one is reachable, at a few in 10**7
    # draws or less, and gets ranges whose counts fall in it
    collection = generate_dataset(5000, "zipfian", seed=7)
    cells = [(4, 8), (5, 8), (6, 8), (7, 8), (8, 5), (8, 6), (8, 8), (8, 9), (9, 8)]
    filled = harness._direct_fill_cells(collection, cells, 10)
    assert [cell[:2] for cell in filled] == cells
    for i, j, low_a, high_a, low_b, high_b, start_a, end_a, start_b, end_b in filled:
        for field_name, low, high, start, end, k in (("A", low_a, high_a, start_a, end_a, i),
                                                     ("B", low_b, high_b, start_b, end_b, j)):
            assert match_count(collection, RangePredicate(field_name, low, high)) == end - start
            assert harness._cell_from_count(end - start, len(collection), 10) == k
            assert_range_has_count_in(collection.sorted_values(field_name), (
                low, high, start, end), *harness._bucket_firsts(len(collection), 10)[k:k + 2])


def test_direct_fill_keeps_its_old_query_for_unreachable_cells():
    # sparse-sweep's data: bucket 0, count 0, is reached on neither field,
    # so its row and column keep ranges from the smallest value
    collection = generate_dataset(9, "uniform-distinct", seed=7)
    cells = [(0, 0), (0, 5), (5, 0), (5, 5)]
    filled = harness._direct_fill_cells(collection, cells, 10)
    assert [cell[:6] for cell in filled[:3]] == [
        (0, 0, 0, 1, 0, 1), (0, 5, 0, 1, 0, 4), (5, 0, 0, 4, 0, 1)]
    i, j, *_, start_a, end_a, start_b, end_b = filled[3]
    assert (end_a - start_a, end_b - start_b) == (5, 5)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 10, 31])
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_reachable_buckets_are_every_draws_buckets(dist, d):
    # exact on a dense field, a superset on any other
    for n in (1, 2, 3, 5, 9, 13, 20, 30):
        for seed in range(3):
            collection = generate_dataset(n, dist, seed)
            for field_name in "AB":
                values = collection.sorted_values(field_name)
                dense, reachable = draw_space(values, d)
                drawn = brute_force_buckets(values, d)
                assert reachable == drawn if dense else reachable >= drawn, \
                    (n, seed, field_name)


@pytest.mark.parametrize("d", [1, 2, 5, 10, 25])
@pytest.mark.parametrize("values", [
    [0, 0, 0, 5, 9, 9, 9, 9, 20],  # gaps and a heavy repeat
    [3] * 12,  # one value: every range counts 0 or N
    [-7, 1, 1, 1, 1, 1, 1, 1, 1, 2, 40],
    [0, 2, 4, 6, 8, 10, 12],  # a gap of 2 between every two neighbours
    [0, 1, 1, 3, 4],  # N - 1 apart at the ends, and neither dense nor gapless
    [0, 1, 2, 3, 100, 101, 102, 103, 104],
    [-3] * 20 + [-2, 5] + [6] * 9,
    [0] * 5 + [1] * 10,  # counts 5, 10 and 15 alone: inside a bucket, not at its ends
])
def test_reachable_buckets_of_hand_built_fields(values, d):
    dense, reachable = draw_space(array("q", values), d)
    assert not dense and reachable >= brute_force_buckets(values, d)


def test_reachable_buckets_hold_count_zero_only_where_values_leave_a_gap():
    # N = 2, D = 10: bucket 0 holds count 0 alone, bucket 5 count 1 and
    # bucket 9 count 2
    assert draw_space(array("q", [0, 1]), 10) == (True, {5, 9})
    assert draw_space(array("q", [0, 2]), 10) == (False, {0, 5, 9})
    # only count 2 is drawn here, but every bucket holding a count from 1
    # to N stays in the superset
    assert brute_force_buckets(array("q", [4, 4]), 10) == {9}
    assert draw_space(array("q", [4, 4]), 10) == (False, {5, 9})


def test_dense_is_one_run_of_consecutive_distinct_values():
    for n in (1, 2, 9, 300):
        for seed in range(3):
            collection = generate_dataset(n, "uniform-distinct", seed)
            assert all(draw_space(collection.sorted_values(f), 10)[0] for f in "AB")
    assert draw_space(array("q", range(-4, 20)), 10)[0]  # a run need not start at 0
    for values in ([0, 1, 1, 3, 4],  # one value shifted onto its neighbour
                   [0, 1, 2, 3, 5],  # the last value shifted up: a gap
                   [0, 2, 3, 4], [0, 0, 1, 2], [3] * 5, [-1, 1]):
        assert not draw_space(array("q", values), 10)[0], values
    for dist in ("uniform-with-repeats", "zipfian"):
        for seed in range(5):
            values = generate_dataset(50, dist, seed).sorted_values("B")
            assert len(set(values)) < 50
            assert not draw_space(values, 10)[0]


@pytest.mark.parametrize("dist", ["uniform-distinct", "uniform-with-repeats", "zipfian"])
def test_match_count_bisects_the_sorted_values(dist):
    collection = generate_dataset(400, dist, seed=23)
    get_scenario("single-index").build_catalog(collection)  # indexes B only
    assert set(collection._sorted_values) == {"B"}
    rng = random.Random(4)
    for _ in range(200):
        field_name = rng.choice("AB")
        low = rng.randint(-5, 400)
        pred = RangePredicate(field_name, low, low + rng.randint(0, 200))
        scan = sum(pred.low <= v < pred.high for v in collection.columns[field_name])
        values = collection.sorted_values(field_name)
        bisected = bisect_left(values, pred.high) - bisect_left(values, pred.low)
        assert match_count(collection, pred) == bisected == scan
        assert selectivity(collection, pred) == scan / len(collection)


# --- finalize ----------------------------------------------------------------

def synthetic_grid(cell_rows, d=2):
    grid = ExperimentGrid(d=d)
    dummy_pred = (RangePredicate("A", 0, 1), RangePredicate("B", 0, 1))
    from planrace.engine import Query
    for (i, j, chosen, times) in cell_rows:
        grid.cells[(i, j)] = GridCell(i=i, j=j, e_a=0.0, e_b=0.0,
                                      query=Query(dummy_pred), chosen=chosen,
                                      positions=(0, 0, 0, 0), per_plan_times=times)
    return grid


def test_finalize_accuracy_and_impact():
    t_fast = {"IXSCAN_A": 10.0, "COLLSCAN": 20.0}
    t_slow = {"IXSCAN_A": 40.0, "COLLSCAN": 20.0}
    grid = synthetic_grid([
        (0, 0, "IXSCAN_A", dict(t_fast)),
        (0, 1, "IXSCAN_A", dict(t_slow)),   # ratio 2.0
        (1, 0, "COLLSCAN", dict(t_slow)),
        (1, 1, "IXSCAN_A", dict(t_fast)),
    ])
    _, metrics = finalize(grid)
    assert metrics.accuracy == 0.75
    assert metrics.impact_pct == pytest.approx(25.0)  # one cell 100% over, rest 0
    assert grid.cells[(0, 1)].optimal == "COLLSCAN"
    assert grid.cells[(0, 1)].ratio == pytest.approx(2.0)


def test_finalize_all_correct():
    t = {"IXSCAN_A": 5.0, "COLLSCAN": 9.0}
    grid = synthetic_grid([(i, j, "IXSCAN_A", dict(t)) for i in range(2) for j in range(2)])
    _, metrics = finalize(grid)
    assert metrics.accuracy == 1.0
    assert metrics.impact_pct == 0.0


def test_finalize_tie_goes_to_chosen_plan():
    tie = {"IXSCAN_A": 7.0, "COLLSCAN": 7.0}
    grid = synthetic_grid([(0, 0, "COLLSCAN", dict(tie)),
                           (0, 1, "IXSCAN_A", dict(tie)),
                           (1, 0, "IXSCAN_B", {"IXSCAN_B": 9.0, **tie}),
                           (1, 1, "IXSCAN_A", dict(tie))])
    _, metrics = finalize(grid)
    assert grid.cells[(0, 0)].optimal == "COLLSCAN"
    assert grid.cells[(0, 1)].optimal == "IXSCAN_A"
    # chosen not among the tied minimum: canonical plan-id order applies
    assert grid.cells[(1, 0)].optimal == "COLLSCAN"
    assert metrics.accuracy == 0.75


def test_finalize_zero_time_chosen_plan_has_ratio_one():
    # the query matches nothing on A: the chosen IXSCAN_A takes no time at all
    grid = synthetic_grid([
        (0, 0, "IXSCAN_A", {"IXSCAN_A": 0.0, "IXSCAN_B": 0.0, "COLLSCAN": 2000.0}),
        (0, 1, "IXSCAN_A", {"IXSCAN_A": 0.0, "IXSCAN_B": 45.0, "COLLSCAN": 2000.0}),
    ])
    _, metrics = finalize(grid)
    assert [c.ratio for c in grid.sorted_cells()] == [1.0, 1.0]
    assert [c.optimal for c in grid.sorted_cells()] == ["IXSCAN_A", "IXSCAN_A"]
    assert metrics == SummaryMetrics(accuracy=1.0, impact_pct=0.0)


def test_finalize_leaves_unbounded_ratio_empty():
    # the chosen COLLSCAN takes time where IXSCAN_A takes none: mischosen,
    # with no ratio, and left out of the impact mean
    grid = synthetic_grid([
        (0, 0, "IXSCAN_A", {"IXSCAN_A": 5.0, "COLLSCAN": 15.0}),
        (0, 1, "COLLSCAN", {"IXSCAN_A": 5.0, "COLLSCAN": 15.0}),   # ratio 3.0
        (1, 0, "COLLSCAN", {"IXSCAN_A": 0.0, "COLLSCAN": 2000.0}),
    ])
    _, metrics = finalize(grid)
    unbounded = grid.cells[(1, 0)]
    assert (unbounded.optimal, unbounded.ratio) == ("IXSCAN_A", None)
    assert metrics == SummaryMetrics(accuracy=1 / 3, impact_pct=100.0)
    assert finalize(grid)[1] == metrics


def test_finalize_rejects_grid_without_bounded_ratio():
    grid = synthetic_grid([(0, 0, "COLLSCAN", {"IXSCAN_A": 0.0, "COLLSCAN": 2000.0})], d=1)
    with pytest.raises(PlanraceError, match="no slowdown is bounded") as err:
        finalize(grid)
    assert "\n" not in str(err.value)


def test_finalize_is_idempotent():
    t = {"IXSCAN_A": 5.0, "COLLSCAN": 9.0}
    grid = synthetic_grid([(0, 0, "COLLSCAN", dict(t)),
                           (0, 1, "IXSCAN_A", dict(t)),
                           (1, 0, "IXSCAN_A", dict(t)),
                           (1, 1, "IXSCAN_A", dict(t))])
    _, m1 = finalize(grid)
    _, m2 = finalize(grid)
    assert m1 == m2


def test_finalize_invariant_under_time_rescale(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("both-indexed")
    catalog = scenario.build_catalog(collection)
    grid = sweep(scenario, collection, catalog, OptimizerVariant.VANILLA, 4, seed=19)
    measure_grid(grid, collection, catalog, COST)
    _, base = finalize(grid)
    grid2 = sweep(scenario, collection, catalog, OptimizerVariant.VANILLA, 4, seed=19)
    measure_grid(grid2, collection, catalog, CostModel(3.0, 3.0, 12.0))
    _, scaled = finalize(grid2)
    assert scaled.accuracy == base.accuracy
    assert scaled.impact_pct == pytest.approx(base.impact_pct)
    assert {k: c.optimal for k, c in grid2.cells.items()} == \
           {k: c.optimal for k, c in grid.cells.items()}


def test_ratios_never_below_one(small_world):
    collection, scenario, catalog = small_world
    grid = sweep(scenario, collection, catalog, OptimizerVariant.VANILLA, 4, seed=2)
    measure_grid(grid, collection, catalog, COST)
    _, _ = finalize(grid)
    assert all(cell.ratio >= 1.0 for cell in grid.cells.values())


# --- cache experiment ----------------------------------------------------------

def test_cache_experiment_chooses_primed_plan_everywhere(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("single-index")
    grid, _ = run_experiment(scenario, collection, OptimizerVariant.VANILLA,
                             d=4, seed=13, primed=parse_plan_hint("COLLSCAN"))
    assert {cell.chosen for cell in grid.cells.values()} == {"COLLSCAN"}


def test_cache_experiment_accuracy_is_primed_optimal_fraction(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("both-indexed")
    grid, metrics = run_experiment(scenario, collection, OptimizerVariant.VANILLA,
                                   d=4, seed=13, primed=parse_plan_hint("IXSCAN_A"))
    truly = sum(1 for cell in grid.cells.values() if cell.optimal == "IXSCAN_A")
    assert metrics.accuracy == truly / len(grid.cells)


def test_cache_experiment_covering_primed_cover_wins(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("covering")
    accs = {}
    for primed in ("IXSCAN_AB", "IXSCAN_A", "IXSCAN_B", "COLLSCAN"):
        _, m = run_experiment(scenario, collection, OptimizerVariant.VANILLA,
                              d=4, seed=29, primed=parse_plan_hint(primed))
        accs[primed] = m.accuracy
    assert accs["IXSCAN_AB"] == max(accs.values())


def test_primed_cache_is_a_plain_dict_of_the_query_shape():
    scenario = get_scenario("covering")
    plan = parse_plan_hint("IXSCAN_AB")
    cache = primed_cache_for(scenario, plan)
    query = scenario.make_query(RangePredicate("A", 3, 9), RangePredicate("B", 0, 2))
    assert type(cache) is dict and cache == {engine.query_shape(query): plan}


def test_cache_experiment_rejects_unexecutable_plan(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("both-indexed")
    with pytest.raises(UnknownPlanError):
        primed_cache_for(scenario, parse_plan_hint("IXSCAN_AB"))


# --- run_experiment end to end -----------------------------------------------

def test_run_experiment_full_pipeline(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("both-indexed")
    grid, metrics = run_experiment(scenario, collection, OptimizerVariant.VANILLA,
                                   d=5, seed=1)
    assert grid.complete
    assert 0.0 <= metrics.accuracy <= 1.0
    assert metrics.impact_pct >= 0.0
    assert grid.provenance["scenario"] == "both-indexed"
    assert grid.provenance["variant"] == "vanilla"
    for cell in grid.cells.values():
        assert set(cell.per_plan_times) == {"IXSCAN_A", "IXSCAN_B", "COLLSCAN"}
    # high-selectivity corner: a full scan is cheapest; low corner: an index is
    assert grid.cells[(4, 4)].optimal == "COLLSCAN"
    assert grid.cells[(0, 0)].optimal in ("IXSCAN_A", "IXSCAN_B")


def test_run_experiment_pure_function_of_inputs(small_world):
    collection, _, _ = small_world
    scenario = get_scenario("covering")
    knobs = RaceKnobs(5000, 0.3, 101)
    r1 = run_experiment(scenario, collection, OptimizerVariant.MOD, d=4, seed=9, knobs=knobs)
    r2 = run_experiment(scenario, collection, OptimizerVariant.MOD, d=4, seed=9, knobs=knobs)
    assert r1[1] == r2[1]


# --- what a run builds of its indexes ----------------------------------------

@pytest.fixture
def built_catalogs(monkeypatch):
    """Every catalog that Scenario.build_catalog returns during the test."""
    catalogs = []
    build = Scenario.build_catalog

    def record(self, collection):
        catalogs.append(build(self, collection))
        return catalogs[-1]

    monkeypatch.setattr(Scenario, "build_catalog", record)
    return catalogs


@pytest.mark.parametrize("primed", ["IXSCAN_AB", "IXSCAN_A", "IXSCAN_B", "COLLSCAN"])
def test_primed_run_builds_only_leading_columns(built_catalogs, primed):
    collection = generate_dataset(2000, "uniform-with-repeats", seed=5)
    run_experiment(get_scenario("covering"), collection, OptimizerVariant.VANILLA,
                   d=5, seed=3, primed=parse_plan_hint(primed))
    (catalog,) = built_catalogs
    assert collection._orders == {}
    assert collection.race_layouts == {}  # no race, so no race layout
    assert catalog.indexes == (("A",), ("B",), ("A", "B"))


COVERING_BA = Scenario("covering-BA", (("B",), ("A",), ("B", "A")),
                       projection=Projection(("A", "B"), suppress_record_id=True))


@pytest.mark.parametrize("scenario", [get_scenario("covering"), COVERING_BA],
                         ids=["AB", "BA"])
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_raced_run_builds_indexes_equal_to_full_builds(built_catalogs, dist, scenario):
    collection = generate_dataset(2000, dist, seed=5)
    run_experiment(scenario, collection, OptimizerVariant.MOD, d=5, seed=3)
    (catalog,) = built_catalogs
    n = len(collection)
    expected = set()
    # the race built every index's order
    assert set(collection._orders) == set(catalog.indexes)
    for keys in catalog.indexes:
        # every plan races; each index plan filters on its non-leading field
        # through that field's bucket column in the index's order; a
        # compound index in its leading field's order is masked as that one
        lead = keys[0]
        other = "B" if lead == "A" else "A"
        order = collection.order(*keys)
        expected.add((id(order), (other,)))
        columns = [collection.columns[f] for f in keys]
        assert order == array("q", sorted(
            range(n), key=lambda rid: (*(column[rid] for column in columns), rid)))
        assert collection.sorted_values(lead) == array("q", sorted(collection.columns[lead]))
    # one race layout, with no index-order scan beyond those the plans filter through
    (layout,) = collection.race_layouts.values()
    assert {(id(rids), tuple(f for f, _, _ in filters))
            for _, rids, filters in layout.scans if rids is not None} == expected


@pytest.mark.parametrize("hint", [None, *PLAN_ID_ORDER])
@pytest.mark.parametrize("variant", list(OptimizerVariant))
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_first_race_sorts_the_orders_its_plans_lead_or_filter_on(scenario_name, variant, hint):
    # the index plans scan their leading fields' orders, and every filtered
    # field's bucket column is scattered from its order; a field the query
    # does not name (C) is never sorted
    collection = generate_dataset(2000, "uniform-distinct", seed=5)
    collection = Collection("three", {**collection.columns, "C": collection.columns["A"]})
    scenario = get_scenario(scenario_name)
    catalog = scenario.build_catalog(collection)
    assert collection._orders == {}
    query = scenario.make_query(RangePredicate("A", 100, 900), RangePredicate("B", 300, 1500),
                                hint=None if hint is None else parse_plan_hint(hint))
    try:
        optimize(query, collection, catalog, variant)
    except UnknownPlanError:
        assert collection._orders == {}  # a hint the catalog cannot produce builds nothing
        return
    (layout,) = collection.race_layouts.values()
    read = {plan.leading for plan in layout.plans if plan.leading is not None}
    read |= {f for plan in layout.plans for f in plan.filters}
    scanned = {plan.id.key_fields for plan in layout.plans if plan.leading is not None}
    assert set(collection._orders) == {(f,) for f in read} | scanned and read <= {"A", "B"}


def test_a_raced_single_index_run_sorts_its_second_order_in_a_worker(monkeypatch):
    # single-index's catalog sorts B's values alone; its race layout sorts
    # B's order for the index and A's for the filters, the second in a worker
    forked = []
    fork = workers.forked

    def recorded(produce, args, name):
        worker = fork(produce, args, name)
        forked.append((name, None if worker is None else worker._pid))
        return worker

    monkeypatch.setattr(workers, "forked", recorded)
    monkeypatch.setattr(workers, "can_overlap", lambda: True)
    collection = generate_dataset(engine.SORT_WORKER_MIN, "uniform-distinct", seed=3)
    scenario = get_scenario("single-index")
    catalog = scenario.build_catalog(collection)
    assert forked == []
    query = scenario.make_query(RangePredicate("A", 0, 100), RangePredicate("B", 0, 200))
    optimize(query, collection, catalog, OptimizerVariant.MOD)
    ((name, pid),) = forked
    assert name == ORDERS and pid is not None
    assert_reaped([pid])
    assert set(collection._orders) == {("A",), ("B",)}
    assert_sorted_as_in_process(collection)
