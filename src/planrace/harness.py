"""Selectivity-grid evaluation: sweep, forced measurement, and metrics.

The harness drives the optimizer over a D x D grid of (e_A, e_B)
selectivities. Random range queries are drawn until every cell has been
visited once, or until REJECTION_CAP draws in a row miss, when the cells
left are built from the fields' sorted values; the sweep races each cell
as draw_cells gives it and records the optimizer's choice. Every plan the
query's shape can run (plans.producible_plans; collection scan included,
whether or not the optimizer would consider it) is then timed
(measure_grid). The simulated clock makes every repeated run of a plan
identical, so forced measurement takes one closed-form time per plan and a
run drops no outliers; filter_outliers (the 1.5 IQR rule) stays only as the
reference acceptance criterion 11 checks. Each cell's chosen plan is then
compared against the true argmin to yield an accuracy fraction and a mean
slowdown.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import ne

from .engine import (
    Collection,
    Index,
    IndexCatalog,
    Query,
    RangePredicate,
    match_count,
    query_shape,
)
from .errors import PlanraceError, UnknownPlanError
from .executor import CostModel, plan_cost_totals, step_time
from .optimizer import PlanCache, RaceKnobs, optimize
from .plans import (
    CandidatePlan,
    OptimizerVariant,
    PlanId,
    plan_order_key,
    producible_plans,
)
from .scenarios import Scenario

# Give up on rejection sampling after this many consecutive misses and fill
# the remaining cells by direct construction.
REJECTION_CAP = 1_000_000


@dataclass
class GridCell:
    """One visited cell: its query, the optimizer's choice and, once
    measured and finalized, every producible plan's time and the verdict.

    positions are (start_a, end_a, start_b, end_b): where the query's A and
    B ranges start and end in the fields' sorted values
    (Collection.sorted_values), so end - start is a range's match count.
    Every access order leading on a field follows those sorted values, so
    they are also the scan range of every plan on that field. The sweep
    gets them from its draws; a cell built otherwise can take them from
    Collection.positions.
    """

    i: int
    j: int
    e_a: float
    e_b: float
    query: Query
    chosen: str
    positions: tuple[int, int, int, int]
    per_plan_times: dict[str, float] = field(default_factory=dict)
    optimal: str | None = None
    ratio: float | None = None


@dataclass
class ExperimentGrid:
    d: int
    cells: dict[tuple[int, int], GridCell] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    # how sweep filled the grid: random draws, draws that landed in a filled
    # cell, and cells constructed after REJECTION_CAP consecutive such draws;
    # kept out of the report files
    draws: int = 0
    rejections: int = 0
    filled_directly: int = 0

    def sorted_cells(self) -> list[GridCell]:
        return [self.cells[key] for key in sorted(self.cells)]

    @property
    def complete(self) -> bool:
        return len(self.cells) == self.d * self.d


@dataclass(frozen=True)
class SummaryMetrics:
    accuracy: float
    impact_pct: float


def rand_range_predicate(field_name: str, lo: int, hi: int, rng: random.Random) -> RangePredicate:
    """Random half-open range inside [lo, hi]: width uniform on [1, domain size]."""
    domain = hi - lo + 1
    width = rng.randint(1, domain)
    low = rng.randint(lo, hi - width + 1)
    return RangePredicate(field_name, low, low + width)


def map_selectivity_to_cell(e: float, d: int) -> int:
    """Bucket a selectivity in [0, 1] onto grid coordinate 0..d-1."""
    return min(int(e * d), d - 1)


def _cell_from_count(count: int, n: int, d: int) -> int:
    # integer form of map_selectivity_to_cell(count / n, d); avoids the float
    # rounding that can land an exact count in the neighboring bucket
    return min(count * d // n, d - 1)


def quantile_r7(samples: list[float], p: float) -> float:
    """Linear-interpolation quantile on the sorted sample."""
    s = sorted(samples)
    if len(s) == 1:
        return s[0]
    h = (len(s) - 1) * p
    f = math.floor(h)
    c = min(f + 1, len(s) - 1)
    return s[f] + (h - f) * (s[c] - s[f])


def filter_outliers(samples: list[float]) -> list[float]:
    """Drop samples outside [Q1 - 1.5 IQR, Q3 + 1.5 IQR]; order preserved."""
    if not samples:
        raise ValueError("need at least one sample")
    q1 = quantile_r7(samples, 0.25)
    q3 = quantile_r7(samples, 0.75)
    spread = 1.5 * (q3 - q1)
    lo, hi = q1 - spread, q3 + spread
    return [x for x in samples if lo <= x <= hi]


def measure_all_plans(query: Query, collection: Collection, catalog: IndexCatalog,
                      cost: CostModel, reps: int = 10) -> dict[str, float]:
    """Mean post-filter run time of every plan the query's shape can run
    (producible_plans), each run in full (plan_cost_totals).

    The simulated executor makes all reps identical, so one run stands for
    all of them.
    """
    if reps < 1:
        raise ValueError("need at least one sample")
    return {name: _mean_of_reps(plan_cost_totals(
                CandidatePlan(plan, query), collection, cost)[0], reps)
            for name, plan in producible_plans(query, catalog).items()}


def _mean_of_reps(t: float, reps: int) -> float:
    # reps identical samples all pass the outlier filter; summing them keeps
    # the float rounding of their mean, which can differ from t
    return sum([t] * reps) / reps


def _direct_fill_cells(collection: Collection, missing: list[tuple[int, int]],
                       d: int) -> list[tuple[int, ...]]:
    # A query per unvisited cell, as draw_cells gives a cell: ranges whose
    # counts fall in it (range_with_count) where drawn ranges reach it, else
    # ranges from each field's smallest value, positions (0, count), over
    # max(1, the cell's centre count) integers (ROADMAP item 2).
    n = len(collection)
    firsts = _bucket_firsts(n, d)
    found = {}  # (field, bucket): range_with_count's range, or None
    out = []
    for (i, j) in missing:
        cell = (("A", i), ("B", j))
        for field_name, k in cell:
            if (field_name, k) not in found:
                found[field_name, k] = range_with_count(
                    collection.sorted_values(field_name), firsts[k], firsts[k + 1])
        ranges = [found[key] for key in cell]
        if None in ranges:
            ranges = []
            for field_name, k in cell:
                lo = collection.sorted_values(field_name)[0]
                high = lo + max(1, ((2 * k + 1) * n) // (2 * d))
                ranges.append((lo, high, 0, match_count(collection,
                                                        RangePredicate(field_name, lo, high))))
        (low_a, high_a, start_a, end_a), (low_b, high_b, start_b, end_b) = ranges
        out.append((i, j, low_a, high_a, low_b, high_b, start_a, end_a, start_b, end_b))
    return out


def _bucket_firsts(n: int, d: int) -> list[int]:
    # bucket i (_cell_from_count) holds the counts firsts[i] to firsts[i + 1] - 1:
    # count * d // n >= i exactly when count >= ceil(i * n / d)
    return [0] + [-(-i * n // d) for i in range(1, d)] + [n + 1]


def range_with_count(values: array, least: int, below: int
                     ) -> tuple[int, int, int, int] | None:
    """(low, high, start, end) of a range a draw can give (within [lo, hi +
    1), rand_range_predicate) on a field with these sorted values, whose
    bounds' bisect_left positions start and end differ by a count in [least,
    below); None where there is none. Every start where a distinct value
    starts and later such place or N is a range's; a count of 0 is the range
    [g, g + 1) of an integer g in [lo, hi] that no record holds. O(N)."""
    n = len(values)
    if least == 0:
        gap = next((k for k in range(1, n) if values[k] > values[k - 1] + 1), None)
        if gap is not None:
            return values[gap - 1] + 1, values[gap - 1] + 2, gap, gap
        least = 1
    starts = [0, *compress(range(1, n), map(ne, islice(values, 1, None), values))]
    bounds = starts + [n]
    k = 0  # the first bound at least start + least; it only moves up
    for start in starts:
        if start + least > n:
            break
        while bounds[k] < start + least:
            k += 1
        if bounds[k] < start + below:
            end = bounds[k]
            return values[start], values[end] if end < n else values[-1] + 1, start, end
    return None


def draw_space(values: array, d: int) -> tuple[bool, set[int]]:
    """(dense, reachable) for a field with these sorted values, non-empty.

    dense: the values are one run of consecutive distinct integers, so the
    bisect_left position of any x in [lo, hi + 1] is x - lo. reachable: the
    grid buckets (_cell_from_count) that a drawn range's match count may
    land in, a superset of those it can land in.

    A drawn range [low, high) is any one with lo <= low < high <= hi + 1
    (rand_range_predicate), so its count is from 0 to N, and 0 only where
    two neighbouring values leave a gap, some integer of [lo, hi] that no
    record holds. reachable is every bucket that holds one of those counts:
    exact on a dense field, whose counts are exactly 1..N, and a superset
    on any other, whose counts may skip some of 1..N. O(N + D).
    """
    n = len(values)
    distinct = 1 + sum(map(ne, islice(values, 1, None), values))
    span = values[-1] - values[0] + 1
    firsts = _bucket_firsts(n, d)
    least = 0 if distinct < span else 1
    reachable = {i for i in range(d) if max(firsts[i], least) < firsts[i + 1]}
    return distinct == n == span, reachable


def draw_cells(collection: Collection, d: int, seed: int):
    """Yield the cells the sweep fills, in fill order, then its counters.

    A cell is (i, j, low_a, high_a, low_b, high_b, start_a, end_a, start_b,
    end_b): the cell's coordinates, the bounds of its query's A and B ranges
    and those ranges' bisect_left positions in the fields' sorted values,
    whose differences are their match counts (GridCell.positions). The last
    item is (draws, rejections, filled_directly).

    Each draw is what two rand_range_predicate calls (A's, then B's) and two
    match_count calls would give, inlined. rand_range_predicate's
    randint(lo, hi) is randrange(lo, hi + 1), and on CPython 3.10 to 3.13
    randrange(lo, lo + n) is lo + r for the first r = getrandbits(n.bit_length())
    below n (Random._randbelow_with_getrandbits). The loop takes those
    getrandbits calls directly, so it reads the same stream without
    randrange's two Python frames per value. A width - 1 is drawn below the
    field's domain size, whose bit length is fixed; the low bound's offset
    from the field's smallest value is drawn below domain size - width + 1.

    Each field's draw space (draw_space) is worked out before the first
    draw. A dense field is never bisected: its drawn offset is its range's
    start position and its drawn width is its count, so its bucket comes
    from the width alone, and its positions are formed only for a draw that
    fills a cell. Only cells in a reachable row and a reachable column count
    as open, so a draw whose A count falls in a row with no open cell, full
    or unreachable, is rejected without B's count; B's range is drawn all
    the same.
    """
    rng = random.Random(seed)
    n = len(collection)
    a_values = collection.sorted_values("A")
    b_values = collection.sorted_values("B")
    # the ends of the sorted values are the fields' smallest and largest
    # values, without a scan of the columns
    a_lo, a_hi = a_values[0], a_values[-1]
    b_lo, b_hi = b_values[0], b_values[-1]
    # whether each field is dense, and the grid rows and columns its counts reach
    a_dense, rows = draw_space(a_values, d)
    b_dense, columns = draw_space(b_values, d)
    getrandbits = rng.getrandbits
    a_size = a_hi - a_lo + 1
    b_size = b_hi - b_lo + 1
    a_bits = a_size.bit_length()
    b_bits = b_size.bit_length()
    filled = bytearray(d * d)  # filled[i * d + j]: cell (i, j) holds a query
    # the open cells of each row: its reachable ones not filled yet
    open_in_row = [len(columns) if row in rows else 0 for row in range(d)]
    cap = REJECTION_CAP
    last = d - 1
    left = d * d
    draws = rejections = misses = 0
    while left:
        # width - 1 below the domain size, then the low bound's offset from
        # the field's smallest value below the domain size - width + 1, for
        # A and then for B
        r_a = getrandbits(a_bits)
        while r_a >= a_size:
            r_a = getrandbits(a_bits)
        lows = a_size - r_a
        offset_a = getrandbits(lows.bit_length())
        while offset_a >= lows:
            offset_a = getrandbits(lows.bit_length())
        r_b = getrandbits(b_bits)
        while r_b >= b_size:
            r_b = getrandbits(b_bits)
        lows = b_size - r_b
        offset_b = getrandbits(lows.bit_length())
        while offset_b >= lows:
            offset_b = getrandbits(lows.bit_length())
        draws += 1
        # a dense field's count is its range's width; any other field's is
        # the difference of its bounds' positions. _cell_from_count, inlined
        if a_dense:
            i = (r_a + 1) * d // n
        else:
            start_a = bisect_left(a_values, offset_a + a_lo)
            end_a = bisect_left(a_values, offset_a + a_lo + r_a + 1)
            i = (end_a - start_a) * d // n
        if i > last:
            i = last
        if open_in_row[i]:
            if b_dense:
                j = (r_b + 1) * d // n
            else:
                start_b = bisect_left(b_values, offset_b + b_lo)
                end_b = bisect_left(b_values, offset_b + b_lo + r_b + 1)
                j = (end_b - start_b) * d // n
            if j > last:
                j = last
            k = i * d + j
            if not filled[k]:
                misses = 0
                filled[k] = 1
                open_in_row[i] -= 1
                left -= 1
                # a dense field's range starts at the position of its offset
                if a_dense:
                    start_a, end_a = offset_a, offset_a + r_a + 1
                if b_dense:
                    start_b, end_b = offset_b, offset_b + r_b + 1
                low_a = offset_a + a_lo
                low_b = offset_b + b_lo
                yield (i, j, low_a, low_a + r_a + 1, low_b, low_b + r_b + 1,
                       start_a, end_a, start_b, end_b)
                continue
        rejections += 1
        misses += 1
        if misses >= cap:
            missing = [divmod(k, d) for k in range(d * d) if not filled[k]]
            yield from _direct_fill_cells(collection, missing, d)
            yield draws, rejections, len(missing)
            return
    yield draws, rejections, 0


def sweep(scenario: Scenario, collection: Collection, catalog: IndexCatalog,
          variant: OptimizerVariant, d: int, seed: int,
          knobs: RaceKnobs = RaceKnobs(), cache: PlanCache | None = None) -> ExperimentGrid:
    """Fill every grid cell with a random query and the optimizer's choice:
    race each cell that draw_cells gives (optimize) and record it, in fill
    order. The race and the cell take the ranges' positions that the draws
    found; the query puts A's range first, as the positions do."""
    n = len(collection)
    grid = ExperimentGrid(d=d)
    for item in draw_cells(collection, d, seed):
        if len(item) == 3:
            grid.draws, grid.rejections, grid.filled_directly = item
            break
        i, j, low_a, high_a, low_b, high_b, start_a, end_a, start_b, end_b = item
        positions = (start_a, end_a, start_b, end_b)
        query = scenario.make_query(RangePredicate("A", low_a, high_a),
                                    RangePredicate("B", low_b, high_b))
        result = optimize(query, collection, catalog, variant, knobs,
                          cache=cache, positions=positions)
        grid.cells[(i, j)] = GridCell(i=i, j=j, e_a=(end_a - start_a) / n,
                                      e_b=(end_b - start_b) / n, query=query,
                                      chosen=str(result.chosen), positions=positions)
    return grid


def measure_grid(grid: ExperimentGrid, collection: Collection, catalog: IndexCatalog,
                 cost: CostModel, reps: int = 10) -> None:
    """Fill per_plan_times for every cell, as measure_all_plans would.

    A plan's time is its scan length times its step time, which is
    plan_cost_totals' time. An index plan scans the cell's range of its
    leading field, end - start of the cell's positions (GridCell.positions);
    COLLSCAN scans all N records. Each query shape's plans are listed once
    (producible_plans).
    """
    if reps < 1:
        raise ValueError("need at least one sample")
    n = len(collection)
    offsets = {"A": 0, "B": 2}
    # per query shape: each plan's name, step time, and the offset of its
    # range's start in a cell's positions, None for COLLSCAN
    shapes = {}
    for cell in grid.sorted_cells():
        key = query_shape(cell.query)
        plans = shapes.get(key)
        if plans is None:
            plans = shapes[key] = [
                (name, step_time(plan.id.kind, cost),
                 None if plan.leading is None else offsets[plan.leading])
                for name, plan in producible_plans(cell.query, catalog).items()]
        p = cell.positions
        cell.per_plan_times = {
            name: _mean_of_reps((n if k is None else p[k + 1] - p[k]) * step, reps)
            for name, step, k in plans}


def finalize(grid: ExperimentGrid) -> tuple[ExperimentGrid, SummaryMetrics]:
    """Determine per-cell optimal plans and the summary metrics.

    Exact time ties go to the chosen plan when it participates (so boundary
    cells are not counted against the optimizer), otherwise to the first
    plan in canonical id order. A chosen plan as fast as the optimal one has
    ratio 1, also when both take no time. A chosen plan that takes time
    where the optimal one takes none is mischosen, and its slowdown is
    unbounded: its ratio stays None, and impact is the mean slowdown over
    the cells that have a ratio. Idempotent on an already-finalized grid.
    """
    correct = 0
    slowdowns = []
    for cell in grid.sorted_cells():
        if not cell.per_plan_times:
            raise PlanraceError(f"cell ({cell.i},{cell.j}) has no measurements")
        best_time = min(cell.per_plan_times.values())
        tied = [p for p, t in cell.per_plan_times.items() if t == best_time]
        if cell.chosen in tied:
            cell.optimal = cell.chosen
        else:
            cell.optimal = min(tied, key=plan_order_key)
        chosen_time = cell.per_plan_times[cell.chosen]
        if chosen_time == best_time:
            cell.ratio = 1.0
        elif best_time == 0:
            cell.ratio = None
        else:
            cell.ratio = chosen_time / best_time
        if cell.chosen == cell.optimal:
            correct += 1
        if cell.ratio is not None:
            slowdowns.append((cell.ratio - 1.0) * 100.0)
    if not slowdowns:
        raise PlanraceError(
            "every cell's chosen plan takes time where its optimal plan takes none, "
            "so no slowdown is bounded")
    metrics = SummaryMetrics(
        accuracy=correct / len(grid.cells),
        impact_pct=sum(slowdowns) / len(slowdowns),
    )
    return grid, metrics


def primed_cache_for(scenario: Scenario, primed: PlanId) -> PlanCache:
    """Plan cache pre-seeded with `primed` for the scenario's query shape.

    `primed` must be a plan that shape can run (producible_plans). An index
    is its key fields, so the check reads no collection.
    """
    query = scenario.make_query(RangePredicate("A", 0, 1), RangePredicate("B", 0, 1))
    catalog = IndexCatalog([Index(keys) for keys in scenario.index_keys])
    if str(primed) not in producible_plans(query, catalog):
        raise UnknownPlanError(
            f"plan {primed} is not executable in scenario {scenario.name!r}")
    return PlanCache({query_shape(query): primed})


def run_experiment(scenario: Scenario, collection: Collection, variant: OptimizerVariant,
                   d: int, seed: int, knobs: RaceKnobs = RaceKnobs(),
                   cost: CostModel = CostModel(), reps: int = 10,
                   primed: PlanId | None = None) -> tuple[ExperimentGrid, SummaryMetrics]:
    """Sweep, measure and finalize one full experiment.

    With `primed` set this is the plan-cache experiment: the optimizer never
    races, it reuses the primed plan for every query of the sweep's shape.
    """
    catalog = scenario.build_catalog(collection)
    cache = None if primed is None else primed_cache_for(scenario, primed)
    grid = sweep(scenario, collection, catalog, variant, d, seed, knobs, cache=cache)
    measure_grid(grid, collection, catalog, cost, reps=reps)
    grid, metrics = finalize(grid)
    grid.provenance = {
        "scenario": scenario.name,
        "variant": variant.value,
        "n": len(collection),
        "dim": d,
        "seed": seed,
        "reps": reps,
        "cost_model": {"c_seq": cost.c_seq, "c_idx": cost.c_idx, "c_fetch": cost.c_fetch},
        "knobs": {
            "evaluation_works": knobs.evaluation_works,
            "coll_fraction": knobs.coll_fraction,
            "max_results": knobs.max_results,
        },
        "cache_primed": None if primed is None else str(primed),
    }
    return grid, metrics
