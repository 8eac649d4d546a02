"""The racing optimizer: trial execution, scoring, choice, and plan cache.

Candidates run round-robin, one work unit each per round, until a plan
returns EOF, a plan accumulates max_results trial results, or the round
budget max(evaluation_works, coll_fraction * N) runs out. When the stop
condition fires mid-round the round still completes, so every plan ends the
race with the same number of work units.

race() steps that protocol through PlanExecution.work() and is the
reference. optimize() computes the same outcome in closed form
(_race_scans) over the distinct scans of the query's shape (RaceLayout,
kept per shape in the catalog) bound to the positions of its ranges in
their fields' sorted orders (bind_layout), which it masks through columns
of rank buckets (RankBuckets, match_mask): the race runs
    R = min(ceil(max_rounds), min_p(s_p + 1), min_p(q_p))
rounds, where s_p is plan p's scan length and q_p the scan position of its
max_results-th match; every plan then has R works, reached EOF iff
R == s_p + 1, and has as many results as it has matches in its first
min(R, s_p) positions. Tests hold the two paths equal.

Each plan is then scored
    total = 1 + productivity + tie_breakers + eof_bonus
with productivity = results / works, a tie-break unit of
min(1 / (10 * works), 1e-4) granted once per absent penalty (a fetch, a
blocking sort, an index intersection; no plan here has the last two), and
an EOF bonus of 1. The "mod" variant halves productivity for any plan
containing a fetch, compensating for the fetch cost hidden inside its
single work unit. optimize() picks the winner from R, the results and the
scan lengths with that arithmetic (race_winner) and keeps them as its
OptimizeResult, from which the bound candidates, their TrialStats and
Scores are derived when read.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter

from .engine import Collection, IndexCatalog, Query, query_shape
from .errors import NoCandidatesError, UndefinedProductivityError
from .executor import PlanExecution, WorkState
from .plans import (
    CandidatePlan,
    OptimizerVariant,
    PlanId,
    ShapePlan,
    bind_plans,
    shape_candidates,
)

TIE_BREAK_CAP = 1e-4

# A race takes at least max_results rounds unless a scan ends first, and on
# uniform data most take under 4 * max_results; a mask call costs about as
# much as masking a few hundred positions, so the first chunk is that long.
FIRST_CHUNK_RESULTS = 4


@dataclass(frozen=True)
class RaceKnobs:
    evaluation_works: int = 10_000
    coll_fraction: float = 0.3
    max_results: int = 101

    def __post_init__(self):
        if self.evaluation_works <= 0 or self.coll_fraction <= 0 or self.max_results <= 0:
            raise ValueError("race knobs must all be positive")

    def max_rounds(self, n_records: int) -> float:
        return max(self.evaluation_works, self.coll_fraction * n_records)


@dataclass(frozen=True)
class TrialStats:
    plan_id: PlanId
    works: int
    results: int
    reached_eof: bool
    has_fetch: bool


@dataclass(frozen=True)
class Score:
    base: float
    productivity: float
    tie_break_unit: float
    no_fetch_bonus: float
    no_sort_bonus: float
    no_ixisect_bonus: float
    eof_bonus: float

    @property
    def tie_breakers(self) -> float:
        return self.no_fetch_bonus + self.no_sort_bonus + self.no_ixisect_bonus

    @property
    def total(self) -> float:
        return self.base + self.productivity + self.tie_breakers + self.eof_bonus


def race(executions: list[PlanExecution], n_records: int, knobs: RaceKnobs) -> list[TrialStats]:
    """Trial-run all candidates round-robin; returns per-plan stats.

    Cursor state is left in place so the winner can resume where its trial
    stopped.
    """
    if not executions:
        raise NoCandidatesError("race needs at least one candidate execution")
    for ex in executions:
        if ex.works != 0:
            raise ValueError("race requires fresh executions")
    max_rounds = knobs.max_rounds(n_records)
    working = True
    i = 0
    while working and i < max_rounds:
        for ex in executions:
            state = ex.work()
            if state is WorkState.ADVANCED:
                if ex.results >= knobs.max_results:
                    working = False
            elif state is WorkState.EOF:
                working = False
        i += 1
    return [
        TrialStats(
            plan_id=ex.plan.id,
            works=ex.works,
            results=ex.results,
            reached_eof=ex.eof,
            has_fetch=ex.plan.has_fetch,
        )
        for ex in executions
    ]


# Every field's ranks fall into this many rank buckets, so a bucket number
# fits one byte.
BUCKETS = 256


class RankBuckets:
    """BUCKETS buckets of the ranks 0..N-1 of a field of N records.

    Bucket k holds the ranks floor(k * N / BUCKETS) to floor((k + 1) * N /
    BUCKETS) - 1 of the field's sorted order (some are empty when N <
    BUCKETS), so one split serves every field. A record's bucket is its
    rank's, and a range [low, high) on the field is the ranks [start, end)
    of its positions (Collection.positions): equal values hold neighbouring
    ranks, so a value lies in [low, high) exactly when its rank lies in
    [start, end).
    """

    def __init__(self, n: int):
        self.n = n
        # the first rank of each bucket, then N
        self.firsts = [k * n // BUCKETS for k in range(BUCKETS + 1)]

    def numbers_from_order(self, rids: array) -> bytes:
        """Each record's bucket number, in record_id order, scattered from a
        field's order (Collection.order): rids[r] is the record id of rank r."""
        out = bytearray(self.n)
        firsts = self.firsts
        for k in range(BUCKETS):
            for r in rids[firsts[k]:firsts[k + 1]]:
                out[r] = k
        return bytes(out)

    def table(self, start: int, end: int) -> bytes:
        """bytes.translate table: a bucket's number to 0 when none of its
        ranks lies in [start, end), 1 when all do, and 2 when some do.

        Only the buckets of ranks start and end - 1 can be 2.
        """
        if start >= end:
            return bytes(BUCKETS)
        firsts = self.firsts
        # the bucket of rank r is the last one that starts at or below r
        first = bisect_right(firsts, start) - 1
        last = bisect_right(firsts, end - 1) - 1
        lower = 1 if firsts[first] == start else 2
        upper = 1 if firsts[last + 1] == end else 2
        if first == last:
            middle = bytes([max(lower, upper)])
        else:
            middle = bytes([lower]) + b"\1" * (last - first - 1) + bytes([upper])
        return bytes(first) + middle + bytes(BUCKETS - 1 - last)


def match_mask(filters, rids: array | None, a: int, b: int) -> bytes:
    """1 for each position a..b-1 of an access order that matches every
    filter, 0 for the others.

    A filter is (bucket column in the access order, translate table,
    record_id-order column, low, high). Its mask is the slice of its bucket
    column translated by its table (RankBuckets.table): a position in a
    bucket wholly inside or outside the range is decided there, and only a
    position marked 2 has its value read, through rids (None for record_id
    order), and compared with [low, high). The filters' masks are ANDed as
    integers.
    """
    out = None
    for buckets, table, column, low, high in filters:
        m = buckets[a:b].translate(table)
        k = m.find(2)
        if k >= 0:
            m = bytearray(m)
            while k >= 0:
                value = column[a + k] if rids is None else column[rids[a + k]]
                m[k] = low <= value < high
                k = m.find(2, k + 1)
        if out is None:
            out = m
        else:
            out = (int.from_bytes(out, "little") & int.from_bytes(m, "little")).to_bytes(
                b - a, "little")
    return b"\1" * (b - a) if out is None else out


def _take(data: bytes, positions: array) -> bytes:
    """data[p] for each p in positions, gathered in C."""
    if len(positions) == 1:  # itemgetter of one key returns the item itself
        return data[positions[0]:positions[0] + 1]
    return bytes(itemgetter(*positions)(data))


@dataclass(frozen=True)
class RaceLayout:
    """What the races of one query shape read, built at its first race.

    plans are the shape's candidates (plans.shape_candidates). Plans that
    scan the same access order (the same record id array, or record_id
    order) from the same leading field under the same filter fields scan
    the same positions for every query, so they share one of `scans`:
    IXSCAN_A and IXSCAN_AB over an A without repeated values. A scan is
    (its leading field, None for COLLSCAN; rids, None for record_id order;
    filters), each filter (field, the field's bucket numbers in the access
    order, record_id-order column); slots[p] is the scan of plans[p].
    `buckets` splits the ranks of every field alike.

    A filtered field's bucket numbers in record_id order are scattered from
    its order (RankBuckets.numbers_from_order), and a scan's columns are
    gathered from them through its rids. The orders of every field the
    plans lead on or filter on are sorted first, the second in a worker
    (Collection.sort_fields).
    """

    plans: tuple[ShapePlan, ...]
    slots: tuple[int, ...]
    scans: tuple[tuple, ...]
    buckets: RankBuckets


def _build_layout(plans: tuple[ShapePlan, ...], collection: Collection) -> RaceLayout:
    filtered = [f for plan in plans for f in plan.filters]
    collection.sort_fields([plan.leading for plan in plans if plan.index is not None] + filtered,
                           orders=True)
    buckets = RankBuckets(len(collection))
    numbers = {f: buckets.numbers_from_order(collection.order(f))
               for f in dict.fromkeys(filtered)}
    distinct: dict[tuple, int] = {}
    slots = []
    scans = []
    for plan in plans:
        rids = None if plan.index is None else plan.index.rids
        key = (plan.leading, id(rids), plan.filters)
        slot = distinct.get(key)
        if slot is None:
            slot = distinct[key] = len(scans)
            scans.append((plan.leading, rids, tuple(
                (f, numbers[f] if rids is None else _take(numbers[f], rids), collection.columns[f])
                for f in plan.filters)))
        slots.append(slot)
    return RaceLayout(plans, tuple(slots), tuple(scans), buckets)


def race_layout(query: Query, collection: Collection, catalog: IndexCatalog,
                variant: OptimizerVariant) -> RaceLayout:
    """The race layout of the query's shape, hint and variant, built at its
    first race and kept in catalog.shape_plans.

    A failed enumeration (plans.shape_candidates) keeps nothing, so it fails
    again, with the same error, for every query of its shape.
    """
    key = (query_shape(query), query.hint, variant)
    layout = catalog.shape_plans.get(key)
    if layout is None:
        plans = shape_candidates(query, catalog, variant)
        layout = catalog.shape_plans[key] = _build_layout(plans, collection)
    return layout


def bind_layout(layout: RaceLayout, query: Query, positions: tuple[int, ...]
                ) -> list[tuple[int, int, array | None, list]]:
    """The layout's scans for the query: (start, end, rids, the filters as
    match_mask reads them) of each.

    `positions` are the (start, end) of each of the query's predicates in
    its field's sorted values, in predicate order (Collection.positions):
    the range of every scan that leads on the field, and the ranks whose
    table (RankBuckets.table) each filter on the field reads.
    """
    ends = iter(positions)
    ranges = {p.field: (start, end) for p, start, end in zip(query.predicates, ends, ends)}
    bounds = {p.field: (p.low, p.high) for p in query.predicates}
    tables = {f: layout.buckets.table(*span) for f, span in ranges.items()}
    ranges[None] = (0, layout.buckets.n)  # COLLSCAN's
    return [(*ranges[leading], rids,
             [(column, tables[f], values, *bounds[f]) for f, column, values in filters])
            for leading, rids, filters in layout.scans]


def _race_scans(scans: list[tuple[int, int, array | None, list]], n_records: int,
                knobs: RaceKnobs) -> tuple[int, list[int]]:
    """(R, each scan's matches in its first min(R, length) positions) for
    scans as bind_layout gives them.

    Every scan is masked in lockstep chunks of positions, FIRST_CHUNK_RESULTS
    * max_results first and each later chunk twice as long, and the bound on
    R drops as scans end and max_results-th matches show up, until R lies
    inside what was masked. Within a chunk the scans with the most matches
    so far go first, so that once one of them fixes R the others mask no
    further than R. A chunk's mask is one bytes.translate of a bucket column
    per filter, with exact checks only in boundary buckets (match_mask).
    The round budget binds only when it lies below every scan's length + 1,
    so an infinite budget is never rounded.
    """
    m = knobs.max_results
    rounds = min(end - start + 1 for start, end, _, _ in scans)
    budget = knobs.max_rounds(n_records)
    if budget < rounds:
        rounds = math.ceil(budget)
    results = [0] * len(scans)  # matches in each scan's first `done` positions
    done = 0
    chunk = FIRST_CHUNK_RESULTS * m
    while done < rounds:
        hi = min(done + chunk, rounds)
        masks = {}
        for k in sorted(range(len(scans)), key=results.__getitem__, reverse=True):
            start, end, rids, filters = scans[k]
            mask = masks[k] = match_mask(filters, rids, start + done,
                                         start + min(hi, rounds, end - start))
            count = mask.count(1)
            need = m - results[k]
            if count >= need:
                # 1-based scan position of this scan's max_results-th match
                nth = next(islice(compress(range(len(mask)), mask), need - 1, None))
                rounds = done + nth + 1
            results[k] += count
        if rounds < hi:  # the race ended inside this chunk: drop matches past it
            for k, mask in masks.items():
                results[k] -= mask[rounds - done:].count(1)
        done = hi
        chunk *= 2
    return rounds, results


def _score_terms(works: int, results: int, reached_eof: bool, has_fetch: bool,
                 variant: OptimizerVariant) -> tuple[float, float, float, float]:
    """(productivity, tie-break unit, no-fetch bonus, EOF bonus) of a plan."""
    if works < 1:
        raise UndefinedProductivityError("cannot score a plan with zero work units")
    productivity = results / works
    if variant is OptimizerVariant.MOD and has_fetch:
        productivity *= 0.5
    unit = min(1.0 / (10 * works), TIE_BREAK_CAP)
    return productivity, unit, 0.0 if has_fetch else unit, 1.0 if reached_eof else 0.0


def race_winner(plans: tuple[ShapePlan, ...], rounds: int, results: list[int],
                lengths: list[int], variant: OptimizerVariant) -> int:
    """The position of the race's winner among `plans`: the highest
    score_plan(...).total, summed in Score.total's order (no plan has a
    blocking sort or an index intersection); exact ties go to the earliest
    plan, as in pick_best."""
    best = best_total = None
    for k, plan in enumerate(plans):
        productivity, unit, no_fetch, eof = _score_terms(
            rounds, results[k], rounds == lengths[k] + 1, plan.has_fetch, variant)
        total = 1.0 + productivity + (no_fetch + unit + unit) + eof
        if best is None or total > best_total:
            best, best_total = k, total
    return best


def score_plan(stats: TrialStats, variant: OptimizerVariant) -> Score:
    productivity, unit, no_fetch, eof = _score_terms(
        stats.works, stats.results, stats.reached_eof, stats.has_fetch, variant)
    return Score(
        base=1.0,
        productivity=productivity,
        tie_break_unit=unit,
        no_fetch_bonus=no_fetch,
        no_sort_bonus=unit,
        no_ixisect_bonus=unit,
        eof_bonus=eof,
    )


def pick_best(scores: list[Score], candidates: list[CandidatePlan]) -> PlanId:
    """Highest total wins; exact ties go to the earliest candidate."""
    best = max(range(len(scores)), key=lambda idx: scores[idx].total)
    return candidates[best].id


# ---------------------------------------------------------------------------
# Plan cache keyed by query shape.

class PlanCache(dict):
    """A query shape (engine.query_shape) to the PlanId that every query of
    that shape reuses."""


@dataclass
class OptimizeResult:
    """The chosen plan and the race that chose it.

    The race is kept as its query, the plans raced, the variant that scored
    them, R and each plan's results and scan length; candidates, stats and
    scores are derived from it on each read. A result from the plan cache
    ran no race: those three are empty.
    """

    chosen: PlanId
    from_cache: bool = False
    query: Query | None = None
    plans: tuple[ShapePlan, ...] = ()
    variant: OptimizerVariant = OptimizerVariant.VANILLA
    rounds: int = 0
    results: list[int] = field(default_factory=list)
    lengths: list[int] = field(default_factory=list)

    @property
    def candidates(self) -> list[CandidatePlan]:
        return bind_plans(self.plans, self.query) if self.plans else []

    @property
    def stats(self) -> list[TrialStats]:
        r = self.rounds
        return [TrialStats(plan_id=p.id, works=r, results=results,
                           reached_eof=r == length + 1, has_fetch=p.has_fetch)
                for p, results, length in zip(self.plans, self.results, self.lengths)]

    @property
    def scores(self) -> list[Score]:
        return [score_plan(s, self.variant) for s in self.stats]


def optimize(query: Query, collection: Collection, catalog: IndexCatalog,
             variant: OptimizerVariant = OptimizerVariant.VANILLA,
             knobs: RaceKnobs = RaceKnobs(),
             cache: PlanCache | None = None,
             positions: tuple[int, ...] | None = None) -> OptimizeResult:
    """Choose a plan: race the shape's candidates, score, pick; or reuse a
    cached plan.

    With a cache, a shape hit skips the race and reuses the cached plan
    unconditionally; a miss races and caches the winner.
    `positions`, when the caller has them, are the (start, end) of each of
    the query's predicates in its field's sorted values, in predicate order
    (Collection.positions); without them the race bisects for them once.
    """
    if cache is not None:
        shape = query_shape(query)
        cached = cache.get(shape)
        if cached is not None:
            return OptimizeResult(cached, from_cache=True)

    layout = race_layout(query, collection, catalog, variant)
    if positions is None:
        positions = [k for p in query.predicates for k in collection.positions(p)]
    scans = bind_layout(layout, query, positions)
    rounds, found = _race_scans(scans, len(collection), knobs)
    results = [found[k] for k in layout.slots]
    lengths = [scans[k][1] - scans[k][0] for k in layout.slots]
    plans = layout.plans
    chosen = plans[race_winner(plans, rounds, results, lengths, variant)].id
    if cache is not None:
        cache[shape] = chosen
    return OptimizeResult(chosen, False, query, plans, variant, rounds, results, lengths)
