"""The racing optimizer: trial execution, scoring, choice, and plan cache.

Candidates run round-robin, one work unit each per round, until a plan
returns EOF, a plan accumulates max_results trial results, or the round
budget max(evaluation_works, coll_fraction * N) runs out. When the stop
condition fires mid-round the round still completes, so every plan ends the
race with the same number of work units.

race() steps that protocol through PlanExecution.work() and is the
reference. optimize() computes the same outcome in closed form
(_race_scans), from the plans of the query's shape (plans.shape_candidates)
bound to its bounds: the race runs
    R = min(ceil(max_rounds), min_p(s_p + 1), min_p(q_p))
rounds, where s_p is plan p's scan length and q_p the scan position of its
max_results-th match; every plan then has R works, reached EOF iff
R == s_p + 1, and has as many results as it has matches in its first
min(R, s_p) positions. Tests hold the two paths equal.

Each plan is then scored
    total = 1 + productivity + tie_breakers + eof_bonus
with productivity = results / works, a tie-break unit of
min(1 / (10 * works), 1e-4) granted once per absent penalty flag (fetch,
blocking sort, index intersection), and an EOF bonus of 1. The "mod"
variant halves productivity for any plan containing a fetch, compensating
for the fetch cost hidden inside its single work unit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import compress, islice

from .engine import Collection, IndexCatalog, Query, query_shape
from .errors import NoCandidatesError, UndefinedProductivityError
from .executor import PlanExecution, PlanScan, WorkState, shape_scans
from .plans import CandidatePlan, OptimizerVariant, PlanId, bind_plans, shape_candidates

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
    has_blocking_sort: bool = False
    has_ixisect: bool = False


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


def _race_scans(scans: list[PlanScan], n_records: int,
                knobs: RaceKnobs) -> tuple[int, list[int]]:
    """(R, each scan's matches in its first min(R, length) positions).

    Every scan is masked in lockstep chunks of positions, FIRST_CHUNK_RESULTS
    * max_results first and each later chunk twice as long, and the bound on
    R drops as scans end and max_results-th matches show up, until R lies
    inside what was masked. Within a chunk the scans with the most matches
    so far go first, so that once one of them fixes R the others mask no
    further than R. A chunk's mask is one bytes.translate of a bucket column
    per filter, with exact checks only in boundary buckets (PlanScan.mask),
    and scans with equal masks, such as IXSCAN_A and IXSCAN_AB over an A
    without ties, are masked once.
    """
    distinct: dict[tuple, int] = {}
    slots = [distinct.setdefault(s.mask_key, len(distinct)) for s in scans]
    unique = [scans[slots.index(k)] for k in range(len(distinct))]
    m = knobs.max_results
    rounds = min(math.ceil(knobs.max_rounds(n_records)),
                 min(s.length + 1 for s in unique))
    results = [0] * len(unique)  # matches in each scan's first `done` positions
    done = 0
    chunk = FIRST_CHUNK_RESULTS * m
    while done < rounds:
        hi = min(done + chunk, rounds)
        masks = {}
        for k in sorted(range(len(unique)), key=results.__getitem__, reverse=True):
            mask = masks[k] = unique[k].mask(done, min(hi, rounds, unique[k].length))
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
    return rounds, [results[k] for k in slots]


def score_plan(stats: TrialStats, variant: OptimizerVariant) -> Score:
    if stats.works < 1:
        raise UndefinedProductivityError("cannot score a plan with zero work units")
    productivity = stats.results / stats.works
    if variant is OptimizerVariant.MOD and stats.has_fetch:
        productivity *= 0.5
    unit = min(1.0 / (10 * stats.works), TIE_BREAK_CAP)
    return Score(
        base=1.0,
        productivity=productivity,
        tie_break_unit=unit,
        no_fetch_bonus=0.0 if stats.has_fetch else unit,
        no_sort_bonus=0.0 if stats.has_blocking_sort else unit,
        no_ixisect_bonus=0.0 if stats.has_ixisect else unit,
        eof_bonus=1.0 if stats.reached_eof else 0.0,
    )


def pick_best(scores: list[Score], candidates: list[CandidatePlan]) -> PlanId:
    """Highest total wins; exact ties go to the earliest candidate."""
    best = max(range(len(scores)), key=lambda idx: scores[idx].total)
    return candidates[best].id


# ---------------------------------------------------------------------------
# Plan cache keyed by query shape.

@dataclass
class PlanCacheEntry:
    shape: str
    plan_id: PlanId


@dataclass
class PlanCache:
    entries: dict[str, PlanCacheEntry] = field(default_factory=dict)

    def get(self, shape: str) -> PlanCacheEntry | None:
        return self.entries.get(shape)

    def put(self, entry: PlanCacheEntry) -> None:
        self.entries[entry.shape] = entry


class CacheMode(enum.Enum):
    OFF = "off"
    ON_NO_REPLAN = "on-no-replan"


@dataclass
class OptimizeResult:
    chosen: PlanId
    candidates: list[CandidatePlan]
    stats: list[TrialStats]
    scores: list[Score]
    from_cache: bool = False


def optimize(query: Query, collection: Collection, catalog: IndexCatalog,
             variant: OptimizerVariant = OptimizerVariant.VANILLA,
             knobs: RaceKnobs = RaceKnobs(),
             cache: PlanCache | None = None,
             cache_mode: CacheMode = CacheMode.OFF) -> OptimizeResult:
    """Choose a plan: enumerate, race, score, pick; or reuse a cached plan.

    With the cache on (ON_NO_REPLAN), a shape hit skips the race and reuses
    the cached plan unconditionally; a miss races and caches the winner.
    """
    use_cache = cache is not None and cache_mode is not CacheMode.OFF
    if use_cache:
        shape = query_shape(query)
        entry = cache.get(shape)
        if entry is not None:
            return OptimizeResult(entry.plan_id, [], [], [], from_cache=True)

    plans = shape_candidates(query, catalog, variant)
    scans = shape_scans(plans, query, collection, catalog)
    rounds, results = _race_scans(scans, len(collection), knobs)
    stats = [
        TrialStats(
            plan_id=p.id,
            works=rounds,
            results=r,
            reached_eof=rounds == s.length + 1,
            has_fetch=p.has_fetch,
        )
        for p, s, r in zip(plans, scans, results)
    ]
    scores = [score_plan(s, variant) for s in stats]
    candidates = bind_plans(plans, query)
    chosen = pick_best(scores, candidates)
    if use_cache:
        cache.put(PlanCacheEntry(shape=shape, plan_id=chosen))
    return OptimizeResult(chosen, candidates, stats, scores)
