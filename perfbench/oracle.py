"""Correctness oracles for one planrace run's output.

Each visited cell is checked three ways:

- label: the exact match counts of its query, computed from the dataset file
  alone, place it in cell (i, j), and e_A, e_B report those counts;
- times: its per-plan times follow the README cost model (COLLSCAN costs
  N * c_seq, IXSCAN_<f> costs count_f * (c_idx + c_fetch), IXSCAN_AB costs
  count_A * c_idx), and its optimal plan and ratio follow from those times;
- chosen: its chosen plan is the winner of a race stepped here through
  PlanExecution.work() and scored by the README formula, or the primed plan
  when the plan cache was primed.

The race and its scoring are written out here, not taken from the
optimizer, so a later fast path in the optimizer is still checked against
the stepped protocol.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from pathlib import Path

# README defaults; the benchmark passes no --cost or race knob flags.
C_SEQ, C_IDX, C_FETCH = 1.0, 1.0, 4.0
EVALUATION_WORKS, COLL_FRACTION, MAX_RESULTS = 10_000, 0.3, 101
TIE_BREAK_CAP = 1e-4
PLAN_ORDER = ("COLLSCAN", "IXSCAN_A", "IXSCAN_B", "IXSCAN_AB")
FETCH_PLANS = ("IXSCAN_A", "IXSCAN_B")
FORCED_PLANS = {
    "both-indexed": ("COLLSCAN", "IXSCAN_A", "IXSCAN_B"),
    "covering": ("COLLSCAN", "IXSCAN_A", "IXSCAN_B", "IXSCAN_AB"),
}


def sorted_columns(data: Path) -> tuple[int, list[int], list[int]]:
    """(N, sorted A values, sorted B values) parsed from the dataset CSV."""
    with open(data, newline="") as f:
        rows = csv.reader(f)
        if next(rows) != ["record_id", "A", "B"]:
            raise ValueError(f"{data}: unexpected header")
        a, b = [], []
        for _, va, vb in rows:
            a.append(int(va))
            b.append(int(vb))
    a.sort()
    b.sort()
    return len(a), a, b


def count(values: list[int], low: int, high: int) -> int:
    return bisect_left(values, high) - bisect_left(values, low)


def read_results(path: Path) -> dict[tuple[int, int], dict]:
    with open(path, newline="") as f:
        return {(int(r["i"]), int(r["j"])): r for r in csv.DictReader(f)}


def expected_times(scenario: str, n: int, count_a: int, count_b: int) -> dict[str, float]:
    every = {
        "COLLSCAN": n * C_SEQ,
        "IXSCAN_A": count_a * (C_IDX + C_FETCH),
        "IXSCAN_B": count_b * (C_IDX + C_FETCH),
        "IXSCAN_AB": count_a * C_IDX,
    }
    return {p: every[p] for p in FORCED_PLANS[scenario]}


def finalize_cell(times: dict[str, float], chosen: str) -> tuple[str, float]:
    """(optimal plan, chosen/optimal ratio) by the harness tie rule."""
    best = min(times.values())
    tied = [p for p, t in times.items() if t == best]
    optimal = chosen if chosen in tied else min(tied, key=PLAN_ORDER.index)
    return optimal, times[chosen] / best


def stepped_choice(executions: list, plan_names: list[str], n: int, mod: bool) -> str:
    """Round-robin race through work(), scored as the README describes."""
    works = [0] * len(executions)
    results = [0] * len(executions)
    eof = [False] * len(executions)
    max_rounds = max(EVALUATION_WORKS, COLL_FRACTION * n)
    rounds = 0
    working = True
    while working and rounds < max_rounds:
        for k, ex in enumerate(executions):
            state = ex.work().value
            works[k] += 1
            if state == "ADVANCED":
                results[k] += 1
                if results[k] >= MAX_RESULTS:
                    working = False
            elif state == "EOF":
                eof[k] = True
                working = False
        rounds += 1
    best_name, best_total = None, None
    for k, name in enumerate(plan_names):
        fetch = name in FETCH_PLANS
        productivity = results[k] / works[k]
        if mod and fetch:
            productivity *= 0.5
        unit = min(1.0 / (10 * works[k]), TIE_BREAK_CAP)
        tie_breakers = (0.0 if fetch else unit) + unit + unit
        total = 1.0 + productivity + tie_breakers + (1.0 if eof[k] else 0.0)
        if best_total is None or total > best_total:
            best_name, best_total = name, total
    return best_name


class RaceOracle:
    """Loads the dataset through planrace and races queries step by step."""

    def __init__(self, data: Path, scenario: str, variant: str):
        from planrace import engine
        from planrace.executor import CostModel, PlanExecution
        from planrace.plans import OptimizerVariant, enumerate_candidates
        from planrace.scenarios import get_scenario

        self.engine = engine
        self.collection = engine.load_dataset(data)
        self.scenario = get_scenario(scenario)
        self.catalog = self.scenario.build_catalog(self.collection)
        self.variant = OptimizerVariant(variant)
        self.cost = CostModel(C_SEQ, C_IDX, C_FETCH)
        self.enumerate = enumerate_candidates
        self.execution = PlanExecution

    def choice(self, a_low: int, a_high: int, b_low: int, b_high: int) -> str:
        query = self.scenario.make_query(
            self.engine.RangePredicate("A", a_low, a_high),
            self.engine.RangePredicate("B", b_low, b_high))
        plans = self.enumerate(query, self.catalog, self.variant)
        executions = [self.execution(p, self.collection, self.catalog, self.cost)
                      for p in plans]
        return stepped_choice(executions, [str(p.id) for p in plans],
                              len(self.collection), self.variant.value == "mod")


def check_cells(data: Path, results_csv: Path, cells: list, d: int, scenario: str,
                variant: str, primed: str | None) -> tuple[dict, list[str]]:
    """Check every visited cell; returns failure counts by check and examples.

    `cells` holds [i, j, a_low, a_high, b_low, b_high, chosen] per cell, as
    recorded from the grid the sweep returned.
    """
    n, col_a, col_b = sorted_columns(data)
    rows = read_results(results_csv)
    oracle = None if primed else RaceOracle(data, scenario, variant)
    fails = {"label": 0, "times": 0, "chosen": 0, "failed": 0}
    examples: list[str] = []
    for i, j, a_low, a_high, b_low, b_high, chosen in cells:
        row = rows[(i, j)]
        count_a, count_b = count(col_a, a_low, a_high), count(col_b, b_low, b_high)
        bad = []
        cell_of = (min(count_a * d // n, d - 1), min(count_b * d // n, d - 1))
        if (cell_of != (i, j) or float(row["e_A"]) != count_a / n
                or float(row["e_B"]) != count_b / n):
            bad.append(f"label: counts ({count_a}, {count_b}) place the query in "
                       f"cell {cell_of}")
        times = expected_times(scenario, n, count_a, count_b)
        got = {p: float(row[f"t_{p}"]) for p in PLAN_ORDER if row[f"t_{p}"]}
        optimal, ratio = finalize_cell(times, chosen)
        if (got != times or row["chosen"] != chosen or row["optimal"] != optimal
                or float(row["ratio"]) != ratio):
            bad.append(f"times: expected {times}, optimal {optimal}, ratio {ratio}")
        want = primed or oracle.choice(a_low, a_high, b_low, b_high)
        if chosen != want:
            bad.append(f"chosen: {chosen}, stepped race picks {want}")
        for msg in bad:
            fails[msg.split(":", 1)[0]] += 1
        if bad:
            fails["failed"] += 1
            if len(examples) < 5:
                examples.append(f"cell ({i},{j}) A[{a_low},{a_high}) B[{b_low},{b_high}): "
                                + "; ".join(bad))
    return fails, examples
