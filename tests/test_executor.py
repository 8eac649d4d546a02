"""Work-unit protocol: step accounting, totals, and the work/time divergence."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from planrace.engine import RangePredicate, generate_dataset
from planrace.executor import (
    CostModel,
    PlanExecution,
    WorkState,
    plan_cost_totals,
    run_to_completion,
)
from planrace.plans import enumerate_candidates, parse_plan_hint
from planrace.scenarios import get_scenario

COST = CostModel()


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(300, "uniform-distinct", seed=23)


@pytest.fixture(scope="module")
def covering(dataset):
    scenario = get_scenario("covering")
    return scenario, scenario.build_catalog(dataset)


def plan_for(scenario, catalog, hint_text, low_a, high_a, low_b, high_b):
    q = scenario.make_query(RangePredicate("A", low_a, high_a),
                            RangePredicate("B", low_b, high_b),
                            hint=parse_plan_hint(hint_text))
    return q, enumerate_candidates(q, catalog)[0]


def brute_force_accumulate(execution, cost=COST):
    """Independent per-work accumulator: counts each state work() returns.

    Time is the count of non-terminal steps times the per-step cost of the
    plan's access path, so the totals are exact for any cost model.
    """
    per_step = {"COLLSCAN": cost.c_seq, "IXSCAN": cost.c_idx + cost.c_fetch,
                "IXSCAN_COVER": cost.c_idx}[execution.plan.id.kind.value]
    steps = 0
    total_works = 0
    advanced = 0
    while True:
        state = execution.work()
        total_works += 1
        if state is WorkState.ADVANCED:
            advanced += 1
        elif state is WorkState.EOF:
            break
        steps += 1
    return steps * per_step, total_works, advanced


def test_open_state_is_zeroed(dataset, covering):
    scenario, catalog = covering
    _, plan = plan_for(scenario, catalog, "COLLSCAN", 0, 10, 0, 10)
    ex = PlanExecution(plan, dataset, catalog, COST)
    assert (ex.works, ex.results, ex.sim_time, ex.eof) == (0, 0, 0.0, False)


def test_collscan_step_accounting(dataset, covering):
    scenario, catalog = covering
    # predicate no document satisfies: every step is NEED_TIME and costs c_seq
    _, plan = plan_for(scenario, catalog, "COLLSCAN", 0, 0, 0, 300)
    ex = PlanExecution(plan, dataset, catalog, COST)
    assert ex.work() is WorkState.NEED_TIME
    assert (ex.works, ex.results, ex.sim_time) == (1, 0, COST.c_seq)


def test_ixscan_advanced_costs_idx_plus_fetch(dataset, covering):
    scenario, catalog = covering
    _, plan = plan_for(scenario, catalog, "IXSCAN_A", 0, 300, 0, 300)
    ex = PlanExecution(plan, dataset, catalog, COST)
    assert ex.work() is WorkState.ADVANCED
    assert ex.works == 1
    assert ex.sim_time == COST.c_idx + COST.c_fetch


def test_ixscan_seeks_to_range_start(dataset, covering):
    scenario, catalog = covering
    _, plan = plan_for(scenario, catalog, "IXSCAN_A", 3, 7, 0, 300)
    ex = PlanExecution(plan, dataset, catalog, COST)
    rids, _, works = run_to_completion(ex)
    assert works == 4 + 1  # values 3,4,5,6 exist exactly once each
    assert {dataset.columns["A"][r] for r in rids} == {3, 4, 5, 6}


def test_covered_scan_never_touches_documents(dataset, covering):
    scenario, catalog = covering
    _, plan = plan_for(scenario, catalog, "IXSCAN_AB", 0, 300, 0, 300)
    ex = PlanExecution(plan, dataset, catalog, COST)
    assert ex.work() is WorkState.ADVANCED
    assert ex.sim_time == COST.c_idx


def test_empty_collection_range_is_immediate_eof(dataset, covering):
    scenario, catalog = covering
    _, plan = plan_for(scenario, catalog, "IXSCAN_A", 250, 250, 0, 300)
    ex = PlanExecution(plan, dataset, catalog, COST)
    assert ex.work() is WorkState.EOF
    assert (ex.works, ex.sim_time, ex.eof) == (1, 0.0, True)


def test_eof_is_sticky_with_no_state_change(dataset, covering):
    scenario, catalog = covering
    _, plan = plan_for(scenario, catalog, "COLLSCAN", 0, 5, 0, 300)
    ex = PlanExecution(plan, dataset, catalog, COST)
    run_to_completion(ex)
    snapshot = (ex.works, ex.results, ex.sim_time)
    for _ in range(3):
        assert ex.work() is WorkState.EOF
    assert (ex.works, ex.results, ex.sim_time) == snapshot


def test_collscan_totals(dataset, covering):
    scenario, catalog = covering
    n = len(dataset)
    _, plan = plan_for(scenario, catalog, "COLLSCAN", 10, 50, 200, 220)
    ex = PlanExecution(plan, dataset, catalog, COST)
    _, sim_time, works = run_to_completion(ex)
    assert sim_time == n * COST.c_seq
    assert works == n + 1


def test_totals_match_brute_force_accumulator(dataset, covering):
    # fractional step costs would drift if the stepped time were summed per step
    scenario, catalog = covering
    rng = random.Random(31)
    n = len(dataset)
    for _ in range(40):
        a0 = rng.randrange(n); a1 = rng.randrange(a0, n + 1)
        b0 = rng.randrange(n); b1 = rng.randrange(b0, n + 1)
        for hint, cost in itertools.product(
                ("COLLSCAN", "IXSCAN_A", "IXSCAN_B", "IXSCAN_AB"),
                (COST, CostModel(0.1, 0.3, 0.7))):
            q, plan = plan_for(scenario, catalog, hint, a0, a1, b0, b1)
            acc_t, acc_w, acc_adv = brute_force_accumulate(
                PlanExecution(plan, dataset, catalog, cost), cost)
            ex = PlanExecution(plan, dataset, catalog, cost)
            rids, sim_time, works = run_to_completion(ex)
            assert (sim_time, works) == (acc_t, acc_w)
            assert len(rids) == acc_adv
            # and the closed-form totals used by the measurement pass agree
            assert plan_cost_totals(plan, dataset, cost) == (sim_time, works)


def test_ixscan_total_is_selectivity_linear(dataset, covering):
    scenario, catalog = covering
    _, plan = plan_for(scenario, catalog, "IXSCAN_A", 100, 175, 0, 300)
    _, sim_time, works = run_to_completion(PlanExecution(plan, dataset, catalog, COST))
    k = 75  # distinct values: bounds width
    assert sim_time == k * (COST.c_idx + COST.c_fetch)
    assert works == k + 1


def test_works_identical_for_fetch_and_covered_scans(dataset, covering):
    # same bounds, same work units, different times: the accounting bias
    scenario, catalog = covering
    _, ix = plan_for(scenario, catalog, "IXSCAN_A", 40, 160, 0, 300)
    _, cover = plan_for(scenario, catalog, "IXSCAN_AB", 40, 160, 0, 300)
    _, t_ix, w_ix = run_to_completion(PlanExecution(ix, dataset, catalog, COST))
    _, t_cover, w_cover = run_to_completion(PlanExecution(cover, dataset, catalog, COST))
    assert w_ix == w_cover
    assert t_ix == 5 * t_cover


def test_results_never_exceed_works(dataset, covering):
    scenario, catalog = covering
    _, plan = plan_for(scenario, catalog, "IXSCAN_B", 0, 300, 100, 200)
    ex = PlanExecution(plan, dataset, catalog, COST)
    while not ex.eof:
        ex.work()
        assert ex.results <= ex.works


def test_cost_scaling_preserves_argmin(dataset, covering):
    scenario, catalog = covering
    rng = random.Random(37)
    n = len(dataset)
    for _ in range(20):
        a0 = rng.randrange(n); a1 = rng.randrange(a0, n + 1)
        b0 = rng.randrange(n); b1 = rng.randrange(b0, n + 1)
        hints = ("COLLSCAN", "IXSCAN_A", "IXSCAN_B", "IXSCAN_AB")
        def argmin(cost):
            times = []
            for h in hints:
                _, plan = plan_for(scenario, catalog, h, a0, a1, b0, b1)
                times.append(plan_cost_totals(plan, dataset, cost)[0])
            return times.index(min(times))
        assert argmin(COST) == argmin(CostModel(7.5, 7.5, 30.0))


def test_cost_model_rejects_nonpositive():
    with pytest.raises(ValueError):
        CostModel(c_seq=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cost_model_rejects_non_finite(value):
    for name in ("c_seq", "c_idx", "c_fetch"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CostModel(**{name: value})
