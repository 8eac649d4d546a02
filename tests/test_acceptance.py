"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6 are calibrated grid targets at full scale (N=100000, D=50,
default knobs and cost model); 7-12 are exact property checks. Heavy runs
are shared through module-scoped fixtures, so the whole module stays inside
the two-minute budget of criterion 1.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from planrace.cli import main as cli_main
from planrace.engine import RangePredicate, generate_dataset
from planrace.executor import CostModel, PlanExecution, WorkState, run_to_completion
from planrace.harness import (
    filter_outliers,
    quantile_r7,
    run_experiment,
)
from planrace.optimizer import RaceKnobs, TrialStats, race, score_plan
from planrace.plans import OptimizerVariant, enumerate_candidates, parse_plan_hint
from planrace.scenarios import get_scenario

N_FULL = 100_000
D_FULL = 50
SEED = 7
COST = CostModel()
KNOBS = RaceKnobs()


def report(num: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num:>2}: {status} — {detail}")
    return ok


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(N_FULL, "uniform-distinct", seed=SEED)


@pytest.fixture(scope="module")
def both_vanilla(dataset):
    t0 = time.monotonic()
    grid, metrics = run_experiment(get_scenario("both-indexed"), dataset,
                                   OptimizerVariant.VANILLA, d=D_FULL, seed=SEED)
    return grid, metrics, time.monotonic() - t0


@pytest.fixture(scope="module")
def both_mod(dataset):
    return run_experiment(get_scenario("both-indexed"), dataset,
                          OptimizerVariant.MOD, d=D_FULL, seed=SEED)


@pytest.fixture(scope="module")
def single_vanilla(dataset):
    return run_experiment(get_scenario("single-index"), dataset,
                          OptimizerVariant.VANILLA, d=D_FULL, seed=SEED)


@pytest.fixture(scope="module")
def covering_vanilla(dataset):
    return run_experiment(get_scenario("covering"), dataset,
                          OptimizerVariant.VANILLA, d=D_FULL, seed=SEED)


@pytest.fixture(scope="module")
def covering_mod(dataset):
    return run_experiment(get_scenario("covering"), dataset,
                          OptimizerVariant.MOD, d=D_FULL, seed=SEED)


@pytest.fixture(scope="module")
def covering_primed(dataset):
    scenario = get_scenario("covering")
    out = {}
    for primed in ("IXSCAN_AB", "IXSCAN_B", "COLLSCAN", "IXSCAN_A"):
        out[primed] = run_experiment(scenario, dataset, OptimizerVariant.VANILLA,
                                     d=D_FULL, seed=SEED, primed=parse_plan_hint(primed))
    return out


def test_criterion_01_preference_bias(both_vanilla):
    grid, _, elapsed = both_vanilla
    collscan_cells = sum(1 for c in grid.cells.values() if c.chosen == "COLLSCAN")
    ok = collscan_cells == 0 and grid.complete and elapsed < 120.0
    assert report(1, ok, f"vanilla both-indexed: {collscan_cells}/2500 COLLSCAN cells "
                         f"(want exactly 0), run took {elapsed:.1f}s (budget 120s)")


def test_criterion_02_diagonal_split(both_vanilla):
    grid, _, _ = both_vanilla
    eligible = correct = 0
    for cell in grid.cells.values():
        if abs(cell.e_a - cell.e_b) > 0.1:
            eligible += 1
            lower = "IXSCAN_A" if cell.e_a < cell.e_b else "IXSCAN_B"
            correct += cell.chosen == lower
    frac = correct / eligible
    ok = frac >= 0.95
    assert report(2, ok, f"lower-selectivity index chosen in {frac:.2%} of "
                         f"{eligible} off-diagonal cells (want >= 95%)")


def test_criterion_03_vanilla_accuracy_band(both_vanilla):
    grid, metrics, _ = both_vanilla
    mean_ratio = statistics.fmean(c.ratio for c in grid.cells.values())
    ok = 0.24 <= metrics.accuracy <= 0.44 and 1.3 <= mean_ratio <= 2.2
    assert report(3, ok, f"vanilla both-indexed accuracy={metrics.accuracy:.4f} "
                         f"(band [0.24, 0.44]), mean ratio={mean_ratio:.3f} (band [1.3, 2.2])")


def test_criterion_04_single_index_crossover(single_vanilla):
    grid, _ = single_vanilla
    high = [c for c in grid.cells.values() if c.e_b > 0.25]
    low = [c for c in grid.cells.values() if c.e_b < 0.15]
    high_ok = all(c.optimal == "COLLSCAN" for c in high)
    low_ok = all(c.optimal == "IXSCAN_B" for c in low)
    ok = high_ok and low_ok and high and low
    assert report(4, ok, f"single-index optimal plans: COLLSCAN above e_B=0.25 "
                         f"({high_ok}, {len(high)} cells), IXSCAN_B below e_B=0.15 "
                         f"({low_ok}, {len(low)} cells)")


def test_criterion_05_mod_improvement(both_mod, covering_mod):
    _, m_both = both_mod
    _, m_cover = covering_mod
    both_ok = m_both.accuracy >= 0.85 and m_both.impact_pct <= 5.0
    cover_ok = abs(m_cover.accuracy - 0.525) <= 0.15
    ok = both_ok and cover_ok
    assert report(5, ok, f"mod both-indexed accuracy={m_both.accuracy:.4f} (want >= 0.85), "
                         f"impact={m_both.impact_pct:.2f}% (want <= 5%); "
                         f"mod covering accuracy={m_cover.accuracy:.4f} (want 0.525 +/- 0.15)")


def test_criterion_06_cache_priming_ordering(covering_primed, covering_vanilla):
    _, vanilla_metrics = covering_vanilla
    acc = {p: m.accuracy for p, (_, m) in covering_primed.items()}
    imp = {p: m.impact_pct for p, (_, m) in covering_primed.items()}
    ranked = acc["IXSCAN_AB"] > acc["IXSCAN_B"] > acc["COLLSCAN"] > acc["IXSCAN_A"]
    impacts_ok = all(v >= vanilla_metrics.impact_pct for v in imp.values())
    ok = ranked and impacts_ok
    assert report(6, ok, f"primed accuracies cover={acc['IXSCAN_AB']:.4f} "
                         f"B={acc['IXSCAN_B']:.4f} coll={acc['COLLSCAN']:.4f} "
                         f"A={acc['IXSCAN_A']:.4f} (want strict cover > B > coll > A); "
                         f"primed impacts >= unprimed {vanilla_metrics.impact_pct:.2f}%: {impacts_ok}")


def test_criterion_07_race_bounds():
    rng = random.Random(1234)
    n = 5000
    collection = generate_dataset(n, "uniform-distinct", seed=99)
    catalogs = {name: get_scenario(name).build_catalog(collection)
                for name in ("both-indexed", "single-index", "covering")}
    max_rounds = KNOBS.max_rounds(n)
    violations = 0
    for _ in range(1000):
        name = rng.choice(list(catalogs))
        scenario = get_scenario(name)
        a0 = rng.randrange(n); a1 = rng.randrange(a0, n + 1)
        b0 = rng.randrange(n); b1 = rng.randrange(b0, n + 1)
        q = scenario.make_query(RangePredicate("A", a0, a1), RangePredicate("B", b0, b1))
        variant = rng.choice(list(OptimizerVariant))
        plans = enumerate_candidates(q, catalogs[name], variant)
        stats = race([PlanExecution(p, collection, catalogs[name], COST) for p in plans],
                     n, KNOBS)
        works = [s.works for s in stats]
        if max(works) > max_rounds or any(s.results > KNOBS.max_results for s in stats) \
                or max(works) - min(works) > 1:
            violations += 1
    ok = violations == 0
    assert report(7, ok, f"1000 random races: {violations} bound violations "
                         f"(round cap {max_rounds:.0f}, results cap {KNOBS.max_results}, "
                         f"works spread <= 1)")


def test_criterion_08_score_formula_oracle():
    def stats(works, results, *, eof=False, fetch=False):
        return TrialStats(parse_plan_hint("IXSCAN_A"), works, results, eof, fetch)

    cases = [
        (stats(101, 101), OptimizerVariant.VANILLA, 2.0003),
        (stats(101, 101, fetch=True), OptimizerVariant.VANILLA, 2.0002),
        (stats(101, 101, fetch=True), OptimizerVariant.MOD, 1.5002),
        (stats(30_000, 0), OptimizerVariant.VANILLA, 1.00001),
        (stats(1, 0), OptimizerVariant.VANILLA, 1.0003),          # unit tie-break: 1/10
        (stats(1, 1, eof=True), OptimizerVariant.VANILLA, 3.0003),
        (stats(10, 5, fetch=True), OptimizerVariant.MOD, 1.25 + 2e-4),
        (stats(10, 5, fetch=True), OptimizerVariant.VANILLA, 1.5 + 2e-4),
    ]
    worst = 0.0
    for st, variant, expected in cases:
        got = score_plan(st, variant).total
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-12
    assert report(8, ok, f"score oracle: max |err| = {worst:.2e} over {len(cases)} "
                         f"decompositions (tolerance 1e-12)")


def test_criterion_09_plan_equivalence():
    rng = random.Random(4321)
    n = 500
    collection = generate_dataset(n, "uniform-distinct", seed=11)
    mismatches = 0
    for name in ("both-indexed", "single-index", "covering"):
        scenario = get_scenario(name)
        catalog = scenario.build_catalog(collection)
        for _ in range(200):
            a0 = rng.randrange(n); a1 = rng.randrange(a0, n + 1)
            b0 = rng.randrange(n); b1 = rng.randrange(b0, n + 1)
            q = scenario.make_query(RangePredicate("A", a0, a1), RangePredicate("B", b0, b1))
            oracle = {rid for rid, (a, b) in enumerate(zip(collection.columns["A"],
                                                           collection.columns["B"]))
                      if a0 <= a < a1 and b0 <= b < b1}
            for plan in enumerate_candidates(q, catalog, OptimizerVariant.MOD):
                got, _, _ = run_to_completion(PlanExecution(plan, collection, catalog, COST))
                if got != oracle:
                    mismatches += 1
    ok = mismatches == 0
    assert report(9, ok, f"600 random queries x all candidates vs naive filter "
                         f"oracle: {mismatches} result-set mismatches")


def test_criterion_10_executor_cost_identities():
    rng = random.Random(999)
    n = 400
    collection = generate_dataset(n, "uniform-distinct", seed=13)
    scenario = get_scenario("covering")
    catalog = scenario.build_catalog(collection)
    failures = 0
    for _ in range(100):
        a0 = rng.randrange(n); a1 = rng.randrange(a0, n + 1)
        b0 = rng.randrange(n); b1 = rng.randrange(b0, n + 1)
        k_a, k_b = a1 - a0, b1 - b0  # distinct uniform values: counts equal widths
        expectations = {
            "COLLSCAN": (n * COST.c_seq, n + 1),
            "IXSCAN_A": (k_a * (COST.c_idx + COST.c_fetch), k_a + 1),
            "IXSCAN_B": (k_b * (COST.c_idx + COST.c_fetch), k_b + 1),
            "IXSCAN_AB": (k_a * COST.c_idx, k_a + 1),
        }
        for hint, (want_time, want_works) in expectations.items():
            q = scenario.make_query(RangePredicate("A", a0, a1), RangePredicate("B", b0, b1),
                                    hint=parse_plan_hint(hint))
            plan = enumerate_candidates(q, catalog)[0]
            ex = PlanExecution(plan, collection, catalog, COST)
            acc_time = 0.0
            acc_works = 0
            while True:  # brute-force per-work accumulator
                before = ex.sim_time
                state = ex.work()
                acc_works += 1
                acc_time += ex.sim_time - before
                if state is WorkState.EOF:
                    break
            if not (acc_time == want_time == ex.sim_time and acc_works == want_works == ex.works):
                failures += 1
    ok = failures == 0
    assert report(10, ok, f"100 random queries x 4 plans: {failures} deviations from "
                          f"N*c_seq / k*(c_idx+c_fetch) / k*c_idx identities (exact)")


def test_criterion_11_iqr_filter_reference():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        samples = [rng.gauss(100, 30) for _ in range(rng.randint(1, 25))]
        if len(samples) >= 2:
            ref = statistics.quantiles(samples, n=4, method="inclusive")
            q1, q3 = ref[0], ref[2]
        else:
            q1 = q3 = samples[0]
        iqr = q3 - q1
        expected = [x for x in samples if q1 - 1.5 * iqr <= x <= q3 + 1.5 * iqr]
        if filter_outliers(samples) != expected:
            mismatches += 1
        if abs(quantile_r7(samples, 0.25) - q1) > 1e-9 or \
           abs(quantile_r7(samples, 0.75) - q3) > 1e-9:
            mismatches += 1
    degenerate_ok = (filter_outliers([5.0] * 8) == [5.0] * 8
                     and filter_outliers([42.0]) == [42.0]
                     and filter_outliers([4, 5, 5, 6, 100]) == [4, 5, 5, 6])
    ok = mismatches == 0 and degenerate_ok
    assert report(11, ok, f"1000 random samples vs stdlib inclusive-quantile reference: "
                          f"{mismatches} mismatches; degenerate cases ok={degenerate_ok}")


def test_criterion_12_byte_identical_reruns(tmp_path):
    data = tmp_path / "data.csv"
    assert cli_main(["gen", "--n", "2000", "--dist", "uniform-distinct",
                     "--seed", "5", "--out", str(data)]) == 0
    outs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        rc = cli_main(["run", "--scenario", "covering", "--variant", "mod",
                       "--data", str(data), "--dim", "8", "--seed", "3",
                       "--out", str(out)])
        assert rc == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("results.csv", "chosen.ppm", "optimal.ppm", "impact.ppm"))
    summaries = [sorted(p.name for p in out.glob("summary_*.json")) for out in outs]
    identical = identical and summaries[0] == summaries[1]
    assert report(12, identical, "identical flags produce byte-identical results.csv "
                                 "and .ppm outputs across reruns")
