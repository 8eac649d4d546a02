"""Command-line interface: dataset generation, experiment runs, plan explain."""

from __future__ import annotations

import argparse
import math
import sys

from . import engine, harness, viz
from .errors import PlanraceError
from .executor import CostModel, plan_cost_totals
from .optimizer import RaceKnobs, optimize
from .plans import OptimizerVariant, parse_plan_hint
from .scenarios import SCENARIOS, get_scenario

VARIANTS = {v.value: v for v in OptimizerVariant}

# A run fills D * D grid cells; this keeps them at most 10**6.
MAX_DIM = 1000
# Forced measurement sums `reps` copies of each plan's time (one list of
# `reps` references per plan and cell); this keeps that list small.
MAX_REPS = 1000
# gen holds at most about 165 bytes per document while it generates and
# writes the file (two int objects and list slots per document before the
# columns become int64 arrays, then a line of text: 163 MB peak at 10**6
# documents), so this keeps gen within about 2 GB.
MAX_DOCUMENTS = 10**7


def _positive(convert, most: float = math.inf):
    """argparse type: `convert` the text; reject values not finite and > 0,
    and values above `most`."""
    bound = "" if most == math.inf else f" at most {most}"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < math.inf or value > most:
            raise argparse.ArgumentTypeError(
                f"expected a positive number{bound}, got {text!r}")
        return value

    return parse


def _int_at_most(most: int):
    """argparse type: an integer no larger than `most`; smaller ones,
    zero and negative ones included, are left to the command to judge."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value > most:
            raise argparse.ArgumentTypeError(
                f"expected an integer at most {most}, got {text!r}")
        return value

    return parse


def _add_run_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS),
                   help="physical design preset")
    p.add_argument("--variant", required=True, choices=sorted(VARIANTS),
                   help="optimizer variant")
    p.add_argument("--data", required=True, help="dataset CSV produced by `gen`")
    p.add_argument("--cost", default=None, metavar="c_seq,c_idx,c_fetch",
                   help="cost model override (default 1,1,4)")
    p.add_argument("--works", type=_positive(int), default=10_000,
                   help="race work budget (default 10000)")
    p.add_argument("--max-results", type=_positive(int), default=101,
                   help="race result cap (default 101)")
    p.add_argument("--coll-fraction", type=_positive(float), default=0.3,
                   help="fraction of N bounding race rounds (default 0.3)")


def _parse_cost(parser: argparse.ArgumentParser, text: str | None) -> CostModel:
    if text is None:
        return CostModel()
    try:
        parts = [float(x) for x in text.split(",")]
        if len(parts) != 3:
            raise ValueError
        return CostModel(*parts)
    except ValueError:
        parser.error(f"--cost expects three finite positive numbers like 1,1,4 "
                     f"(got {text!r})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planrace",
        description="Race-based query-plan optimizer simulator and evaluation harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset file")
    gen.add_argument("--n", type=_int_at_most(MAX_DOCUMENTS), required=True,
                     help=f"number of documents, at most {MAX_DOCUMENTS}")
    gen.add_argument("--dist", default="uniform-distinct", choices=engine.DISTRIBUTIONS)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")

    run = sub.add_parser("run", help="run a grid experiment and write report files")
    _add_run_common(run)
    run.add_argument("--dim", type=_positive(int, MAX_DIM), default=50,
                     help=f"grid dimension, at most {MAX_DIM} (default 50)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--reps", type=_positive(int, MAX_REPS), default=10,
                     help=f"forced measurement repetitions per plan, at most {MAX_REPS} "
                     "(default 10)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--cache-primed", default=None,
                     metavar="PLAN", help="prime the plan cache with this plan "
                     "(COLLSCAN, IXSCAN_A, IXSCAN_B, IXSCAN_AB) and skip racing")
    run.add_argument("--svg", action="store_true", help="also write SVG diagrams")

    explain = sub.add_parser("explain", help="race one query and print per-plan statistics")
    _add_run_common(explain)
    explain.add_argument("--lowA", type=int, required=True)
    explain.add_argument("--highA", type=int, required=True)
    explain.add_argument("--lowB", type=int, required=True)
    explain.add_argument("--highB", type=int, required=True)
    explain.add_argument("--hint", default=None, metavar="PLAN",
                         help="force a single candidate plan")
    return parser


def _load(path: str) -> engine.Collection:
    try:
        return engine.load_dataset(path)
    except UnicodeDecodeError as exc:
        raise PlanraceError(f"cannot read dataset {path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise PlanraceError(f"cannot read dataset {path}: {exc.strerror or exc}") from None


def _cannot_write(path: str, exc: OSError) -> PlanraceError:
    return PlanraceError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_gen(args) -> int:
    collection = engine.generate_dataset(args.n, args.dist, args.seed)
    try:
        engine.save_dataset(collection, args.out)
    except OSError as exc:
        raise _cannot_write(args.out, exc) from None
    print(f"wrote {args.out}: {len(collection)} documents, fields {','.join(collection.field_list)}")
    return 0


def cmd_run(parser, args) -> int:
    cost = _parse_cost(parser, args.cost)
    knobs = RaceKnobs(args.works, args.coll_fraction, args.max_results)
    scenario = get_scenario(args.scenario)
    variant = VARIANTS[args.variant]
    primed = None
    if args.cache_primed is not None:
        # checked before the dataset is read, which can take seconds
        try:
            primed = parse_plan_hint(args.cache_primed)
            harness.primed_cache_for(scenario, primed)  # validate executability
        except PlanraceError as exc:
            parser.error(str(exc))
    collection = _load(args.data)
    grid, metrics = harness.run_experiment(
        scenario, collection, variant, d=args.dim, seed=args.seed, knobs=knobs,
        cost=cost, reps=args.reps, primed=primed)
    grid.provenance["dataset"] = args.data
    try:
        written = viz.write_report(grid, metrics, args.out, svg=args.svg)
    except OSError as exc:
        raise _cannot_write(args.out, exc) from None
    for path in written:
        print(f"wrote {path}")
    print(f"accuracy={metrics.accuracy:.4f} impact={metrics.impact_pct:.4f}")
    return 0


def cmd_explain(parser, args) -> int:
    cost = _parse_cost(parser, args.cost)
    for field_name in ("A", "B"):
        low, high = getattr(args, f"low{field_name}"), getattr(args, f"high{field_name}")
        if low > high:
            parser.error(f"--low{field_name} {low} is above --high{field_name} {high}")
    knobs = RaceKnobs(args.works, args.coll_fraction, args.max_results)
    scenario = get_scenario(args.scenario)
    variant = VARIANTS[args.variant]
    hint = None
    if args.hint is not None:
        # checked before the dataset is read, which can take seconds
        try:
            hint = parse_plan_hint(args.hint)
            harness.primed_cache_for(scenario, hint)  # a plan the scenario can run
        except PlanraceError as exc:
            parser.error(str(exc))
    collection = _load(args.data)
    catalog = scenario.build_catalog(collection)
    query = scenario.make_query(
        engine.RangePredicate("A", args.lowA, args.highA),
        engine.RangePredicate("B", args.lowB, args.highB),
        hint=hint)
    result = optimize(query, collection, catalog, variant, knobs)
    for plan, stats, score in zip(result.candidates, result.stats, result.scores):
        # a race reads work units; the cost model prices the plan's full run
        run_time, _ = plan_cost_totals(plan, collection, cost)
        print(f"candidate {plan.id}: works={stats.works} results={stats.results} "
              f"eof={str(stats.reached_eof).lower()} time={run_time}")
        print(f"  base={score.base} productivity={score.productivity:.6f} "
              f"tie_break_unit={score.tie_break_unit:.6g} "
              f"no_fetch={score.no_fetch_bonus:.6g} no_sort={score.no_sort_bonus:.6g} "
              f"no_ixisect={score.no_ixisect_bonus:.6g} eof_bonus={score.eof_bonus} "
              f"total={score.total:.6f}")
    print(f"winner: {result.chosen}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "run":
            return cmd_run(parser, args)
        return cmd_explain(parser, args)
    except PlanraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
