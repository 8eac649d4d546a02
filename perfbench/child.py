"""One benchmark child process: a planrace CLI command run with hooks.

    python3 perfbench/child.py --side FILE [--trace] -- <planrace CLI args>
    python3 perfbench/child.py --side FILE --setup SCENARIO DATA [--memory]

Without --trace the child installs only what the correctness checks and the
set-up metric need, and each of these hooks runs once per process: a timer
around engine.load_dataset and around Scenario.build_catalog, and a recorder
of the grid that harness.sweep returns (each cell's query and chosen plan).

With --trace it also times each layer from outside. Pipeline steps become
spans with their parent span; the hot public functions harness calls are
aggregated per (function, parent span), since one run makes up to millions
of those calls. Everything stays in memory and FILE is written at exit.

--setup only loads DATA and builds SCENARIO's catalog, timing each step,
for more set-up samples than the runs give. With --memory it runs both steps
under tracemalloc instead and records the peak each adds, so that no timed
or traced run is slowed by tracemalloc.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

perf_counter = time.perf_counter


class Tracer:
    """Spans kept in memory: [name, parent index or -1, start, end, leaf time]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (leaf name, parent span index) -> [calls, total seconds]
        self.leaves: dict[tuple[str, int], list] = {}
        self.optimize_s: list[float] = []
        self.counts = {"races": 0, "cache_hits": 0, "works": 0, "results": 0,
                       "candidates": 0}

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return wrapped

    def leaf(self, name, fn, observe=None):
        spans, stack, leaves = self.spans, self.stack, self.leaves

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            parent = stack[-1]
            stats = leaves.get((name, parent))
            if stats is None:
                stats = leaves[(name, parent)] = [0, 0.0]
            stats[0] += 1
            stats[1] += dt
            spans[parent][4] += dt
            if observe is not None:
                observe(result, dt)
            return result

        return wrapped

    def observe_optimize(self, result, dt):
        self.optimize_s.append(dt)
        c = self.counts
        if result.from_cache:
            c["cache_hits"] += 1
            return
        c["races"] += 1
        c["candidates"] += len(result.candidates)
        for stats in result.stats:
            c["works"] += stats.works
            c["results"] += stats.results

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[name, parent, calls, total]
                       for (name, parent), (calls, total) in self.leaves.items()],
            "optimize_s": self.optimize_s,
            "counts": self.counts,
        }


def record_cells(fn, side):
    """Wrap harness.sweep: keep each visited cell's query and choice."""

    def wrapped(*args, **kwargs):
        grid = fn(*args, **kwargs)
        cells = []
        for cell in grid.sorted_cells():
            bounds = {p.field: (p.low, p.high) for p in cell.query.predicates}
            cells.append([cell.i, cell.j, *bounds["A"], *bounds["B"], cell.chosen])
        side["cells"] = cells
        return grid

    return wrapped


def timer(key, fn, side):
    def wrapped(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            side.setdefault(key, []).append(perf_counter() - t0)

    return wrapped


def setup(scenario_name: str, data: str, memory: bool) -> dict:
    from planrace import engine
    from planrace.scenarios import get_scenario

    scenario = get_scenario(scenario_name)
    if not memory:
        t0 = perf_counter()
        collection = engine.load_dataset(data)
        t1 = perf_counter()
        scenario.build_catalog(collection)
        return {"load_s": [t1 - t0], "catalog_s": [perf_counter() - t1]}
    tracemalloc.start()
    collection = engine.load_dataset(data)
    load_peak = tracemalloc.get_traced_memory()[1]
    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    scenario.build_catalog(collection)
    catalog_peak = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    return {"load_peak_bytes": load_peak, "catalog_peak_bytes": catalog_peak}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--side", required=True, help="JSON file written at exit")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup", nargs=2, metavar=("SCENARIO", "DATA"))
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    side: dict = {}
    if opts.setup:
        side.update(setup(*opts.setup, opts.memory))
        Path(opts.side).write_text(json.dumps(side))
        return 0

    t0 = perf_counter()
    from planrace import cli, engine, harness, viz
    from planrace.scenarios import Scenario
    side["import_s"] = perf_counter() - t0

    run_main = cli.main
    if opts.trace:
        tracer = Tracer()
        span, leaf = tracer.span, tracer.leaf
        engine.generate_dataset = span("engine.generate_dataset", engine.generate_dataset)
        engine.save_dataset = span("engine.save_dataset", engine.save_dataset)
        engine.load_dataset = span("engine.load_dataset", engine.load_dataset)
        Scenario.build_catalog = span("engine.build_catalog", Scenario.build_catalog)
        harness.sweep = record_cells(span("harness.sweep", harness.sweep), side)
        harness.measure_grid = span("harness.measure_grid", harness.measure_grid)
        harness.finalize = span("harness.finalize", harness.finalize)
        viz.write_report = span("viz.write_report", viz.write_report)
        harness.optimize = leaf("optimizer.optimize", harness.optimize,
                                tracer.observe_optimize)
        harness.match_count = leaf("engine.match_count", harness.match_count)
        harness.rand_range_predicate = leaf("harness.rand_range_predicate",
                                            harness.rand_range_predicate)
        harness.plan_cost_totals = leaf("executor.plan_cost_totals",
                                        harness.plan_cost_totals)
        run_main = span("cli.main", cli.main)
    else:
        engine.load_dataset = timer("load_s", engine.load_dataset, side)
        Scenario.build_catalog = timer("catalog_s", Scenario.build_catalog, side)
        harness.sweep = record_cells(harness.sweep, side)

    try:
        return run_main(cli_args)
    finally:
        if opts.trace:
            side.update(tracer.dump())
        Path(opts.side).write_text(json.dumps(side))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
