"""planrace benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; planrace is imported from ./src, nothing is
installed, and every file the run writes stays under ./.perfbench_work.

The workload's dataset is generated from --seed (with `planrace gen`) before
any timing starts, and the same seed is the run's --seed. With --trace 0 the
benchmark starts `planrace run` child processes one at a time, at least three
and as many more as fit in S seconds, and reports medians of

- run_s: wall time of one child process, from spawn to exit;
- setup_s: engine.load_dataset plus Scenario.build_catalog inside each child;
- peak_rss_mb: the child's peak resident set size, from os.wait4.

With --trace 1 it runs one untraced child, then traced children (at least
three, as many as fit in S seconds; their counts must agree exactly) and one
tracemalloc child for the set-up peaks, and reports the per-layer metrics.

Either way it then checks the outputs: every child exits 0, its last stdout
line matches its summary JSON, every child writes byte-identical reports
(the digest printed below), and every visited cell passes the oracles in
oracle.py. Cells failing an oracle are counted in `failed` against the
visited cells in `attempted`; a broken run makes `correct` false. The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402


@dataclass(frozen=True)
class Workload:
    n: int
    dist: str
    scenario: str
    variant: str
    dim: int
    primed: str | None = None


# Why these three: see README.md in this directory.
WORKLOADS = {
    # every query races all four plan kinds: the race layer dominates
    "race-covering": Workload(100_000, "uniform-distinct", "covering", "mod", 50),
    # the primed plan cache bypasses every race: load and index build dominate
    "primed-300k": Workload(300_000, "uniform-distinct", "covering", "vanilla", 50,
                            primed="IXSCAN_AB"),
    # with fewer documents than grid columns, counts cannot reach row 0 and
    # column 0: rejection sampling runs to its cap, then the direct fill
    # mislabels those 19 cells
    "sparse-sweep": Workload(9, "uniform-distinct", "both-indexed", "vanilla", 10),
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "engine.gen_s": "s",
    "engine.save_s": "s",
    "engine.load_s": "s",
    "engine.catalog_build_s": "s",
    "engine.load_peak_mb": "MB",
    "engine.catalog_peak_mb": "MB",
    "engine.match_count_calls": "count",
    "engine.match_count_s": "s",
    "harness.draws": "count",
    "harness.cells_per_draw": "ratio",
    "harness.sweep_self_s": "s",
    "optimizer.optimize_s": "s",
    "optimizer.optimize_p50_us": "us",
    "optimizer.optimize_p99_us": "us",
    "optimizer.races": "count",
    "optimizer.cache_hits": "count",
    "executor.works": "count",
    "executor.results_per_work": "ratio",
    "plans.candidates_per_race": "ratio",
    "harness.measure_s": "s",
    "harness.plan_cost_calls": "count",
    "harness.finalize_s": "s",
    "viz.report_s": "s",
    "viz.report_bytes": "bytes",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "engine.self_s": "s",
    "harness.self_s": "s",
    "optimizer.self_s": "s",
    "executor.self_s": "s",
    "viz.self_s": "s",
    "trace.overhead_s": "s",
}

CHILD = str(HERE / "child.py")
MIN_RUNS = 3
SETUP_SAMPLES = 11
SETUP_EXTRA_S = 1.0
TIME_LIMIT_S = 170  # the whole invocation, checks included
REPORT_FILES = ("results.csv", "chosen.ppm", "optimal.ppm", "impact.ppm")
MB = 1024 * 1024


class BenchError(Exception):
    """The benchmark could not produce a result."""


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    stdout: str
    out: Path
    side: dict


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, work: Path, deadline: float):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = deadline
        self.data = work / "data.csv"
        self.spawned = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

    def spawn(self, make_argv) -> Child:
        """Run one child to completion; wall time and peak RSS from wait4.

        make_argv(tag) gives the interpreter's arguments; the child writes
        its report files to tag/out and its side file to tag/side.json.
        """
        self.spawned += 1
        tag = self.work / f"child-{self.spawned}"
        tag.mkdir()
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(tag / "stdout"), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(tag / "stderr"), flags, 0o644)]
        argv = make_argv(tag)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before starting {argv}")
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        except BaseException as exc:  # timeout, SIGTERM or ^C: stop the child first
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            if isinstance(exc, ChildTimeout):
                raise BenchError(f"child did not finish within {TIME_LIMIT_S} s: "
                                 f"{argv}") from None
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err = (tag / "stderr").read_text(errors="replace").strip().splitlines()
            raise BenchError(f"child exited {code}: {argv}: {err[-1] if err else ''}")
        side_path = tag / "side.json"
        side = json.loads(side_path.read_text()) if side_path.exists() else {}
        return Child(wall, usage.ru_maxrss * 1024 / MB, (tag / "stdout").read_text(),
                     tag / "out", side)

    def gen(self, trace: bool) -> Child:
        wl = self.wl
        cli = ["gen", "--n", str(wl.n), "--dist", wl.dist, "--seed", str(self.seed),
               "--out", str(self.data)]
        if trace:
            return self.spawn(lambda tag: [CHILD, "--side", str(tag / "side.json"),
                                           "--trace", "--", *cli])
        return self.spawn(lambda tag: ["-m", "planrace", *cli])

    def run(self, trace: bool) -> Child:
        wl = self.wl
        cli = ["run", "--scenario", wl.scenario, "--variant", wl.variant,
               "--data", str(self.data), "--dim", str(wl.dim), "--seed", str(self.seed),
               *(["--cache-primed", wl.primed] if wl.primed else [])]
        hooks = ["--trace"] if trace else []
        return self.spawn(lambda tag: [CHILD, "--side", str(tag / "side.json"), *hooks,
                                       "--", *cli, "--out", str(tag / "out")])

    def setup(self, memory: bool = False) -> Child:
        return self.spawn(lambda tag: [CHILD, "--side", str(tag / "side.json"),
                                       "--setup", self.wl.scenario, str(self.data),
                                       *(["--memory"] if memory else [])])

    def repeat(self, trace: bool) -> list[Child]:
        """At least MIN_RUNS runs, then more while the next fits in --seconds."""
        runs: list[Child] = []
        t0 = time.perf_counter()
        while True:
            if len(runs) >= MIN_RUNS:
                mean = statistics.fmean(r.wall_s for r in runs)
                elapsed = time.perf_counter() - t0
                if (elapsed + mean > self.seconds
                        or time.monotonic() + 2 * mean > self.deadline):
                    return runs
            runs.append(self.run(trace))


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in [out / f for f in REPORT_FILES] + sorted(out.glob("summary_*.json")):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def run_problems(child: Child, wl: Workload, seed: int) -> list[str]:
    """Run-level checks of one child's output files and stdout."""
    out = child.out
    missing = [f for f in REPORT_FILES if not (out / f).is_file()]
    summaries = sorted(out.glob("summary_*.json"))
    if missing or len(summaries) != 1:
        return [f"{out}: missing report files {missing} or summary {summaries}"]
    summary = json.loads(summaries[0].read_text())
    problems = []
    acc, impact = summary["accuracy"], summary["impact_pct"]
    lines = child.stdout.strip().splitlines()
    if not lines or lines[-1] != f"accuracy={acc:.4f} impact={impact:.4f}":
        problems.append(f"last stdout line {lines[-1:]} does not match {summaries[0].name}")
    if summaries[0].name != f"summary_accuracy={acc * 100:.2f}_impact={impact:.2f}.json":
        problems.append(f"summary file name {summaries[0].name} does not match its metrics")
    rows = oracle.read_results(out / "results.csv")
    if rows and acc != sum(r["chosen"] == r["optimal"] for r in rows.values()) / len(rows):
        problems.append("summary accuracy does not match results.csv")
    prov = summary["provenance"]
    expected = {"scenario": wl.scenario, "variant": wl.variant, "n": wl.n, "dim": wl.dim,
                "seed": seed, "cache_primed": wl.primed}
    if any(prov.get(k) != v for k, v in expected.items()):
        problems.append(f"summary provenance {prov} does not match the workload")
    if len(child.side.get("cells", [])) != wl.dim * wl.dim or set(rows) != {
            (c[0], c[1]) for c in child.side["cells"]}:
        problems.append("results.csv cells differ from the complete swept grid")
    return problems


def verify(bench: Bench, runs: list[Child]) -> tuple[bool, int, int]:
    """Run-level checks of every run, then the cell oracles on the first."""
    broken = [p for p in (run_problems(r, bench.wl, bench.seed) for r in runs) if p]
    if broken:
        for p in sum(broken, []):
            print(f"check failed: {p}")
        return False, len(runs), len(broken)
    problems = []
    digests = {digest(r.out) for r in runs}
    print(f"digest {bench.name} seed={bench.seed}: sha256={' '.join(sorted(digests))} over "
          f"{', '.join(REPORT_FILES)}, summary JSON ({len(runs)} runs)")
    if len(digests) != 1:
        problems.append("report files differ between runs of one commit")
    if len({json.dumps(r.side["cells"]) for r in runs}) != 1:
        problems.append("swept queries differ between runs of one commit")
    wl = bench.wl
    cells = runs[0].side["cells"]
    fails, examples = oracle.check_cells(bench.data, runs[0].out / "results.csv", cells,
                                         wl.dim, wl.scenario, wl.variant, wl.primed)
    attempted, failed = len(cells), fails["failed"]
    print(f"cell_fail_frac {failed / attempted:.6f} ratio ({failed} of {attempted} visited "
          f"cells fail; by check: label {fails['label']}, times {fails['times']}, "
          f"chosen {fails['chosen']})")
    for e in examples:
        print(f"  failed {e}")
    for p in problems:
        print(f"check failed: {p}")
    return not problems, attempted, failed


def percentile(values: list[float], p: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def counts(side: dict) -> dict:
    """Deterministic counts of one traced run."""
    calls: dict[str, int] = {}
    for name, _parent, n_calls, _total in side["leaves"]:
        calls[name] = calls.get(name, 0) + n_calls
    return {
        **side["counts"],
        "match_count_calls": calls.get("engine.match_count", 0),
        "rand_range_calls": calls.get("harness.rand_range_predicate", 0),
        "plan_cost_calls": calls.get("executor.plan_cost_totals", 0),
        "optimize_calls": calls.get("optimizer.optimize", 0),
    }


def span_times(side: dict) -> tuple[dict, dict, dict]:
    """(total by span name, self by span name, self by module) of one traced run.

    A span's self time is its duration minus its child spans and the leaf
    calls made directly under it; a leaf's self time is its whole duration.
    """
    spans = side["spans"]
    child_s = [0.0] * len(spans)
    for name, parent, start, end, _leaf_s in spans:
        if parent >= 0:
            child_s[parent] += end - start
    total: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    by_module: dict[str, float] = {}
    for k, (name, _parent, start, end, leaf_s) in enumerate(spans):
        own = end - start - child_s[k] - leaf_s
        total[name] = total.get(name, 0.0) + end - start
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + own
    for name, _parent, _calls, leaf_total in side["leaves"]:
        total[name] = total.get(name, 0.0) + leaf_total
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + leaf_total
    return total, self_by_name, by_module


def layer_metrics(side: dict, n_cells: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (timings vary, counts do not)."""
    c = counts(side)
    total, self_by_name, by_module = span_times(side)
    draws = c["rand_range_calls"] // 2
    filled_directly = (c["match_count_calls"] - 2 * draws) // 2
    optimize_us = [t * 1e6 for t in side["optimize_s"]]
    m = {
        "engine.load_s": total["engine.load_dataset"],
        "engine.catalog_build_s": total["engine.build_catalog"],
        "engine.match_count_calls": c["match_count_calls"],
        "engine.match_count_s": total.get("engine.match_count", 0.0),
        "harness.draws": draws,
        "harness.cells_per_draw": (n_cells - filled_directly) / draws if draws else 0.0,
        "harness.sweep_self_s": self_by_name["harness.sweep"],
        "optimizer.optimize_s": total.get("optimizer.optimize", 0.0),
        "optimizer.optimize_p50_us": percentile(optimize_us, 0.50),
        "optimizer.optimize_p99_us": percentile(optimize_us, 0.99),
        "optimizer.races": c["races"],
        "optimizer.cache_hits": c["cache_hits"],
        "executor.works": c["works"],
        "executor.results_per_work": c["results"] / c["works"] if c["works"] else 0.0,
        "plans.candidates_per_race": c["candidates"] / c["races"] if c["races"] else 0.0,
        "harness.measure_s": total["harness.measure_grid"],
        "harness.plan_cost_calls": c["plan_cost_calls"],
        "harness.finalize_s": total["harness.finalize"],
        "viz.report_s": total["viz.write_report"],
        "cli.import_s": side["import_s"],
    }
    for module in ("cli", "engine", "harness", "optimizer", "executor", "viz"):
        m[f"{module}.self_s"] = by_module.get(module, 0.0)
    return m


def timed(bench: Bench) -> dict:
    bench.gen(trace=False)
    runs = bench.repeat(trace=False)
    correct, attempted, failed = verify(bench, runs)
    # each run gives one set-up sample; small set-ups get more from children
    # that only set up, as long as those fit in SETUP_EXTRA_S
    setup = [load + catalog for r in runs
             for load, catalog in zip(r.side["load_s"], r.side["catalog_s"])]
    spent = 0.0
    while len(setup) < SETUP_SAMPLES and spent + statistics.median(setup) <= SETUP_EXTRA_S:
        extra = bench.setup()
        setup.append(extra.side["load_s"][0] + extra.side["catalog_s"][0])
        spent += extra.wall_s
    metrics = {
        "run_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }
    print(f"{bench.name} seed={bench.seed}: {len(runs)} untraced runs of `planrace run`")
    samples = {"run_s": [r.wall_s for r in runs], "setup_s": setup,
               "peak_rss_mb": [r.rss_mb for r in runs]}
    for name, unit in END_TO_END.items():
        print(f"{name} {metrics[name]:.6g} {unit} (median of "
              f"{', '.join(f'{v:.6g}' for v in samples[name])})")
    return result(correct, attempted, failed, metrics, END_TO_END)


def traced(bench: Bench) -> dict:
    gen = bench.gen(trace=True)
    gen_total, _, _ = span_times(gen.side)
    plain = bench.run(trace=False)
    runs = bench.repeat(trace=True)
    mem = bench.setup(memory=True)
    correct, attempted, failed = verify(bench, [plain, *runs])
    if len({json.dumps(counts(r.side), sort_keys=True) for r in runs}) != 1:
        print(f"check failed: traced runs disagree on counts: {[counts(r.side) for r in runs]}")
        correct = False
    per_run = [layer_metrics(r.side, len(r.side["cells"])) for r in runs]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    traced_wall = statistics.median(r.wall_s for r in runs)
    metrics.update({
        "engine.gen_s": gen_total["engine.generate_dataset"],
        "engine.save_s": gen_total["engine.save_dataset"],
        "engine.load_peak_mb": mem.side["load_peak_bytes"] / MB,
        "engine.catalog_peak_mb": mem.side["catalog_peak_bytes"] / MB,
        "viz.report_bytes": sum(p.stat().st_size for p in runs[0].out.iterdir()),
        "trace.overhead_s": traced_wall - plain.wall_s,
    })
    print(f"{bench.name} seed={bench.seed}: {len(runs)} traced runs "
          f"(median {traced_wall:.4f} s) against an untraced run of {plain.wall_s:.4f} s; "
          f"optimize() latency over {len(runs[0].side['optimize_s'])} calls")
    for name, unit in PER_LAYER.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    return result(correct, attempted, failed, metrics, PER_LAYER)


def result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="planrace benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "planrace" / "cli.py").is_file():
        print(f"error: planrace source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The summary JSON records the --data path as given, so the path must be
    # the same in every invocation for reports to be byte-identical.
    os.chdir(ROOT)
    work_root = Path(".perfbench_work")
    work = work_root / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work, deadline)
        outcome = traced(bench) if args.trace else timed(bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
