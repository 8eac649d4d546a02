"""Self-tests of the benchmark, on small inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run as bench  # noqa: E402

SMALL = {
    "race-covering": ["--scenario", "covering", "--variant", "mod"],
    "primed-300k": ["--scenario", "covering", "--variant", "vanilla",
                    "--cache-primed", "IXSCAN_AB"],
}


def child(tmp_path: Path, tag: str, *args: str) -> dict:
    side = tmp_path / f"{tag}.json"
    subprocess.run([sys.executable, bench.CHILD, "--side", str(side), *args],
                   check=True, capture_output=True, timeout=120)
    return json.loads(side.read_text())


@pytest.fixture(scope="module")
def data(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("data")
    path = tmp / "data.csv"
    child(tmp, "gen", "--trace", "--", "gen", "--n", "3000", "--seed", "5",
          "--out", str(path))
    return path


def traced_run(tmp_path: Path, tag: str, data: Path, workload: str) -> dict:
    return child(tmp_path, tag, "--trace", "--", "run", *SMALL[workload],
                 "--data", str(data), "--dim", "6", "--seed", "3",
                 "--out", str(tmp_path / tag))


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_two_traced_runs_give_identical_counts(tmp_path, data, workload):
    first = bench.counts(traced_run(tmp_path, "a", data, workload))
    second = bench.counts(traced_run(tmp_path, "b", data, workload))
    assert first == second
    if workload == "race-covering":
        assert first["races"] == 36 and first["works"] > 0 and first["cache_hits"] == 0
    else:
        assert first["cache_hits"] == 36 and first["races"] == 0


def test_layer_metrics_cover_every_traced_step(tmp_path, data):
    side = traced_run(tmp_path, "a", data, "race-covering")
    metrics = bench.layer_metrics(side, len(side["cells"]))
    total, _, by_module = bench.span_times(side)
    # self times of all modules add up to the whole traced run
    assert sum(by_module.values()) == pytest.approx(total["cli.main"])
    assert all(metrics[f"{m}.self_s"] > 0 for m in ("cli", "engine", "harness",
                                                    "optimizer", "executor", "viz"))
    assert metrics["harness.draws"] >= 36 and metrics["harness.plan_cost_calls"] == 36 * 4 * 10


def test_oracles_pass_a_clean_run_and_catch_a_tampered_cell(tmp_path, data):
    side = traced_run(tmp_path, "a", data, "race-covering")
    results = tmp_path / "a" / "results.csv"
    fails, _ = oracle.check_cells(data, results, side["cells"], 6, "covering", "mod", None)
    assert fails == {"label": 0, "times": 0, "chosen": 0, "failed": 0}

    cells = [list(c) for c in side["cells"]]
    cells[0][3] += 1  # widen one query's A range: its counts no longer match
    cells[1][6] = "COLLSCAN" if cells[1][6] != "COLLSCAN" else "IXSCAN_A"
    fails, examples = oracle.check_cells(data, results, cells, 6, "covering", "mod", None)
    assert fails["label"] == 1 and fails["chosen"] == 1 and fails["failed"] == 2
    assert len(examples) == 2


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
