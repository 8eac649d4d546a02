"""Golden outputs: report bytes of small runs, pinned across refactors.

Each case runs run_experiment plus viz.write_report and hashes every file
written (results.csv, the three .ppm diagrams and the summary JSON, whose
name embeds the metrics). The digests were recorded before the storage and
set-up optimisations they guard; any change to them is a change of output.
The repeats and zipfian datasets have many ties on the leading index key.
The small cases (N=100) have fewer documents than a field has rank buckets,
so every bucket holds one value or none.
"""

from __future__ import annotations

import hashlib

import pytest

from planrace.engine import generate_dataset
from planrace.harness import run_experiment
from planrace.plans import OptimizerVariant, parse_plan_hint
from planrace.scenarios import get_scenario
from planrace.viz import write_report

N, D, DATA_SEED, RUN_SEED = 2000, 8, 5, 3

RUNS = {
    "covering-mod": ("covering", "mod", None),
    "covering-primed-AB": ("covering", "vanilla", "IXSCAN_AB"),
    "single-index-vanilla": ("single-index", "vanilla", None),
}

GOLDEN = {
    ("uniform-distinct", "covering-mod"):
        "d8eaf146b68e786a30e5577fbc57c48d98e1a12d0be337e785641a8abebd8610",
    ("uniform-distinct", "covering-primed-AB"):
        "b4bdb91d22d821545ecba306d753bd4d8718b195ce165d6fb3b98329f5129627",
    ("uniform-distinct", "single-index-vanilla"):
        "96867d33ae03695e24f96999fc9f48ebf9cc4290db010ec6ae967012d6eb17c3",
    ("uniform-with-repeats", "covering-mod"):
        "441701655a538bb8c64825b0065c44af231c3518df82582651ef1a1b217d15db",
    ("uniform-with-repeats", "covering-primed-AB"):
        "0e7060dbc1a55b1aa8e3ef61399744ead18fecb7e68e05567ae55dcaeec581f2",
    ("uniform-with-repeats", "single-index-vanilla"):
        "ab1794bfa1c1966004d19ef29072dced72a29b134668b40035b08258c45b94a8",
    ("zipfian", "covering-mod"):
        "66cacaff4f6e89ceae5977068d26eaa3147678a572557d6bc982b7f7dc58a512",
    ("zipfian", "covering-primed-AB"):
        "7432f64d5143498345e88fdf73a3447656576c9f511b1ad63a47e79f55aa6bd4",
    ("zipfian", "single-index-vanilla"):
        "229b4ad16528ab4f648f8f056ee9bf70d1b4472b5a3d06117e7c1f069f9b2902",
}


SMALL_N, SMALL_D = 100, 5

# covering-mod at SMALL_N, SMALL_D; recorded like GOLDEN, before the race
# masked through rank buckets
SMALL_GOLDEN = {
    "uniform-distinct": "fa25063e81be1ad891485c09b75d3ab02f5cde515b5ccdd857d3a3e9b96856de",
    "uniform-with-repeats": "5675073878501eae2ea73e2bcbde9064d6a9d1706fd642f9b5fe3469e5c05c9d",
    "zipfian": "61d56d2821c1246a3d4f95176e1b61d568d098f84fd290805ea44694c7d2c28f",
}


@pytest.fixture(scope="module")
def datasets():
    return {dist: generate_dataset(N, dist, seed=DATA_SEED)
            for dist in ("uniform-distinct", "uniform-with-repeats", "zipfian")}


def report_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("dist,run", sorted(GOLDEN))
def test_report_bytes_match_golden_digest(datasets, tmp_path, dist, run):
    scenario, variant, primed = RUNS[run]
    grid, metrics = run_experiment(
        get_scenario(scenario), datasets[dist], OptimizerVariant(variant), d=D,
        seed=RUN_SEED, primed=None if primed is None else parse_plan_hint(primed))
    written = write_report(grid, metrics, tmp_path)
    assert sorted(p.name for p in written)[:4] == [
        "chosen.ppm", "impact.ppm", "optimal.ppm", "results.csv"]
    assert len(written) == 5
    assert report_digest(written) == GOLDEN[(dist, run)]


@pytest.mark.parametrize("dist", sorted(SMALL_GOLDEN))
def test_small_report_bytes_match_golden_digest(tmp_path, dist):
    collection = generate_dataset(SMALL_N, dist, seed=DATA_SEED)
    grid, metrics = run_experiment(get_scenario("covering"), collection,
                                   OptimizerVariant.MOD, d=SMALL_D, seed=RUN_SEED)
    assert report_digest(write_report(grid, metrics, tmp_path)) == SMALL_GOLDEN[dist]
