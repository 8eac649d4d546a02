"""The benchmark's hooks into planrace still resolve.

perfbench/child.py replaces planrace functions by attribute name and reads
optimize()'s results; perfbench/oracle.py steps the candidates of each
query through PlanExecution. Both are only imported here, never edited.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from planrace.engine import generate_dataset, save_dataset
from planrace.harness import primed_cache_for, sweep
from planrace.optimizer import optimize
from planrace.plans import OptimizerVariant, parse_plan_hint
from planrace.scenarios import get_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_attributes():
    """(object, attribute) of every `name.attr = ...` in child.py, with each
    name resolved through child.py's own `from planrace... import` lines."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("planrace"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                # `from planrace import cli` names a submodule
                value = getattr(module, alias.name, None)
                if value is None:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = value
    patched = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                        and target.value.id in names):
                    patched.append((names[target.value.id], target.attr))
    return patched


def test_every_attribute_child_patches_exists():
    patched = patched_attributes()
    assert len(patched) >= 10
    missing = [f"{getattr(obj, '__name__', obj)}.{attr}" for obj, attr in patched
               if not hasattr(obj, attr)]
    assert missing == []


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    collection = generate_dataset(3000, "uniform-distinct", seed=5)
    data = tmp_path_factory.mktemp("hooks") / "data.csv"
    save_dataset(collection, data)
    scenario = get_scenario("covering")
    return data, collection, scenario, scenario.build_catalog(collection)


def test_child_reads_what_optimize_returns(world):
    _, collection, scenario, catalog = world
    tracer = load("child").Tracer()
    query = next(iter(sweep(scenario, collection, catalog, OptimizerVariant.MOD, 2, 3)
                      .cells.values())).query
    tracer.observe_optimize(optimize(query, collection, catalog, OptimizerVariant.MOD), 0.0)
    cache = primed_cache_for(scenario, parse_plan_hint("IXSCAN_AB"))
    tracer.observe_optimize(optimize(query, collection, catalog, cache=cache), 0.0)
    counts = tracer.counts
    assert (counts["races"], counts["cache_hits"], counts["candidates"]) == (1, 1, 4)
    assert counts["works"] > 0


# the benchmark's raced configurations: race-covering, sparse-sweep, and
# primed-300k's scenario and variant without the primed cache
@pytest.mark.parametrize("scenario_name,variant", [("covering", "mod"),
                                                   ("both-indexed", "vanilla"),
                                                   ("covering", "vanilla")])
def test_race_oracle_choice_equals_optimize(world, scenario_name, variant):
    data, collection, _, _ = world
    scenario = get_scenario(scenario_name)
    catalog = scenario.build_catalog(collection)
    oracle = load("oracle").RaceOracle(data, scenario_name, variant)
    grid = sweep(scenario, collection, catalog, OptimizerVariant(variant), 6, 3)
    assert grid.complete
    for cell in grid.sorted_cells():
        bounds = {p.field: (p.low, p.high) for p in cell.query.predicates}
        chosen = optimize(cell.query, collection, catalog, OptimizerVariant(variant)).chosen
        assert oracle.choice(*bounds["A"], *bounds["B"]) == str(chosen) == cell.chosen
