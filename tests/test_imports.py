"""The runtime is standard-library only, no module imports a name it never reads,
only the collection forks a worker and bisects sorted values, and the
executor stays the optimizer's stepped reference."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import planrace

SOURCES = sorted(Path(planrace.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    allowed = sys.stdlib_module_names | {"planrace"}
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_every_imported_name_is_read():
    # a package's __init__ imports to re-export, and __future__ imports
    # change how the module compiles
    modules = [path for path in SOURCES + TESTS if path.name != "__init__.py"]
    assert TESTS and len(modules) == len(SOURCES) + len(TESTS) - 1
    unread = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(path.name, name) for name in sorted(imported - read)]
    assert unread == []


def test_only_the_collection_forks_and_only_to_sort():
    # the sweep draws in the process that races it; a worker sorts a
    # collection's second field (engine.Collection.sort_fields)
    importers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "workers" or any(a.name == "workers" for a in node.names)):
                importers.append(path.name)
    assert importers == ["engine.py"]


def imported_names(module: str, source: str) -> set[str]:
    """The names planrace/<module>.py imports from planrace/<source>.py, and
    `source` itself where it imports the module whole."""
    path = Path(planrace.__file__).parent / f"{module}.py"
    return {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if node.module == source or (node.module is None and alias.name == source)}


def test_the_optimizer_steps_the_executor_only_in_its_reference_race():
    # the closed-form race and its bucket masks are the optimizer's own; the
    # executor is the stepped reference, and knows nothing of the race
    assert imported_names("optimizer", "executor") == {"PlanExecution", "WorkState"}
    assert imported_names("executor", "optimizer") == set()


def bisect_left_callers(module: str) -> set[str]:
    """The functions of planrace/<module>.py, as Class.method or function,
    that call bisect_left."""
    path = Path(planrace.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "bisect_left":
                callers.add(prefix.rstrip("."))
            else:
                visit(child, prefix)

    visit(tree, "")
    return callers


def test_only_collection_positions_bisects_outside_the_draw_loop():
    # an index is its key fields: its range is the positions of the query's
    # range in the leading field's sorted values, bisected in one place; the
    # sweep inlines its own pair in the draw loop
    importers = [path.name for path in SOURCES
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom) and node.module == "bisect"
                 and any(alias.name == "bisect_left" for alias in node.names)]
    assert sorted(importers) == ["engine.py", "harness.py"]
    assert bisect_left_callers("engine") == {"Collection.positions"}
    assert bisect_left_callers("harness") == {"draw_cells"}
