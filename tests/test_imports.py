"""The runtime is standard-library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import planrace


def test_runtime_imports_only_the_standard_library():
    sources = sorted(Path(planrace.__file__).parent.glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | {"planrace"}
    outside = []
    for path in sources:
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
