"""Every package name that the benchmark harness in ``perfbench/`` uses still exists,
so a refactor that renames or moves one fails here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def harness_names():
    """``(module, name)`` for each ``from tsnmf... import name`` in the harness's
    workloads and worker, and for the entry points the worker calls by attribute."""
    names = {("tsnmf.cli", "main"), ("tsnmf.nmf", "solve")}
    for script in ("workloads.py", "worker.py"):
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tsnmf":
                names.update((node.module, alias.name) for alias in node.names)
    return sorted(names)


@pytest.mark.parametrize("module,name", harness_names())
def test_harness_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
