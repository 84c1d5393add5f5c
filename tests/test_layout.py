"""The package's modules reach one another only through public names."""

from __future__ import annotations

import ast
from pathlib import Path

import densemodel

PACKAGE = Path(densemodel.__file__).resolve().parent


def private_imports(path: Path) -> list:
    """`from .x import _name`, and `x._name` for a module x bound by `from . import x`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno}: "
                                 f"from {'.' * node.level}{node.module or ''} "
                                 f"import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_name() -> None:
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    assert [hit for path in paths for hit in private_imports(path)] == []


def test_pipeline_reads_no_model_params() -> None:
    """The pipeline decides nothing on a model's `params`, such as its check grid:
    a rule about the grid belongs to the module that reads on it."""
    path = PACKAGE / "pipeline.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [f"pipeline.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "params"
             and isinstance(node.ctx, ast.Load)]
    assert reads == []
