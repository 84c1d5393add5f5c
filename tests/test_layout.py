"""The package's modules reach one another only through public names, its
verdicts are decided in one place, and the benchmark's tracer names only
functions that exist."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from collections import defaultdict
from pathlib import Path

import densemodel

PACKAGE = Path(densemodel.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
# spans that name no public function: a method, linprog's span, and a metric
# whose function is gone and that only a benchmark change may drop
UNTRACED_SPANS = {"pipeline.to_json", "models.hb.lp", "majorants.max_correlation"}


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


def test_no_hand_written_verdict_pad() -> None:
    """Every verdict is a `signals.Claim`, whose `at_most` and `at_least` take
    their pads as arguments: no module pads a bound by a literal (1 +- 1e-N)."""
    pad = re.compile(r"\(1 [+-] 1e-\d+\)")
    hits = [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pad.search(line)]
    assert hits == []


class _ReadKeys(defaultdict):
    """A defaultdict that records every key read from it."""

    def __init__(self, default, read: set):
        super().__init__(default)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_benchmark_traced_names_exist(monkeypatch) -> None:
    """Every span the benchmark's per-layer metrics read names a function the
    tracer wraps: a renamed or removed function would leave its metric at 0."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    layers = {layer: importlib.import_module(f"densemodel.{layer}")
              for layer in tracing.LAYERS}
    before = {layer: tracing.public_functions(m) for layer, m in layers.items()}
    undo = tracing.install(tracing.Tracer())
    tracing.restore(undo)
    assert {layer: tracing.public_functions(m) for layer, m in layers.items()} == before

    assert set(tracing.MODEL_FUNCTIONS) <= set(before["models"])

    read = set()
    monkeypatch.setattr(tracing, "_spans_by_name", lambda spans: (
        _ReadKeys(int, read), _ReadKeys(float, read), _ReadKeys(float, read), 0.0))
    tracing.layer_metrics([], {}, {}, 0)
    assert "majorants.diagnose" in read
    spans = (name.partition(".") for name in sorted(read - UNTRACED_SPANS))
    missing = [f"{layer}.{fname}" for layer, _, fname in spans
               if fname not in before.get(layer, {})]
    assert missing == []
