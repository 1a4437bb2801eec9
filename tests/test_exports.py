import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import abcyl

_MODULES = ["abcyl"] + sorted(f"abcyl.{m.name}"
                              for m in pkgutil.iter_modules(abcyl.__path__))


@pytest.mark.parametrize("module", _MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate export"
    assert [name for name in exported if not hasattr(mod, name)] == []


def _span_targets():
    """perfbench/spans.py's TARGETS, read from its source without importing
    the benchmark package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            targets = ast.literal_eval(node.value)
            return [f"{layer}.{name}" for layer, names in targets.items()
                    for name in names]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


@pytest.mark.parametrize("target", _span_targets())
def test_benchmark_trace_target_resolves(target):
    # the benchmark's tracer wraps each target and counts a missing one
    # as lost, so a library change must not remove or rename it
    layer, name = target.split(".")
    module = importlib.import_module(f"abcyl.{layer}")
    assert inspect.isfunction(getattr(module, name, None))
