import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
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


@pytest.mark.parametrize("module", _MODULES)
def test_exports_are_defined_where_listed(module):
    # one home per name: a module lists only what it defines itself
    mod = importlib.import_module(module)
    foreign = [name for name in getattr(mod, "__all__", ())
               if getattr(getattr(mod, name), "__module__", module) != module]
    assert foreign == []


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


def test_cli_import_loads_every_trace_layer():
    # the benchmark's tracer runs `import abcyl.cli` and then looks each
    # layer up in sys.modules, so cli must keep loading all of them
    layers = sorted({f"abcyl.{t.split('.')[0]}" for t in _span_targets()})
    src = os.path.dirname(os.path.dirname(abcyl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, abcyl.cli; "
         f"print([m for m in {layers!r} if m not in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    assert proc.stdout.strip() == "[]"
