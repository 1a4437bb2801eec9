import importlib
import pkgutil

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
