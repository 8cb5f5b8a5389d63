"""Every name a module lists in __all__ exists, and every test module imports."""

import importlib
import pathlib
import pkgutil

import pytest

import linestab

MODULES = [m.name for m in pkgutil.iter_modules(linestab.__path__) if not m.name.startswith("_")]
TEST_MODULES = sorted(p.stem for p in pathlib.Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"linestab.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("name", TEST_MODULES)
def test_test_module_imports(name):
    # a module that fails to import is a collection error, which a run
    # with --continue-on-collection-errors reports beside its passes;
    # here it is a failing test
    importlib.import_module(name)
