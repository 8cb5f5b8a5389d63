"""Every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import linestab

MODULES = [m.name for m in pkgutil.iter_modules(linestab.__path__) if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"linestab.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
