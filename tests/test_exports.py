"""The export lists: every ``__all__`` of the package and its modules names what the module binds."""

import importlib
import pkgutil

import pytest

import nlrouter

MODULES = ["nlrouter"] + sorted(f"nlrouter.{m.name}" for m in pkgutil.iter_modules(nlrouter.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_entry_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_entry_is_listed_twice(name):
    names = importlib.import_module(name).__all__
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_exactly_all(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(importlib.import_module(name).__all__)
