"""The public surface: every `__all__` names what its module defines, and
every public export of the package is listed in some `__all__`."""

import importlib
import inspect
import pkgutil

import pytest

import balsel

MODULES = [
    importlib.import_module(f"balsel.{info.name}")
    for info in pkgutil.iter_modules(balsel.__path__)
]
WITH_ALL = [mod for mod in MODULES if hasattr(mod, "__all__")]


@pytest.mark.parametrize("mod", WITH_ALL, ids=lambda mod: mod.__name__)
def test_every_all_entry_is_defined_in_its_module(mod):
    for name in mod.__all__:
        assert getattr(mod, name).__module__ == mod.__name__, name
    namespace = {}
    exec(f"from {mod.__name__} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_every_package_export_is_in_some_all():
    listed = {(mod.__name__, name) for mod in WITH_ALL for name in mod.__all__}
    for name, obj in vars(balsel).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        assert (obj.__module__, name) in listed, name
