import importlib

import pytest

import wlcnoise
from wlcnoise import errors

MODULES = ["interferometer", "medium", "numerics", "scenario", "stability", "survey"]


@pytest.mark.parametrize("name", MODULES)
def test_root_exports_each_module_all(name):
    # the package root re-exports every public name of every module, as
    # the same object, so the two can never drift apart
    module = importlib.import_module(f"wlcnoise.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(wlcnoise, public) is getattr(module, public), public


def test_root_exports_every_exception():
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    assert len(classes) == 7
    for cls in classes:
        assert getattr(wlcnoise, cls.__name__) is cls
