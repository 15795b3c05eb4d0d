"""Every name that a dflag module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import dflag

MODULES = ["dflag"] + [f"dflag.{m.name}" for m in pkgutil.iter_modules(dflag.__path__)]


def test_the_modules_are_found():
    assert {"dflag.flags", "dflag.gfq", "dflag.orbits"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
