"""Every name a faceverify module exports exists.

Tools that wrap a module's public functions walk its __all__ with
getattr, so a name left there after its definition is gone breaks them.
"""

import importlib
import pkgutil

import pytest

import faceverify

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(faceverify.__path__, prefix="faceverify.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_walk_finds_the_modules():
    assert {"faceverify.evaluation", "faceverify.templates", "faceverify.micronet.layers"} <= set(MODULES)
