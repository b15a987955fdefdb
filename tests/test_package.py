"""Public names: every module's ``__all__`` resolves and star-imports."""

import importlib

import pytest

MODULES = ["oamlink", "oamlink.beam", "oamlink.ber", "oamlink.crosstalk",
           "oamlink.montecarlo", "oamlink.numerics"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
