"""The public import surface: every exported name exists."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["opttriage", "opttriage.minic", "opttriage.forest"])
def test_every_name_in_all_resolves_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
