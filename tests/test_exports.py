"""Every exported name resolves: a class deleted from a module but left in
an ``__all__`` list fails here instead of at a user's ``import *``."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["repro", "repro.core", "repro.server"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
