"""Every name a package exports resolves."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["dilatation_lab", "dilatation_lab.core",
                                     "dilatation_lab.models"])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
