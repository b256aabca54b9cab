"""Package exports: every name a package lists in `__all__` exists."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["cxalign.autodiff", "cxalign.grammar"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
