"""The public surface: every exported name resolves.

A stale entry in ``__all__`` (a re-export whose module was deleted or
renamed) only fails on ``from repro import *`` or on first use, so check
both surfaces explicitly.
"""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["repro", "repro.api"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert missing == []
