"""Every name a ``statuteqa`` module exports in ``__all__`` exists.

A deleted function that stays listed in ``__all__`` breaks
``from statuteqa.<module> import *`` without failing any other test.
"""

import importlib
import pkgutil

import pytest

import statuteqa

MODULES = sorted(info.name for info in pkgutil.iter_modules(statuteqa.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"statuteqa.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}: duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"statuteqa.{name} exports missing names {missing}"
