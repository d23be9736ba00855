"""Every exported name resolves, so a deleted type cannot stay exported."""

import importlib
import pkgutil

import pytest

import dissolab

MODULES = sorted(info.name for info in pkgutil.iter_modules(dissolab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"dissolab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
