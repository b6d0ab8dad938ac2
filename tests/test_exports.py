"""Every `__all__` of the package names what its module defines."""
import importlib
import pkgutil

import pytest

import xscore

MODULES = [importlib.import_module(name) for _, name, _ in pkgutil.iter_modules(
    xscore.__path__, "xscore.") if name != "xscore.__main__"]
EXPORTING = sorted(m.__name__ for m in MODULES if hasattr(m, "__all__"))


def test_exporting_modules_are_found():
    assert {"xscore.dbscores", "xscore.mlscores", "xscore.reldb"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
