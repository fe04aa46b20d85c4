"""The public names: each module's __all__ and the package's imports exist."""

import ast
import importlib
import os

import pytest

import toruspt

MODULES = ("errata", "geometry", "iso21", "oracle", "special", "susy", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    mod = importlib.import_module(f"toruspt.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


def test_every_package_import_exists():
    path = os.path.join(os.path.dirname(toruspt.__file__), "__init__.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    missing = [n for n in names if not hasattr(toruspt, n)]
    assert not missing
