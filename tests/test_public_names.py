"""Each package's public names are its modules' ``__all__`` lists, in import order,
and the version that pyproject.toml resolves is the package's ``__version__``."""

import ast
import importlib
import warnings
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import oransim

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

# the modules each package re-exports with ``from .mod import *``
PACKAGES = {
    "oransim": ["kpi"],
    "oransim.forecast": ["model", "training"],
    "oransim.ric": ["hosts", "loop", "messages", "validate"],
}


def acceptance_imports(package: str) -> list[tuple[str, str]]:
    """(module, name) of every ``from <package or its module> import name`` in the acceptance tests."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and (node.module == package or node.module.startswith(package + "."))
        for alias in node.names
    ]


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_package_exports_its_modules_names(package):
    pkg = importlib.import_module(package)
    modules = [importlib.import_module(f"{package}.{mod}") for mod in PACKAGES[package]]
    assert pkg.__all__ == [name for module in modules for name in module.__all__]
    owner = {name: module for module in modules for name in module.__all__}
    assert len(owner) == len(pkg.__all__)  # no name is exported by two modules
    for name in pkg.__all__:
        assert getattr(pkg, name) is getattr(owner[name], name)
    imported = acceptance_imports(package)
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_pyproject_reads_the_package_version():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # older setuptools calls [tool.setuptools] beta
        project = read_configuration(PYPROJECT)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == oransim.__version__
