"""The lazy public API of the package: every name in `__all__` resolves to
its home module's object, the package itself uses it and every public method
of its classes, and every module imports on its own."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import shift2iet

MODULES = sorted(m.name for m in pkgutil.iter_modules(shift2iet.__path__))
SOURCES = sorted(Path(shift2iet.__file__).resolve().parent.glob("*.py"))


def _used_names() -> set[str]:
    """Names that some module reads, as a `Name` or an `Attribute`, outside
    the body of the top-level def or class of the same name.  The `_HOMES`
    keys and docstrings are strings, so they never count."""
    used = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    return used


def _public_methods() -> list[str]:
    """`Class.method` for each public method or property of a public class."""
    return [
        f"{top.name}.{node.name}"
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(top, ast.ClassDef) and not top.name.startswith("_")
        for node in top.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _used_attributes() -> set[str]:
    """Names that some module reads as an `Attribute`."""
    return {
        node.attr
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }


@pytest.mark.parametrize("name", shift2iet.__all__)
def test_public_name_is_its_home_modules_object(name):
    value = getattr(shift2iet, name)
    if name == "__version__":
        assert value == importlib.import_module("shift2iet._version").__version__
        return
    home = importlib.import_module(f"shift2iet.{shift2iet._HOMES[name]}")
    assert value is getattr(home, name)


def test_every_public_name_is_used_by_the_package():
    """A public name that only tests call is a second path to a computation
    that the runtime reaches another way; it goes, with its guards."""
    unused = set(shift2iet.__all__) - {"__version__"} - _used_names()
    assert not unused, sorted(unused)


def test_every_public_method_is_used_by_the_package():
    """The same rule for the methods and properties of the package's
    classes: each is read as an attribute somewhere in the package."""
    used = _used_attributes()
    methods = _public_methods()
    assert "PiecewiseAffineMap.discontinuities" in methods
    unused = [m for m in methods if m.split(".")[1] not in used]
    assert not unused, unused


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from shift2iet import *", namespace)
    assert set(shift2iet.__all__) <= set(namespace)
    for name in shift2iet.__all__:
        assert namespace[name] is getattr(shift2iet, name)


def test_dir_lists_every_public_name():
    assert set(shift2iet.__all__) <= set(dir(shift2iet))


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'shift2iet' has no attribute 'no_such_name'"):
        shift2iet.no_such_name
    with pytest.raises(ImportError):
        exec("from shift2iet import no_such_name", {})


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    """A fresh interpreter imports one module first; an import-order cycle
    that an eager package `__init__` hid fails here."""
    src = Path(shift2iet.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import shift2iet.{module}"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
