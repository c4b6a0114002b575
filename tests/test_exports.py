import ast
import importlib
import pathlib
import pkgutil

import pytest

import biexp

MODULES = sorted(m.name for m in pkgutil.iter_modules(biexp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"biexp.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_imports_resolve():
    # every name the package imports from its modules is there, and is
    # reachable from the package
    tree = ast.parse(pathlib.Path(biexp.__file__).read_text())
    names = [(node.module, alias.name) for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    for module, name in names:
        mod = importlib.import_module(f"biexp.{module}")
        assert hasattr(mod, name), (module, name)
        assert getattr(biexp, name) is getattr(mod, name)


def test_every_export_is_used():
    # each name a module exports is read somewhere in the package outside
    # __init__.py, as a bare name or an attribute: an export that only
    # tests reach is dead code
    src = pathlib.Path(biexp.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [(name, n) for name in MODULES
              for n in getattr(importlib.import_module(f"biexp.{name}"), "__all__", ())
              if n not in used]
    assert unused == []
