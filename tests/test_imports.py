"""The runtime stays stdlib-only: every absolute import of the package is
a standard-library module.  No module imports a sibling's private name."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "qtoric").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = [n for n in names
               if n.split(".")[0] not in sys.stdlib_module_names | {"qtoric"}]
    assert not outside, outside


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_from_siblings(path):
    # a private helper shared across modules is a sign that some object
    # does not keep what its consumers need
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "geometry.py",
                                         "linalg.py"}
