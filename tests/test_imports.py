"""The runtime stays stdlib-only: every absolute import of the package is
a standard-library module.  No module imports a sibling's private name, no
private definition is left without a caller, every public definition has a
caller outside the tests (or a reason to stay in ``LIBRARY_ONLY``), and every
export resolves."""

import ast
import sys
from pathlib import Path

import pytest

import qtoric

REPO = Path(__file__).parent.parent
SOURCES = sorted((REPO / "src" / "qtoric").glob("*.py"))
# the callers of the library besides itself: the benchmark and the contract
CALLERS = sorted((REPO / "perfbench").glob("*.py")) + [
    REPO / "tests" / "test_acceptance.py"]

# public definitions that no other line of src/, no benchmark and no
# acceptance test names, each with the reason it stays in the library
LIBRARY_ONLY = {
    "jsonio.state_to_json": "writes the document the state verbs read",
    "jsonio.atlas_to_json":
        "the dict whose canonical text atlas_dumps is tested to write",
    "jsonio.ideal_to_json":
        "the dict whose canonical text ideal_dumps is tested to write",
}


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


def _private_sibling_reads(tree):
    """The (module, name) pairs of a sibling's private names that ``tree``
    reads: by name, ``from .jsonio import _name``, or through the module,
    ``from . import jsonio`` and then ``jsonio._name``."""
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    siblings = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                and node.module is None for alias in node.names}
    private += [(node.value.id, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")]
    return private


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_from_siblings(path):
    # a private helper shared across modules is a sign that some object
    # does not keep what its consumers need
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = _private_sibling_reads(tree)
    assert not private, private


@pytest.mark.parametrize("source, reads", [
    ("from .jsonio import _vector_out", [("jsonio", "_vector_out")]),
    ("from . import jsonio\njsonio._texts(1)", [("jsonio", "_texts")]),
    ("from . import jsonio as j\nj._texts", [("j", "_texts")]),
    ("from . import jsonio\njsonio.__name__, jsonio.decode_int", []),
    ("import json\njson._default_encoder", []),
], ids=["by-name", "through-module", "through-alias", "public-and-dunder",
        "absolute-module"])
def test_private_reads_found(source, reads):
    assert _private_sibling_reads(ast.parse(source)) == reads


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "geometry.py",
                                         "linalg.py"}


def _references(node, module):
    """Whether ``node`` names a top-level definition of ``module``: a bare
    name, or an attribute of the module itself such as ``jsonio._texts``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == module:
        return node.attr
    return None


def test_every_private_definition_has_a_caller():
    # a private helper that only its own body names is dead once its last
    # public caller leaves; an unrelated attribute of the same name, such as
    # ``self._close``, is not a caller
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in SOURCES]
    uncalled = []
    for path, tree in zip(SOURCES, trees):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    not node.name.startswith("_"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(_references(n, path.stem) == node.name
                       and id(n) not in own
                       for t in trees for n in ast.walk(t)):
                uncalled.append(f"{path.name}:{node.name}")
    assert not uncalled, uncalled


def _named(tree):
    """Every name ``tree`` reads or imports: bare names, attributes and the
    names of ``from ... import`` lines."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unnamed_public(sources, callers):
    """The public top-level functions and classes of ``sources`` ({module:
    text}) that no line outside their own definition names, in ``sources``
    or in ``callers`` (texts).  The re-exports of ``__init__`` are the
    surface itself, not a use of it."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    named = set().union(*map(_named, map(ast.parse, callers)))
    unnamed = []
    for module, tree in trees.items():
        others = set().union(named, *(_named(t) for m, t in trees.items()
                                      if m not in (module, "__init__")))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            rest = (_named(n) for n in tree.body if n is not node)
            if node.name not in others.union(*rest):
                unnamed.append(f"{module}.{node.name}")
    return sorted(unnamed)


@pytest.mark.parametrize("sources, callers, unnamed", [
    ({"a": "def f():\n    return f()\n"}, [], ["a.f"]),
    ({"a": "def f(): pass\ndef g(): f()\n"}, [], ["a.g"]),
    ({"a": "class C: pass", "b": "from .a import C\nx: C"}, [], []),
    ({"a": "def f(): pass", "b": "from . import a\na.f()"}, [], []),
    ({"a": "def f(): pass", "__init__": "from .a import f\n__all__ = ['f']"},
     [], ["a.f"]),
    ({"a": "def f(): pass\ndef _g(): pass"}, ["from qtoric.a import f"], []),
    ({"a": "def f(): pass"}, ["import qtoric\nqtoric.a.f()"], []),
], ids=["recursion-only", "same-module", "annotation", "through-module",
        "export-only", "imported-by-caller", "attribute-in-caller"])
def test_unnamed_public_found(sources, callers, unnamed):
    assert _unnamed_public(sources, callers) == unnamed


def test_every_public_definition_has_a_caller():
    # a public name that only tests read is surface no verb, benchmark or
    # acceptance criterion needs: it leaves src/ or says why it stays
    unnamed = _unnamed_public(
        {p.stem: p.read_text(encoding="utf-8") for p in SOURCES},
        [p.read_text(encoding="utf-8") for p in CALLERS])
    assert unnamed == sorted(LIBRARY_ONLY), unnamed


def test_exports_resolve():
    assert len(qtoric.__all__) == len(set(qtoric.__all__))
    missing = [n for n in qtoric.__all__ if not hasattr(qtoric, n)]
    assert not missing, missing
