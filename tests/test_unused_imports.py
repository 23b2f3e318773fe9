"""No module-level import in the library or the tests goes unused, every
error type in errors.py is raised somewhere in the library, and every
private module-level function, class or constant of the library is used
in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "phyloclust"
FILES = sorted(
    p
    for p in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def _imported(body):
    """(bound name, line) of each import at module level, including those
    under a module-level if or try; __future__ imports bind nothing."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _imported(node.body)


def _used(tree):
    """Every name the module reads, including names inside quoted
    annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom x import y\nprint(sys, 'y')\n")
    assert [n for n, _ in _imported(tree.body) if n not in _used(tree)] == ["os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [
        f"{name} (line {line})" for name, line in _imported(tree.body) if name not in used
    ]
    assert not unused, f"{path.name}: unused imports {unused}"


def _unraised(errors_module, modules):
    """The DataError subclasses of errors_module, direct or not, that no
    raise statement in modules names."""
    errors = {"DataError"}
    for node in errors_module.body:
        if isinstance(node, ast.ClassDef) and errors & {
            getattr(base, "id", None) for base in node.bases
        }:
            errors.add(node.name)
    for node in (n for tree in modules for n in ast.walk(tree)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = getattr(node.exc, "func", node.exc)  # the class of a call
            errors.discard(getattr(exc, "id", getattr(exc, "attr", None)))
    return errors - {"DataError"}


def test_checker_flags_an_unraised_error_type():
    tree = ast.parse(
        "class DataError(Exception): pass\nclass A(DataError): pass\n"
        "class B(A): pass\nclass C(DataError): pass\nraise A('x')\nraise errors.B\n"
    )
    assert _unraised(tree, [tree]) == {"C"}


def test_every_error_type_has_a_raiser():
    errors = ast.parse((SRC / "errors.py").read_text())
    unraised = _unraised(errors, [ast.parse(p.read_text()) for p in SRC.glob("*.py")])
    assert not unraised, f"never raised: {sorted(unraised)}"


def _defined(stmt):
    """The names a module-level statement defines: a function's or a
    class's, or each plain name that an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    bound = (n for t in targets for n in getattr(t, "elts", [t]))
    return [n.id for n in bound if isinstance(n, ast.Name)]


def _unreferenced(modules):
    """The module-level _name functions, classes and constants of modules
    that no statement but their own definition names: as a name read
    (quoted annotations included), an attribute taken or a name
    imported."""
    names = {}
    for tree in modules:
        for stmt in tree.body:
            found = _used(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    found.update(alias.name for alias in node.names)
            names[stmt] = found
    return [
        name
        for stmt in names
        for name in _defined(stmt)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in found for s, found in names.items() if s is not stmt)
    ]


def test_checker_flags_an_unreferenced_private_definition():
    one = ast.parse(
        "def _a():\n    _a()\ndef _b(): pass\nclass _C: pass\n"
        "def __dunder__(): pass\ndef _d(): pass\ndef _e(): pass\n"
        "_K = 1\n_L: int = _K\n_M, n = 2, 3\n_N = _O = 4\n__all__ = []\n"
        "def f() -> '_C': return m._d, _M, _O, _P\n"
    )
    other = ast.parse("from one import _e\n_P = 5\n")
    assert _unreferenced([one, other]) == ["_a", "_b", "_L", "_N"]


def test_every_private_definition_is_used():
    modules = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    unused = _unreferenced(modules)
    assert not unused, f"defined but never used: {unused}"
