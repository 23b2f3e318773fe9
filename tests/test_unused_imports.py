"""No module-level import in the library or the tests goes unused, and
every error type in errors.py is raised somewhere in the library."""

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
