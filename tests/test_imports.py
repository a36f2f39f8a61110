"""Every name that a module of qlucas imports is read in that module.
__init__.py is exempt: it imports names to re-export them. numpy is
imported only by the gufunc fallback of root finding."""

import ast
from pathlib import Path

import pytest

import qlucas

PACKAGE = Path(qlucas.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list:
    """(line, name) of each imported name that the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    found = unread_imports(path.read_text())
    assert not found, f"{path.name}: unused imports {found}"


def test_a_stale_import_is_found():
    source = (PACKAGE / "roots.py").read_text()
    stale = source.replace("from .tolerances import (",
                           "from .tolerances import (TAU_COEFF_REAL, ", 1)
    assert stale != source
    assert [name for _, name in unread_imports(stale)] == ["TAU_COEFF_REAL"]


# the gufunc fallback of roots._eigen_roots, which roots every companion
# matrix when the library lookup finds no bundled dgeev
NUMPY_FALLBACK = {("roots.py", "_lapack_eigvals"),
                  ("roots.py", "_gufunc_eigvals")}


def numpy_importers(source: str) -> set:
    """The names of the functions that import numpy or a submodule of
    it, None for an import outside any function."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(n.partition(".")[0] == "numpy" for n in names):
                found.add(func)
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_numpy_is_imported_only_by_the_gufunc_fallback():
    found = {(path.name, func) for path in sorted(PACKAGE.glob("*.py"))
             for func in numpy_importers(path.read_text())}
    assert found == NUMPY_FALLBACK
