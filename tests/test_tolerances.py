"""Every tolerance lives in qlucas.tolerances: the other modules hold no
small float literal and define none of its names, and each of its names
is read by one of them."""

import ast
from pathlib import Path

import pytest

import qlucas

PACKAGE = Path(qlucas.__file__).resolve().parent
HOME = PACKAGE / "tolerances.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != HOME)
PREFIXES = ("TAU_", "EPS_", "_ULP")


def home_names() -> set:
    tree = ast.parse(HOME.read_text())
    return {t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)}


def test_tolerances_module_imports_nothing():
    tree = ast.parse(HOME.read_text())
    assert not [n for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert {"TAU_ZERO", "EPS_HULL", "EPS_CAMPAIGN", "ULP"} <= home_names()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_small_float_literal(path):
    tree = ast.parse(path.read_text())
    found = [(n.lineno, n.value) for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, float)
             and 0.0 < abs(n.value) < 1e-3]
    assert not found, f"{path.name}: move these to tolerances.py: {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_tolerance_name(path):
    tree = ast.parse(path.read_text())
    names = home_names()
    found = [(node.lineno, t.id) for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for t in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
             if isinstance(t, ast.Name)
             and (t.id.startswith(PREFIXES) or t.id in names)]
    assert not found, f"{path.name}: define these in tolerances.py: {found}"


def read_tolerances(path) -> set:
    """The names a module imports from .tolerances and reads."""
    tree = ast.parse(path.read_text())
    imported = {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module == "tolerances"
                for a in n.names}
    return imported & {n.id for n in ast.walk(tree)
                       if isinstance(n, ast.Name)
                       and isinstance(n.ctx, ast.Load)}


def test_every_tolerance_is_read_elsewhere():
    read = set().union(*map(read_tolerances, MODULES))
    assert not home_names() - read, sorted(home_names() - read)
