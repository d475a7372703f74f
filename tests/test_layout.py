import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "etchomo"
SOLVE_MODULES = ("grid", "tpfa", "transforms", "preconditioner", "krylov", "pipeline")


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")
            if p.name not in ("__init__.py", "oracles.py")}


@pytest.mark.parametrize("module", SOLVE_MODULES)
def test_solve_modules_hold_no_oracle_or_test_only_code(module):
    """Every module-level function and class of a solve module is named by
    some package module (oracles and the root aside) outside its own body."""
    trees = _trees()
    defs = [node for node in trees[module].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = []
    for d in defs:
        own = set(map(id, ast.walk(d)))
        named = any(
            (isinstance(node, ast.Name) and node.id == d.name)
            or (isinstance(node, ast.Attribute) and node.attr == d.name)
            for tree in trees.values() for node in ast.walk(tree)
            if id(node) not in own
        )
        if not named:
            unused.append(d.name)
    assert unused == []
