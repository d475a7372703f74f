import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "etchomo"
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


def _methods(tree: ast.Module) -> list:
    """(class name, def) of each method and property of the classes of a
    module, dunder methods aside."""
    return [(cls.name, d) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for d in cls.body if isinstance(d, ast.FunctionDef)
            and not (d.name.startswith("__") and d.name.endswith("__"))]


def _all_trees() -> dict:
    return {p: ast.parse(p.read_text()) for d in ("src", "perfbench", "tests")
            for p in sorted((ROOT / d).rglob("*.py"))}


def test_methods_are_collected_with_properties():
    found = {f"{cls}.{d.name}" for m in SOLVE_MODULES for cls, d in _methods(_trees()[m])}
    assert {"GridSpec.shape", "OrthotropicField.astype", "DiscreteSystem.bands",
            "FctPreconditioner.workspace"} <= found


@pytest.mark.parametrize("module", SOLVE_MODULES)
def test_every_method_of_a_solve_module_is_used(module):
    """Every method and property of a solve-module class is referenced as
    `.name` in src/, perfbench/ or tests/ outside its own body; a method that
    nothing calls is code that nothing runs."""
    trees = _all_trees()
    unused = []
    for cls, d in _methods(trees[SRC / f"{module}.py"]):
        own = set(map(id, ast.walk(d)))
        if not any(isinstance(node, ast.Attribute) and node.attr == d.name
                   and id(node) not in own
                   for tree in trees.values() for node in ast.walk(tree)):
            unused.append(f"{cls}.{d.name}")
    assert unused == []


def _defaulted(fn: ast.FunctionDef, skip: int) -> list:
    """(position, name) of each parameter of `fn` that has a default; the
    position is None for keyword-only ones, and the first `skip` positional
    parameters (self) are not counted."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no call in src/, perfbench/ or tests/ ever overrides is a
    constant dressed as a knob. Calls are matched by name, so a call through
    *args or **kwargs counts as passing every parameter."""
    knobs = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                fn, skip = node, 0
            elif isinstance(node, ast.ClassDef):
                fn = next((d for d in node.body if isinstance(d, ast.FunctionDef)
                           and d.name == "__init__"), None)
                skip = 1
            else:
                continue
            if fn is not None and (params := _defaulted(fn, skip)):
                knobs[node.name] = (path.stem, params)
    passed = {name: set() for name in knobs}
    for path in [p for d in ("src", "perfbench", "tests") for p in (ROOT / d).rglob("*.py")]:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in knobs:
                continue
            spread = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords)
            for pos, arg in knobs[name][1]:
                if spread or (pos is not None and pos < len(call.args)) or arg in {
                        k.arg for k in call.keywords}:
                    passed[name].add(arg)
    dead = sorted(f"{module}.{name}({arg})" for name, (module, params) in knobs.items()
                  for _, arg in params if arg not in passed[name])
    assert dead == []


def test_perfbench_traces_module_level_functions():
    """perfbench/worker.py traces its inner spans by (module, function) name;
    each must be a module-level function of that etchomo module, or a rename
    would silently drop the span from the traced runs."""
    worker = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    targets = next(
        ast.literal_eval(node.value) for node in worker.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "INNER_TARGETS" for t in node.targets)
    )
    trees = _trees()
    assert targets
    for _, module, name in targets:
        assert name in {node.name for node in trees[module].body
                        if isinstance(node, ast.FunctionDef)}, f"{module}.{name}"


def test_conductivity_values_are_checked_in_one_place():
    """`grid._positive_finite` is the value check of a conductivity array. It
    is referenced in src/ only inside `OrthotropicField`, so no reader or
    generator keeps a second check path beside the field's."""
    name = "_positive_finite"
    grid = ast.parse((SRC / "grid.py").read_text())
    field = next(node for node in grid.body
                 if isinstance(node, ast.ClassDef) and node.name == "OrthotropicField")
    inside = set(map(id, ast.walk(field)))
    refs = []
    for path in sorted(SRC.glob("*.py")):
        tree = grid if path.name == "grid.py" else ast.parse(path.read_text())
        refs += [(path.name, node.lineno, id(node) in inside) for node in ast.walk(tree)
                 if name in (getattr(node, "id", None), getattr(node, "attr", None))
                 or (isinstance(node, ast.alias) and node.name == name)]
    assert any(own for _, _, own in refs)
    assert [(f, line) for f, line, own in refs if not own] == []
