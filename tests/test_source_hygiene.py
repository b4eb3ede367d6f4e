"""Source hygiene of the package, read from its syntax trees.

Two kinds of leftovers are refused: a module-level import that its module
never uses, and a private module-level function or class that no module of
the package references.  A call of the builtin id() is refused too, and so
is a private parameter, a bypass that only the package itself would pass.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "levitype"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def module_level(body):
    """Statements run at import time, through try and if blocks."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.Try, ast.If)):
            yield from module_level(stmt.body)
            yield from module_level(stmt.orelse)
            for handler in getattr(stmt, "handlers", ()):
                yield from module_level(handler.body)
            yield from module_level(getattr(stmt, "finalbody", ()))


def referenced(node):
    """Names a node reads: bare names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def exported(tree):
    """The strings of a module-level __all__, if there is one."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            return {elt.value for elt in stmt.value.elts}
    return set()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_level_imports_are_used(name):
    tree = MODULES[name]
    used = exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
    unused = []
    for stmt in module_level(tree.body):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{name} imports but never uses {unused}"


def test_private_definitions_are_referenced():
    # a definition's own body does not count, so recursion alone is unused
    statements = [(name, stmt) for name, tree in MODULES.items()
                  for stmt in tree.body]
    refs = [(name, stmt, referenced(stmt)) for name, stmt in statements]
    unused = []
    for name, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not stmt.name.startswith("_") or stmt.name.startswith("__"):
            continue
        if not any(stmt.name in names for _, other, names in refs
                   if other is not stmt):
            unused.append(f"{name}:{stmt.name}")
    assert not unused, f"private definitions nobody references: {unused}"


def test_no_builtin_id_calls():
    # an object's id is reused once the object is freed, so a table keyed
    # by id() hands a freed object's entry to a new object at its address
    # (a transport plan keyed by id(surface) once gave a new surface the
    # plan of a freed one); key by the object itself, weakly if need be
    calls = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert not calls, f"calls of builtin id(): {calls}"


def test_no_private_parameters():
    # a private keyword such as a constructor's "already checked" flag lets
    # one caller skip a check that every other caller runs; a class decides
    # what its input is in one place instead
    private = [f"{name}:{node.lineno}:{arg.arg}"
               for name, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.arguments)
               for arg in (*node.posonlyargs, *node.args, *node.kwonlyargs,
                           *filter(None, (node.vararg, node.kwarg)))
               if arg.arg.startswith("_")]
    assert not private, f"private parameters: {private}"
