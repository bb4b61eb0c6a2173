"""Every definition in `src/` is reached from what the program runs.

The roots are `cli.main`, which builds the parser and dispatches to every
verb handler (and through them to `netsim.simulate` and `selftest.run_all`),
and each top-level function that a package function registers as its
decorator, such as selftest's `@_check`.  The `_EXPORTS` name table in
`__init__` is not a root: it names the package surface as strings, and a
definition that only it or the tests keep alive is dead code in the package.
The independent routes the tests hold the fast paths against live in
`tests/oracles.py`.

Edges are by name: a definition reaches every top-level function, class or
method whose name it loads as a `Name`, an `Attribute` or an import alias.
A reached method reaches its class, and a reached class its dunder methods.
Names over-approximate calls: an unreached method that shares its name with
a reached one goes unflagged.  Dunder methods are exempt.
"""

import ast
from pathlib import Path

import skewmatroid

PACKAGE = Path(skewmatroid.__file__).resolve().parent

# name -> why it stays in `src/` though nothing the program runs reaches it
ALLOWED: dict[str, str] = {}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _loaded_names(node: ast.AST, skip=()) -> set[str]:
    """Names that node loads, outside the subtrees in skip."""
    names, stack = set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            names.add(n.id if isinstance(n, ast.Name) else n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        stack.extend(c for c in ast.iter_child_nodes(n) if c not in skip)
    return names


def _graph():
    """({'module.qualname': names it loads}, roots, {'module.Class': its methods})."""
    loads, roots, methods = {}, ["cli.main"], {}
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    functions = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            key = f"{module}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                loads[key] = _loaded_names(node)
                if any(_loaded_names(d) & functions for d in node.decorator_list):
                    roots.append(key)
            else:
                body = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                loads[key] = _loaded_names(node, skip=body)
                methods[key] = [f"{key}.{item.name}" for item in body]
                for item in body:
                    loads[f"{key}.{item.name}"] = _loaded_names(item) | {node.name}
    return loads, roots, methods


def _unreached() -> list[str]:
    loads, roots, methods = _graph()
    by_name: dict[str, list[str]] = {}
    for key in loads:
        by_name.setdefault(key.rsplit(".", 1)[1], []).append(key)
    reached, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key in reached:
            continue
        reached.add(key)
        for name in loads[key]:
            stack += by_name.get(name, [])
        stack += [m for m in methods.get(key, []) if _is_dunder(m.rsplit(".", 1)[1])]
    return sorted(
        key
        for key in loads
        if key not in reached
        and not _is_dunder(name := key.rsplit(".", 1)[1])
        and name not in ALLOWED
    )


def test_every_definition_is_reached_from_the_program():
    assert _unreached() == []

