"""Every definition in `src/` is reached from what the program runs.

The roots are `cli.main`, which builds the parser and dispatches to every
verb handler (and through them to `netsim.simulate` and `selftest.run_all`),
and each top-level function that a package function registers as its
decorator, such as selftest's `@_check`.  The `_EXPORTS` name table in
`__init__` is not a root: it names the package surface as strings, and a
definition that only it or the tests keep alive is dead code in the package.
The independent routes the tests hold the fast paths against live in
`tests/oracles.py`.

Edges are by name: a definition reaches every top-level function or class
whose name it loads as a `Name`, an `Attribute` or an import alias, and
every method whose name it loads as an `Attribute`, so a local variable
that shares a method's name does not reach it.  A reached method reaches
its class, and a reached class its dunder methods.  Names over-approximate
calls: an unreached method that shares its name with an attribute some
reached definition loads goes unflagged.

Dunder methods run through operators and builtins, not by name, so a second
test holds them to what the program does: it wraps every dunder that a class
in `src/` defines and runs a fixed handful of CLI calls, pinned golden calls
and one on a field whose first Zech reads are lookups by discrete log, and
each wrapped dunder must be entered.  Three are exempt, each with its
reason in EXEMPT_DUNDERS: `__init__`, and `__repr__` and `__str__`.
"""

import ast
import importlib
import json
import shlex
from pathlib import Path

import skewmatroid
from skewmatroid import field
from skewmatroid.cli import main
from test_golden_cli import NET

PACKAGE = Path(skewmatroid.__file__).resolve().parent

# name -> why it stays in `src/` though nothing the program runs reaches it
ALLOWED: dict[str, str] = {}

# dunder -> why a class in `src/` may define it though no call below enters it
EXEMPT_DUNDERS: dict[str, str] = {
    "__init__": "every construction runs it, and the first test reaches each class by name",
    "__repr__": "what a value shows in a traceback or a debugger (aim 4)",
    "__str__": "a value's text, which some verbs print and a user reads (aim 4)",
}

# CLI calls of tests/test_golden_cli.py, the fourth on its NET spec with the
# oracle; every golden call's field builds its Zech table on the first read,
# so the last call, on 2^16 elements, adds by lookup
GOLDEN_CALLS = [
    "--field 2,2,1,1 mul x+1 'g1*x+1'",
    "--field 2,4,2,1 dist 1,g3 g6,g9",
    "--field 2,4,2,1 isometry-check",
    "--json simulate --spec net.json --oracle rlnc",
    "--field 2,16,4,1 eval x^2+g3*x+1 g5",
]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _loaded_names(node: ast.AST, skip=()) -> set[str]:
    """Names that node loads, outside the subtrees in skip: an `Attribute`
    load as '.attr', a `Name` load or an import alias as the bare name."""
    names, stack = set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add("." + n.attr)
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
    by_name: dict[str, list[str]] = {}  # a loaded name -> the definitions it reaches
    for key in loads:
        name = key.rsplit(".", 1)[1]
        by_name.setdefault("." + name, []).append(key)
        if key.count(".") == 1:  # a top-level definition, not a method
            by_name.setdefault(name, []).append(key)
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


def test_every_dunder_is_entered_by_the_program(tmp_path, monkeypatch, capsys):
    entered = set()

    def wrap(key, method):
        def wrapper(*args, **kwargs):
            entered.add(key)
            return method(*args, **kwargs)
        return wrapper

    wrapped = []
    for key, keys in _graph()[2].items():
        module, name = key.split(".")
        cls = getattr(importlib.import_module(f"skewmatroid.{module}"), name)
        for method_key in keys:
            method = method_key.rsplit(".", 1)[1]
            if _is_dunder(method) and method not in EXEMPT_DUNDERS:
                monkeypatch.setattr(cls, method, wrap(method_key, cls.__dict__[method]))
                wrapped.append(method_key)
    (tmp_path / "net.json").write_text(json.dumps(NET))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(field, "_FIELD_CACHE", {})  # no table built by an earlier test
    for line in GOLDEN_CALLS:
        assert main(shlex.split(line)) == 0, line
    capsys.readouterr()
    missing = sorted(set(wrapped) - entered)
    assert wrapped and not missing, f"never entered: {', '.join(missing)}"
