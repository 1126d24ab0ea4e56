"""Every local name a function in the package assigns is read.

An ast scan: for each function of src/topogrpd/*.py, the names it binds
in its own body (assignments, loop and comprehension targets, walrus,
`with ... as`, `except ... as` and imports) must each be read somewhere
in the function, nested functions included.  Names starting with `_`
and names declared `global` or `nonlocal` are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topogrpd"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(fn):
    """The nodes of fn's body, not descending into nested functions or classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def bound(fn):
    names, exempt = set(), set()
    for node in own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            exempt |= set(node.names)
    return {n for n in names - exempt if not n.startswith("_")}


def read(fn):
    return {node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_no_function_assigns_a_local_it_never_reads():
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dead += [f"{path.name}:{fn.lineno} {fn.name}: {n}"
                         for n in sorted(bound(fn) - read(fn))]
    assert dead == []
