"""Every function, class and method in the package has a caller.

A reference scan: each top-level function and class, and each non-dunder
method, of src/topogrpd/*.py must be referenced by the code of src/ or
bench/.  A reference is a name, an attribute, an imported name, or, in
src/ only, a word of a string constant that is not a docstring.  The
strings of bench/ do not count: bench/trace.py names the functions it
wraps in strings such as "FinSpace.opens", and wrapping a function for
a trace does not call it.  Comments and docstrings do not count, and
neither do tests: a definition that only tests reach belongs in tests/,
or nowhere.  The only exceptions are the documented API in ALLOWED,
each named in README.md.

The scan's blind spot: a method that shares its name with another
definition (TopGroupoid.compose and frac.compose, say) is counted as
called by every use of that other definition, so it can stay uncalled
unnoticed.  So can a function named like a parameter, a local or a
field: a `depth(ast)` in `logic` would count the `depth` parameters and
the `DerivedGroupoid.depth` field as its callers.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "topogrpd"

# documented API that no command, route or benchmark file calls, and why it stays
ALLOWED = {
    "identity_cospan": "acceptance criterion 9 (fraction unit laws)",
    "definable_sheaf": "acceptance criterion 8 (definable pullback identity)",
    "parse_formula": "acceptance criterion 10 and the README tour",
    "eval_formula": "acceptance criterion 10 and the README tour",
    "validate_sheaf": "the validator of the sheaf contract",
    "identity_functor": "the README's functors, for composing weak equivalences",
    "compose_functors": "the README's functors, for composing weak equivalences",
    "sierpinski": "the README quick session and the CI console-script step",
    "inverse_image": "acceptance criterion 8 (definable pullback identity)",
    "cospans_isomorphic": "acceptance criterion 9 (fraction unit laws)",
}


def defined_names():
    """Counter of names defined at module or class level in the package."""
    names = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] += 1
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        names[item.name] += 1
    return names


def referenced_names(tree, strings=True) -> Counter:
    """Counter of the names the code of a module refers to; the words of
    its string constants count only with `strings`."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def uncalled():
    refs = Counter()
    for d in ("src", "bench"):
        for p in sorted((ROOT / d).rglob("*.py")):
            refs += referenced_names(ast.parse(p.read_text()), strings=d == "src")
    return sorted(n for n in defined_names() if not refs[n])


def test_every_helper_has_a_caller():
    names = uncalled()
    assert [n for n in names if n not in ALLOWED] == []
    # an entry that gained a caller, or lost its definition, leaves the list
    assert [n for n in ALLOWED if n not in names] == []


def test_comments_and_docstrings_are_not_callers():
    tree = ast.parse('"""helper in the module docstring"""\n'
                     'def f():\n    """helper in a docstring"""\n    # helper in a comment\n'
                     '    return "FinSpace.helper", g.attr, name\n')
    refs = referenced_names(tree)
    assert refs["helper"] == 1 and refs["FinSpace"] == 1
    assert refs["attr"] == refs["name"] == refs["g"] == 1 and refs["f"] == 0
    assert referenced_names(tree, strings=False)["helper"] == 0


def test_every_allowed_name_is_documented():
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert sorted(set(ALLOWED) - readme) == []
