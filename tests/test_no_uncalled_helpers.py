"""Every function, class and method in the package has a caller.

A word scan: each top-level function and class, and each non-dunder
method, of src/topogrpd/*.py must occur as a whole word in src/ or
bench/ more often than it is defined.  Tests do not count as callers:
a definition that only tests reach belongs in tests/, or nowhere.  The
only exceptions are the documented API in ALLOWED, each named in
README.md.

The scan's blind spot: a method that shares its name with another
definition (TopGroupoid.compose and frac.compose, say) is counted as
called by every use of that other definition, and any name by its
occurrences as a word in comments and docstrings, so either can stay
uncalled unnoticed.
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


def test_every_helper_has_a_caller():
    text = "\n".join(
        p.read_text() for d in ("src", "bench") for p in sorted((ROOT / d).rglob("*.py"))
    )
    words = Counter(re.findall(r"\w+", text))
    uncalled = sorted(n for n, defs in defined_names().items() if words[n] <= defs)
    assert [n for n in uncalled if n not in ALLOWED] == []
    # an entry that gained a caller, or lost its definition, leaves the list
    assert [n for n in ALLOWED if n not in uncalled] == []


def test_every_allowed_name_is_documented():
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert sorted(set(ALLOWED) - readme) == []
