"""Every function, class and method in the package has a caller.

A word scan: each top-level function and class, and each non-dunder
method, of src/topogrpd/*.py must occur as a whole word in src/ or
tests/ more often than it is defined.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "topogrpd"


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
        p.read_text() for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))
    )
    words = Counter(re.findall(r"\w+", text))
    uncalled = sorted(n for n, defs in defined_names().items() if words[n] <= defs)
    assert uncalled == []
