"""Static checks over the library sources."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ymeps"

# perfbench/tracer.py wraps forms.ball_rule in every module that holds it and
# expects basis among them, so basis keeps the name although it calls nothing
KEPT = {("basis", "ball_rule")}


def unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)
                     and isinstance(c.value, str)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import numpy as np\nimport os.path\n"
           "from .forms import a, b as c, d\n"
           "__all__ = ['d']\n"
           "def f(x: np.ndarray):\n    return a(x)\n")
    assert unused_imports(src) == ["c", "os"]


def test_library_imports_are_all_used():
    found = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert sorted(set(found) - KEPT) == []
    assert KEPT <= set(found)
