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


# every sampled array is node-last from sampling on, so the library moves no
# axis and makes no contiguous copy of one
LAYOUT_COPIES = {"moveaxis", "ascontiguousarray"}


def layout_copies(source: str) -> list:
    """The numpy layout-copy functions a module calls, by line."""
    return sorted((node.lineno, node.func.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in LAYOUT_COPIES)


def test_layout_copies_are_found():
    src = ("import numpy as np\n"
           "x = np.moveaxis(a, 0, -1)\n"
           "y = np.ascontiguousarray(x.T)\n"
           "z = a.reshape(3, -1)\n")
    assert layout_copies(src) == [(2, "moveaxis"), (3, "ascontiguousarray")]


def test_library_makes_no_layout_copy():
    found = [(path.stem,) + hit for path in sorted(SRC.glob("*.py"))
             for hit in layout_copies(path.read_text(encoding="utf-8"))]
    assert found == []


def unresolved_exports(source: str) -> list:
    """Names a module's __all__ lists but its top level neither defines nor
    imports."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = {getattr(t, "id", None) for t in targets}
            bound |= names
            if "__all__" in names:
                exported = [c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant)]
    return sorted(set(exported) - bound)


def test_unresolved_exports_are_found():
    src = ("from .forms import a\nimport numpy as np\nB = 1\nC: int = 2\n"
           "def f():\n    g = 3\n"
           "class K:\n    pass\n"
           "__all__ = ['a', 'np', 'B', 'C', 'f', 'K', 'g', 'gone']\n")
    assert unresolved_exports(src) == ["g", "gone"]


def test_library_exports_all_resolve():
    found = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in unresolved_exports(path.read_text(encoding="utf-8"))]
    assert found == []
