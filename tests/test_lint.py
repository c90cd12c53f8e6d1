"""Static checks over the library sources."""

import ast
import re
import sys
from pathlib import Path

import pytest

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


# a library import comes from the standard library, from ymeps itself, or
# from a package pyproject.toml declares: a package that happens to be
# installed but is not declared would otherwise be imported silently
PYPROJECT = SRC.parent.parent / "pyproject.toml"


def undeclared_imports(source: str, declared: set) -> list:
    """The top-level packages a module imports, by line, that are neither
    in the standard library, nor ymeps, nor declared."""
    allowed = set(sys.stdlib_module_names) | {"ymeps"} | declared
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name.split(".")[0]) for name in names
                  if name.split(".")[0] not in allowed]
    return sorted(found)


def declared_packages() -> set:
    """The import names of pyproject.toml's dependencies."""
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    return {re.match(r"[A-Za-z0-9_.-]+", d)[0].lower().replace("-", "_")
            for d in deps["project"]["dependencies"]}


def test_undeclared_imports_are_found():
    src = ("from __future__ import annotations\nimport os.path\n"
           "import numpy as np\nimport scipy.linalg\n"
           "from scipy import linalg\nfrom .forms import a\n"
           "from ymeps.basis import b\n")
    assert undeclared_imports(src, {"numpy"}) == [(4, "scipy"),
                                                  (5, "scipy")]


def test_library_imports_are_declared():
    declared = declared_packages()
    assert "numpy" in declared
    found = [(path.stem,) + hit for path in sorted(SRC.glob("*.py"))
             for hit in undeclared_imports(path.read_text(encoding="utf-8"),
                                           declared)]
    assert found == []


# a defaulted parameter that no call sets is a constant under another name:
# every defaulted parameter of a library function that is called by name
# somewhere is passed by at least one call in src/, tests/ or perfbench/
CALLERS = [SRC, SRC.parent.parent / "tests", SRC.parent.parent / "perfbench"]


def _defaulted(func, method: bool) -> list:
    """(position or None, name) of a def's parameters that take a default;
    a method's first parameter is not counted in the positions."""
    args = func.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in func.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                  if d is not None]


def unset_parameters(library: dict, sources: list) -> list:
    """(module, function, parameter) for each defaulted parameter of a
    module-level function or method in library ({module: source}) that is
    called by name in sources, where no such call passes it.  A call with
    * or ** passes everything."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            star = (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (star, len(node.args), {k.arg for k in node.keywords}))
    found = []
    for module, source in library.items():
        defs = []
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node, False))
            elif isinstance(node, ast.ClassDef):
                defs += [(f, True) for f in node.body
                         if isinstance(f, ast.FunctionDef)]
        for func, method in defs:
            sites = calls.get(func.name, [])
            found += [(module, func.name, name)
                      for pos, name in _defaulted(func, method)
                      if sites and not any(
                          star or name in kws or (pos is not None
                                                  and pos < n_args)
                          for star, n_args, kws in sites)]
    return sorted(found)


def test_unset_parameters_are_found():
    lib = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
           "def never(x=0):\n    pass\n"
           "class K:\n"
           "    def m(self, u=0, v=1):\n        pass\n"
           "    @staticmethod\n"
           "    def s(u=0, v=1):\n        pass\n")
    use = ("f(0, 1, c=5)\nK().m(2)\nK.s(3, 4)\n"
           "args = {}\nf(0, **args)\n")
    assert unset_parameters({"lib": lib}, [lib, use]) == [("lib", "m", "v")]
    assert unset_parameters({"lib": lib}, [lib, "f(0, 1, c=5)\n"]) == [
        ("lib", "f", "d")]


def test_library_parameters_are_all_set():
    library = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    sources = [path.read_text(encoding="utf-8") for folder in CALLERS
               for path in sorted(folder.glob("*.py"))]
    assert unset_parameters(library, sources) == []


# every function, class and method of the library is reached from the
# library itself: one that only tests or tools call is API nothing ships
UNREACHED_KEPT = {
    ("basis", "InnerContext.arrays"): "wrapped by perfbench/tracer.py",
    ("basis", "InnerContext.inner_nf"): "wrapped by perfbench/tracer.py",
    ("forms", "tail_report"): "ROADMAP item 6",
}


def unreferenced_defs(library: dict) -> list:
    """(module, name) for each top-level function or class and each method
    of a top-level class in library ({module: source}) whose name no code
    of the library references outside its own def: as a name or an
    attribute, not as a string (an __all__ entry reaches nothing).  Dunder
    methods, which Python calls itself, are not counted."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(module, f"{node.name}.{f.name}", f)
                         for f in node.body
                         if isinstance(f, ast.FunctionDef)
                         and not (f.name.startswith("__")
                                  and f.name.endswith("__"))]

    def refs(tree, skip):
        """Names and attributes in tree, outside the node skip."""
        if tree is skip:
            return
        if isinstance(tree, ast.Name):
            yield tree.id
        elif isinstance(tree, ast.Attribute):
            yield tree.attr
        for child in ast.iter_child_nodes(tree):
            yield from refs(child, skip)

    return sorted((module, name) for module, name, node in defs
                  if not any(node.name in refs(tree, node)
                             for tree in trees.values()))


def test_unreferenced_defs_are_found():
    lib = {"a": ("__all__ = ['only_exported']\n"
                 "def only_exported():\n    pass\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "def used():\n    pass\n"
                 "class K:\n"
                 "    def __len__(self):\n        return 0\n"
                 "    def called(self):\n        return used()\n"
                 "    def never(self):\n        pass\n"),
           "b": "from .a import K\nK().called()\n"}
    assert unreferenced_defs(lib) == [("a", "K.never"), ("a", "only_exported"),
                                      ("a", "recursive")]


def test_library_defs_are_all_referenced():
    library = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_defs(library) == sorted(UNREACHED_KEPT)


# a module-level empty container filled at run time is a cache that outlives
# its context: each run builds what it needs and passes it along instead
EMPTY_CALLS = {"dict", "list", "set"}


def module_containers(source: str) -> list:
    """(line, name) of each module-level assignment of an empty mutable
    container: {}, [], set(), dict() or list()."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = ((isinstance(value, ast.Dict) and not value.keys)
                 or (isinstance(value, ast.List) and not value.elts)
                 or (isinstance(value, ast.Call) and not value.args
                     and not value.keywords
                     and getattr(value.func, "id", None) in EMPTY_CALLS))
        if empty:
            found += [(node.lineno, getattr(t, "id", None)) for t in targets]
    return found


def test_module_containers_are_found():
    src = ("A = {}\nB: dict = {}\nC = []\nD = set()\nE = dict()\n"
           "F = {'a': 1}\nG = [1]\nH = set(x)\nI = frozenset()\n"
           "J = ()\nK: list\n"
           "def f():\n    cache = {}\n    return cache\n"
           "class L:\n    rows = []\n")
    assert module_containers(src) == [(1, "A"), (2, "B"), (3, "C"),
                                      (4, "D"), (5, "E")]


def test_library_holds_no_module_level_cache():
    found = [(path.stem,) + hit for path in sorted(SRC.glob("*.py"))
             for hit in module_containers(path.read_text(encoding="utf-8"))]
    assert found == []


# a test module's top-level helper named like one of the oracle or the
# library is a second copy of it: the tests import the one reference instead
TESTS = SRC.parent.parent / "tests"


def top_level_defs(source: str) -> set:
    """Names of a module's top-level functions and classes."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def second_copies(tests: dict, references: list) -> list:
    """(module, name) for each top-level function or class of a test module
    in tests ({module: source}) that a source in references also defines
    at top level."""
    defined = set().union(*map(top_level_defs, references))
    return sorted((module, name) for module, source in tests.items()
                  for name in top_level_defs(source) & defined)


def test_second_copies_are_found():
    oracle = "def qmul(a, b):\n    pass\nclass FormField:\n    pass\n"
    lib = "def rotation(xi):\n    pass\nX = 1\n"
    test = ("from oracle import qmul\n"
            "def qmul(a, b):\n    pass\n"
            "class FormField:\n    pass\n"
            "def rotation(xi):\n    pass\n"
            "def X():\n    pass\n"
            "def test_qmul():\n    def rotation():\n        pass\n")
    assert second_copies({"test_a": test}, [oracle, lib]) == [
        ("test_a", "FormField"), ("test_a", "qmul"), ("test_a", "rotation")]


def test_tests_hold_no_second_copy_of_a_helper():
    tests = {path.stem: path.read_text(encoding="utf-8")
             for path in sorted(TESTS.glob("test_*.py"))}
    references = [path.read_text(encoding="utf-8")
                  for path in [TESTS / "oracle.py", *sorted(SRC.glob("*.py"))]]
    assert second_copies(tests, references) == []


# a default that several signatures spell out is one value written in
# several places: the module that owns it names it once and they read it
def repeated_defaults(library: dict) -> list:
    """(parameter, default, sites) for each float or str literal default
    that a parameter of that name takes in two or more signatures of the
    module-level functions and methods of library ({module: source});
    sites are "module.function" or "module.Class.method", sorted."""
    sites = {}
    for module, source in library.items():
        defs = []
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, ast.FunctionDef)]
        for name, func in defs:
            args = func.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):],
                             args.defaults))
            pairs += zip(args.kwonlyargs, args.kw_defaults)
            for arg, default in pairs:
                if (isinstance(default, ast.Constant)
                        and type(default.value) in (float, str)):
                    sites.setdefault((arg.arg, default.value), []).append(
                        f"{module}.{name}")
    return sorted(((arg, value, sorted(where))
                   for (arg, value), where in sites.items() if len(where) > 1),
                  key=lambda t: (t[0], repr(t[1])))


def test_repeated_defaults_are_found():
    lib = {"a": ("def f(x, tol=1e-4, *, name='m', flag=None):\n    pass\n"
                 "class K:\n"
                 "    def g(self, tol=1e-4, D=1.0):\n        pass\n"
                 "    @staticmethod\n"
                 "    def h(name='m', D=2.0, n=3):\n        pass\n"),
           "b": ("TOL = 1e-4\n"
                 "def k(tol=TOL, n=3, flag=True, *, D=1.0):\n"
                 "    def inner(name='m'):\n        pass\n"
                 "def j(name='other'):\n    pass\n")}
    assert repeated_defaults(lib) == [
        ("D", 1.0, ["a.K.g", "b.k"]),
        ("name", "m", ["a.K.h", "a.f"]),
        ("tol", 1e-4, ["a.K.g", "a.f"]),
    ]


def test_library_writes_each_default_once():
    library = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert repeated_defaults(library) == []
