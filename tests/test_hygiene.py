"""Source hygiene: every name a module imports is used in that module,
every module-level function or class is reachable from the package's
roots, every private method and every method of a private class is read
as an attribute, every parameter of a module-level function or method is
read, every random draw comes from the counter-based streams of
`RngStream`, and no function rebinds a module global, so state that one
call needs (such as the contraction engine's buffers) stays local to the
call and to its thread."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensortraffic"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as used when it appears as a Name, as the root of an
    attribute chain, or in the module's __all__. __future__ imports are
    directives, not bindings.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def unreachable_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes, as "module.name", that no root
    reaches. The roots are the names `__init__` imports, every module's
    __all__, `cli.main` and the names module-level code reads; a reachable
    definition reaches every name it reads, followed through relative
    `from .module import name` statements (also those inside functions).
    Mutual references alone keep nothing alive.
    """
    trees = {name[:-3]: ast.parse(source) for name, source in sources.items()}
    defs, imports, roots = {}, {}, [("cli", "main")]
    for mod, tree in trees.items():
        imports[mod] = {a.asname or a.name: (node.module, a.name)
                        for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        and node.level == 1 and node.module
                        for a in node.names}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                roots += [(mod, elt.value) for elt in node.value.elts]
            else:
                roots += [(mod, name) for name in _names_read(node)]
    roots += imports.get("__init__", {}).values()
    reached = set()
    while roots:
        mod, name = roots.pop()
        while (mod, name) not in defs and name in imports.get(mod, {}):
            mod, name = imports[mod][name]
        if (mod, name) in defs and (mod, name) not in reached:
            reached.add((mod, name))
            roots += [(mod, n) for n in _names_read(defs[(mod, name)])]
    return sorted(f"{mod}.{name}" for mod, name in defs
                  if (mod, name) not in reached)


def unused_parameters(source: str) -> list[str]:
    """Parameters, as "function(name)" or "Class.method(name)", that the
    body of a module-level function or of a method of a module-level class
    never reads. A read inside a nested function or lambda counts; the
    parameters of nested functions (callbacks with a fixed signature) are
    not checked.
    """
    tree = ast.parse(source)
    funcs = [(node.name, node) for node in tree.body
             if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        funcs += [(f"{cls.name}.{node.name}", node) for node in cls.body
                  if isinstance(node, ast.FunctionDef)]
    out = []
    for name, fn in funcs:
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = set().union(*(_names_read(stmt) for stmt in fn.body))
        out += [f"{name}({p})" for p in params if p not in read]
    return out


def unread_methods(sources: dict[str, str]) -> list[str]:
    """Methods, as "module.Class.method", that no module reads as an
    attribute: the private methods (`_name`, dunders aside) of a
    module-level class, and every method of a private class. The package
    uses such a method only through an attribute read, so one that none
    reads is dead, which the reachability scan of names does not see.
    """
    trees = {name[:-3]: ast.parse(source) for name, source in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return sorted(
        f"{mod}.{cls.name}.{fn.name}" for mod, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and (fn.name.startswith("_") or cls.name.startswith("_"))
        and fn.name not in read)


def random_outside_streams(source: str) -> list[int]:
    """Lines that reach `np.random` (or `numpy.random`) outside the method
    `RngStream.generator`, the one place a random generator is built."""
    tree = ast.parse(source)
    allowed = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
               and cls.name == "RngStream" for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "generator"
               for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "random"
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")
                  and id(node) not in allowed)


def global_statements(source: str) -> list[int]:
    """Lines of `global` statements, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Global))


def _names_read(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_unused_import_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom json import dumps, loads as ld\n"
              "import numpy.linalg\n"
              "__all__ = ['dumps']\nprint(sys.argv, numpy.linalg.norm)\n")
    assert unused_imports(source) == ["os", "ld"]


def test_no_unused_imports_in_package():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert not {k: v for k, v in found.items() if v}, found


def test_reachability_scan_flags_only_unreachable_definitions():
    sources = {
        "__init__.py": "from .a import public\n",
        "cli.py": "from .a import helper as h\ndef main():\n    h()\n",
        "a.py": ("from .b import shared\n__all__ = ['listed']\n"
                 "def public():\n    return shared()\n"
                 "def helper():\n    pass\n"
                 "def listed():\n    pass\n"
                 "def _ping():\n    return _pong()\n"
                 "def _pong():\n    return _ping()\n"
                 "LIMIT = startup()\n"
                 "def startup():\n    pass\n"),
        "b.py": ("def shared():\n    from .c import late\n    return late\n"
                 "def orphan():\n    return shared()\n"),
        "c.py": "class late:\n    pass\nclass Unused:\n    pass\n",
    }
    assert unreachable_definitions(sources) == \
        ["a._ping", "a._pong", "b.orphan", "c.Unused"]


def test_every_definition_in_package_is_reachable():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unreachable_definitions(sources) == []


def test_unused_parameter_scan_flags_only_unread_parameters():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n"
              "def g(n, fn=None):\n"
              "    def callback(us, rng):\n        return n\n"
              "    return lambda: fn\n"
              "class C:\n"
              "    def m(self, tol):\n        return self\n"
              "    def ok(self, x):\n        return self.y + x\n")
    assert unused_parameters(source) == ["f(b)", "f(c)", "f(args)", "C.m(tol)"]


def test_every_parameter_in_package_is_read():
    found = {path.name: unused_parameters(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in found.items() if v}, found


def test_method_scan_flags_only_unread_private_methods():
    sources = {
        "a.py": ("class _Pool:\n"
                 "    def __init__(self):\n        self.free = []\n"
                 "    def take(self):\n        return self.free.pop()\n"
                 "    def spare(self):\n        return self.take()\n"
                 "    @property\n    def size(self):\n"
                 "        return len(self.free)\n"
                 "class Public:\n"
                 "    def api(self):\n        return self._used()\n"
                 "    def _used(self):\n        return 1\n"
                 "    def _helper(self):\n        return 2\n"
                 "def stray():\n    def _nested():\n        pass\n"),
        "b.py": ("from .a import _Pool\n"
                 "def run(pool: _Pool):\n    return pool.size\n"),
    }
    assert unread_methods(sources) == ["a.Public._helper", "a._Pool.spare"]


def test_every_private_method_in_package_is_read():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unread_methods(sources) == []


def test_random_scan_flags_only_draws_outside_rng_stream():
    source = ("import numpy as np\n"
              "class RngStream:\n"
              "    def generator(self) -> np.random.Generator:\n"
              "        return np.random.Generator(np.random.Philox(1))\n"
              "    def child(self):\n"
              "        return np.random.default_rng(1)\n"
              "def generator(rng=np.random):\n"
              "    return numpy.random.rand(2), rng.random(), np.linalg.norm\n")
    assert random_outside_streams(source) == [6, 7, 8]


def test_every_random_draw_in_package_comes_from_rng_stream():
    found = {path.name: random_outside_streams(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in found.items() if v}, found


def test_global_scan_flags_only_global_statements():
    source = ("CACHE = {}\n"
              "def f():\n    global CACHE\n    CACHE = {}\n"
              "def g():\n    x = 1\n    def h():\n        nonlocal x\n"
              "        global y\n")
    assert global_statements(source) == [3, 9]


def test_no_global_statements_in_package():
    found = {path.name: global_statements(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in found.items() if v}, found
