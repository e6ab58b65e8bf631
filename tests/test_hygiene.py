"""Source hygiene: every name a module of the package or of the tests
imports is used in that module; every module-level function or class is
reachable from the command line (`cli.main`), from module-level code, or
from the benchmark and the acceptance criteria, which import from the
package (a re-export alone keeps nothing alive); every method is read as
an attribute by the package, the benchmark or the acceptance criteria;
every parameter of a module-level function
or method is read; every random draw comes from the counter-based streams
of `RngStream`; and no function rebinds a module global, so state that one
call needs (such as the contraction engine's buffers) stays local to the
call and to its thread."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tensortraffic"
# the code outside the package that reaches it other than through the
# command line: the benchmark, and the acceptance criteria
CONSUMERS = sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]


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


def unreachable_definitions(sources: dict[str, str],
                            consumers: dict[str, str]) -> list[str]:
    """Module-level functions and classes, as "module.name", that no root
    reaches, and the names `__init__` re-exports from them, as
    "__init__.name". The roots are `cli.main`, the names module-level code
    reads, and the names that code outside the package (`consumers`) reads
    from it: `x` of `from tensortraffic.mod import x`, and `mod.x` for a
    module bound by `from tensortraffic import mod`. A re-export or an
    `__all__` entry is no root. A reachable definition reaches every name
    it reads, followed through relative `from .module import name`
    statements (also those inside functions). Mutual references alone keep
    nothing alive.
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
            else:
                roots += [(mod, name) for name in _names_read(node)]
    for source in consumers.values():
        roots += _package_names_read(ast.parse(source), trees)

    def resolve(mod, name):
        while (mod, name) not in defs and name in imports.get(mod, {}):
            mod, name = imports[mod][name]
        return mod, name

    reached = set()
    while roots:
        key = resolve(*roots.pop())
        if key in defs and key not in reached:
            reached.add(key)
            roots += [(key[0], n) for n in _names_read(defs[key])]
    dead = [key for key in defs if key not in reached]
    dead += [("__init__", name) for name in imports.get("__init__", {})
             if resolve("__init__", name) in dead]
    return sorted(f"{mod}.{name}" for mod, name in dead)


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


def unread_methods(sources: dict[str, str],
                   consumers: dict[str, str]) -> list[str]:
    """Methods, dunders aside, of module-level classes, as
    "module.Class.method", that neither a module of the package nor the
    code outside it (`consumers`) reads as an attribute. A method is used
    only through an attribute read, so one that none reads is dead, which
    the reachability scan of names does not see.
    """
    trees = {name[:-3]: ast.parse(source) for name, source in sources.items()}
    read = {node.attr
            for tree in [*trees.values(), *map(ast.parse, consumers.values())]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(
        f"{mod}.{cls.name}.{fn.name}" for mod, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
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


def _package_names_read(tree, modules) -> list[tuple[str, str]]:
    """(module, name) pairs that code outside the package reads from it;
    `from tensortraffic import name` reads `__init__.name` unless `name` is
    one of `modules`."""
    bound, out = {}, []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "tensortraffic"):
            mod = node.module.partition(".")[2] or "__init__"
            for a in node.names:
                if mod == "__init__" and a.name in modules:
                    bound[a.asname or a.name] = a.name
                else:
                    out.append((mod, a.name))
    return out + [(bound[n.value.id], n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name) and n.value.id in bound]


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


def test_no_unused_imports_in_tests():
    """A dead import in a test would keep a definition alive for the
    reachability scan of `test_acceptance.py`."""
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests").glob("*.py"))}
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
        "c.py": ("class late:\n    pass\nclass Unused:\n    pass\n"
                 "class Imported:\n    pass\n"),
    }
    consumers = {"bench.py": ("from tensortraffic import b as mod\n"
                              "from tensortraffic.c import Imported\n"
                              "mod.orphan()\n")}
    # neither the re-export nor the __all__ entry keeps a definition alive
    assert unreachable_definitions(sources, consumers) == [
        "__init__.public", "a._ping", "a._pong", "a.listed", "a.public",
        "c.Unused"]
    # the outside reads alone keep b.orphan, b.shared, c.late and c.Imported
    assert unreachable_definitions(sources, {}) == [
        "__init__.public", "a._ping", "a._pong", "a.listed", "a.public",
        "b.orphan", "b.shared", "c.Imported", "c.Unused", "c.late"]


def test_every_definition_in_package_is_reachable():
    """Also every name `__init__` re-exports: the README example's and the
    exception classes."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    consumers = {str(path): path.read_text(encoding="utf-8")
                 for path in CONSUMERS}
    assert unreachable_definitions(sources, consumers) == []


def test_readme_library_example_runs(capsys):
    """The README's library example runs on the names `__init__` exports."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    limit, trace, injective = capsys.readouterr().out.split()
    assert limit == "1"
    assert complex(trace) == pytest.approx(complex(injective))


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
                 "    @classmethod\n    def build(cls):\n        return cls()\n"
                 "    def unread(self):\n        return 3\n"
                 "def stray():\n    def _nested():\n        pass\n"),
        "b.py": ("from .a import _Pool\n"
                 "def run(pool: _Pool):\n    return pool.size\n"),
    }
    consumers = {"bench.py": "from tensortraffic.a import Public\n"
                             "Public.build().api()\n"}
    # public methods count too; a read outside the package keeps one alive
    assert unread_methods(sources, consumers) == [
        "a.Public._helper", "a.Public.unread", "a._Pool.spare"]
    assert unread_methods(sources, {}) == [
        "a.Public._helper", "a.Public.api", "a.Public.build",
        "a.Public.unread", "a._Pool.spare"]


def test_every_private_method_in_package_is_read():
    """Public methods too, read by the package, the benchmark or the
    acceptance criteria."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    consumers = {str(path): path.read_text(encoding="utf-8")
                 for path in CONSUMERS}
    assert unread_methods(sources, consumers) == []


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
