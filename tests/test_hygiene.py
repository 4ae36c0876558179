"""Every module-level import of a package module is used by that module,
every private module-level name, and every private method and slot of a
module-level class, is read somewhere in the package, no function of the
package calls itself, and every function the benchmark tracer times by
name is a module-level function of the package.

No linter runs on this repository, so these scans keep dead imports and
dead private helpers from accumulating.  The import scan skips the
package's __init__.py: its imports are the public re-exports.  The
recursion scan keeps input depth from reaching the interpreter's
recursion limit: every walk over a tree uses an explicit stack.  The
timed-function scan makes a rename or a deletion of a traced function
fail the suite rather than a benchmark run.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "s1sup"
SPANS = PACKAGE.parent.parent / "perfbench" / "spans.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name a module-level import binds that the
    module never reads."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """(line, name, node) of each module-level function, class or
    constant, and of each method and __slots__ entry of a module-level
    class; node is the definition whose own reads do not count."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.lineno, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield node.lineno, t.id, node
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, FUNCTIONS):
                yield item.lineno, item.name, item
            elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                for entry in ast.walk(item.value):
                    if isinstance(entry, ast.Constant) and isinstance(entry.value, str):
                        yield entry.lineno, entry.value, item


def unread_private_names(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each definition (see definitions) whose
    name starts with one underscore and that no module reads, not
    counting reads inside its own definition.  A read is a loaded name, a
    loaded attribute or a from-import, so a slot that is only ever
    assigned counts as unread."""

    def reads(node: ast.AST) -> list[str]:
        out = []
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.append(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                out.append(n.attr)
            elif isinstance(n, ast.ImportFrom):
                out.extend(alias.name for alias in n.names)
        return out

    total: dict[str, int] = {}
    for tree in trees.values():
        for name in reads(tree):
            total[name] = total.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for line, name, node in definitions(tree):
            private = name.startswith("_") and not name.startswith("__")
            if private and total.get(name, 0) == reads(node).count(name):
                found.append((module, line, name))
    return sorted(found)


def test_scan_finds_unread_private_names():
    sources = {
        "a": (
            "_USED = 1\n"
            "_DEAD = 2\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _recursive(k):\n"
            "    return _recursive(k - 1)\n"
            "class _Kept:\n"
            "    pass\n"
            "def public():\n"
            "    pass\n"
        ),
        "b": "from a import _helper\nimport a\na._Kept()\n",
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert unread_private_names(trees) == [("a", 2, "_DEAD"), ("a", 5, "_recursive")]


def test_scan_finds_unread_private_members():
    source = (
        "class Box:\n"
        "    __slots__ = ('value', '_cache',\n"
        "                 '_dead')\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "        self._dead = None\n"
        "    def _get(self):\n"
        "        return self._cache\n"
        "    def _unused(self):\n"
        "        return self._unused()\n"
        "    def public(self):\n"
        "        return self._get()\n"
    )
    trees = {"a": ast.parse(source)}
    assert unread_private_names(trees) == [("a", 3, "_dead"), ("a", 9, "_unused")]


def test_package_reads_its_private_names():
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert unread_private_names(trees) == []


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from re import compile as rc, escape\n"
        "rc(sys.argv)\n"
    )
    assert unused_imports(ast.parse(source)) == [(2, "os"), (4, "escape")]


def test_package_modules_are_found():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def own_nodes(node: ast.AST):
    """The descendants of node, not entering nested function or class
    bodies (lambdas belong to the function they are written in)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        yield n
        if not isinstance(n, FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(n))


def recursive_functions(tree: ast.Module) -> list[str]:
    """Qualified names of the functions, nested defs included, that reach
    themselves through calls by bare name or self. method, directly or
    through other functions of the module.  A bare name resolves to the
    innermost def of that name in an enclosing function, then to a module
    function; self.name resolves to a method of the enclosing class."""
    calls: dict[str, set[str]] = {}
    # scope node, its qualified name, defs visible by bare name, self methods
    todo = [(tree, "", {}, {})]
    while todo:
        scope, qual, visible, methods = todo.pop()
        prefix = qual + "." if qual else ""
        inner = [n for n in own_nodes(scope) if isinstance(n, FUNCTIONS + (ast.ClassDef,))]
        defs = {n.name: prefix + n.name for n in inner if isinstance(n, FUNCTIONS)}
        if isinstance(scope, ast.ClassDef):
            methods = defs
        else:
            visible = {**visible, **defs}
        if isinstance(scope, FUNCTIONS):
            called = calls.setdefault(qual, set())
            for n in own_nodes(scope):
                if not isinstance(n, ast.Call):
                    continue
                f = n.func
                if isinstance(f, ast.Name) and f.id in visible:
                    called.add(visible[f.id])
                elif (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "self"
                    and f.attr in methods
                ):
                    called.add(methods[f.attr])
        todo += [(n, prefix + n.name, visible, methods) for n in inner]
    found = []
    for start, callees in calls.items():
        seen: set[str] = set()
        stack = list(callees)
        while stack:
            f = stack.pop()
            if f == start:
                found.append(start)
                break
            if f not in seen:
                seen.add(f)
                stack.extend(calls.get(f, ()))
    return sorted(found)


def test_scan_finds_recursion():
    source = (
        "def direct(k):\n"
        "    return direct(k - 1)\n"
        "def outer(t):\n"
        "    def walk(n):\n"
        "        return [walk(c) for c in n]\n"
        "    def step(n):\n"
        "        return len(n)\n"
        "    return walk(t)\n"
        "def other(t):\n"
        "    def step(n):\n"
        "        return outer(n)\n"
        "    return step(t)\n"
        "def ping(n):\n"
        "    return pong(n)\n"
        "def pong(n):\n"
        "    return ping(n) if n else 0\n"
        "class Parser:\n"
        "    def formula(self):\n"
        "        return self.unary()\n"
        "    def unary(self):\n"
        "        return (lambda: self.formula())()\n"
        "    def atom(self):\n"
        "        return self.take()\n"
        "    def take(self):\n"
        "        return atom()\n"
        "def atom():\n"
        "    return 0\n"
    )
    assert recursive_functions(ast.parse(source)) == [
        "Parser.formula",
        "Parser.unary",
        "direct",
        "outer.walk",
        "ping",
        "pong",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_recursion(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert recursive_functions(tree) == []


def missing_timed(spans: ast.Module, modules: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """The (module, function) pairs of spans' module-level TIMED tuple
    that are not module-level functions of modules[module]."""
    (timed,) = [
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets)
    ]
    missing = []
    for module, name in timed:
        tree = modules.get(module, ast.Module(body=[], type_ignores=[]))
        if name not in {n.name for n in tree.body if isinstance(n, FUNCTIONS)}:
            missing.append((module, name))
    return missing


def test_scan_finds_missing_timed_functions():
    spans = ast.parse('TIMED = (("a", "kept"), ("a", "Box"), ("a", "gone"), ("b", "f"))\n')
    modules = {"a": ast.parse("def kept():\n    pass\nclass Box:\n    def gone(self):\n        pass\n")}
    assert missing_timed(spans, modules) == [("a", "Box"), ("a", "gone"), ("b", "f")]


def test_timed_functions_are_package_functions():
    modules = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES
    }
    spans = ast.parse(SPANS.read_text(encoding="utf-8"), filename=str(SPANS))
    assert missing_timed(spans, modules) == []
