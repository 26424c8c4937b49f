"""The lint step: no module-level import in `src/formacheck` or `tests` goes
unused.  A name counts as used when the module reads it somewhere or lists
it in `__all__`; `from __future__` imports are exempt.  No module-level
private name (`_x`) defined in `src/formacheck` goes unread there either:
some module of the package must read it, so a helper the package stopped
calling is deleted rather than kept for the tests.  Every module-level
function or class of `src/formacheck` outside `reference`, public or
private (dunders aside), is read by a module of the package other than
`reference`, or listed in `formacheck.__all__`: code that only the
degree-by-degree reference uses lives in `reference`, off the check
path.  No function in `src/formacheck` takes a parameter that its body
never reads (`self` and `cls` are exempt).  Only `cli.entrypoint` calls
`os._exit`: library code returns, it never ends the process.  No module of
`src/formacheck` imports `reference`, at module level or in a function,
but the hook `linalg._moved_to_reference`, with `from . import reference`:
the tracer's old addresses need it, and no command does."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "formacheck", "*.py")))
FILES = SOURCES + sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))


def module_imports(tree: ast.Module):
    """Import statements at module level, including inside `if` and `try`."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending += node.body + node.orelse + getattr(node, "finalbody", [])
            pending += [s for handler in getattr(node, "handlers", []) for s in handler.body]


def exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def unused_imports(source: str) -> list:
    """(line, name) of every module-level import that the module never uses."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | exported(tree)
    unused = []
    for node in module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                unused.append((node.lineno, name))
    return sorted(unused)


def private_definitions(tree: ast.Module):
    """(line, name) of each `_x` that a module-level def, class or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((node.lineno, name) for name in bound
                    if name.startswith("_") and not name.startswith("__"))


def names_read(trees) -> set:
    """Every name that the trees read, by name or attribute."""
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return read


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of every module-level private name that no module
    in `sources` (module name -> source text) reads, by name or attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = names_read(trees.values())
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in private_definitions(tree) if name not in read)


def reference_only_names(sources: dict, reference: str, package: str) -> list:
    """(module, line, name) of every module-level def or class, dunders
    aside, of a module in `sources` other than `reference` that no module
    but `reference` reads, by name or attribute, and that `package` does
    not list in `__all__`."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = names_read(tree for module, tree in trees.items() if module != reference)
    read |= exported(trees[package])
    return sorted((module, node.lineno, node.name)
                  for module, tree in trees.items() if module != reference
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("__") and node.name not in read)


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of every parameter of a def or lambda that
    the function's body never reads; `self` and `cls` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            p for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(p.lineno, getattr(node, "name", "<lambda>"), p.arg) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")]
    return sorted(found)


def hard_exits(source: str) -> list:
    """(line, enclosing function or None) of every call of `os._exit`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "os._exit":
                found.append((child.lineno, function))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else function)

    visit(ast.parse(source), None)
    return found


def reference_imports(source: str) -> list:
    """(line, enclosing defs and classes or None, statement) of every import
    of the `reference` module or of a name from it."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            names = [alias.name for alias in getattr(child, "names", ())]
            if isinstance(child, ast.ImportFrom):
                names.append(child.module or "")
            if (isinstance(child, (ast.Import, ast.ImportFrom))
                    and any(name.split(".")[-1] == "reference" for name in names)):
                found.append((child.lineno, where, ast.unparse(child)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            else:
                visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path as p\n"
              "try:\n    import json\nexcept ImportError:\n    json = None\n"
              "from re import match, sub\n"
              "__all__ = ['sub']\n"
              "def f():\n    import sys\n    return match\n")
    assert unused_imports(source) == [(2, "os"), (2, "p"), (4, "json")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_checker_finds_unread_private_names():
    sources = {"a": ("_LIMIT = 3\n_unused: int = 0\n__dunder__ = 1\n"
                     "def _helper():\n    return _LIMIT\n"
                     "class _Kept:\n    pass\n"
                     "def _orphan():\n    _local = 1\n    return _local\n"),
               "b": "from .a import _helper\nimport a\nx = _helper() + a._Kept\n"}
    assert unread_private_names(sources) == [("a", 2, "_unused"), ("a", 8, "_orphan")]


def test_checker_finds_unread_parameters():
    source = ("def f(a, b=1, *args, c, **kw):\n    return a + len(args)\n"
              "class C:\n    def m(self, x):\n        return 0\n"
              "    @classmethod\n    def k(cls, y):\n        def inner():\n            return y\n"
              "        return inner\n"
              "def g(z):\n    z = 1\n    return (lambda u, v: u)(0, 0)\n"
              "def h(t=None):\n    return t is None\n")
    assert unread_parameters(source) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "kw"),
                                         (4, "m", "x"), (11, "g", "z"), (13, "<lambda>", "v")]


def test_every_parameter_is_read():
    found = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            module = os.path.basename(path)
            found += [(module, *params[1:]) for params in unread_parameters(fh.read())]
    assert found == []


def test_checker_finds_hard_exits():
    source = ("import os, sys\nos._exit(0)\n"
              "def entrypoint():\n    os._exit(main())\n"
              "class C:\n    def stop(self):\n        if True:\n            os._exit(1)\n"
              "def f():\n    sys.exit(2)\n    def g():\n        return os._exit\n")
    assert hard_exits(source) == [(2, None), (4, "entrypoint"), (8, "stop")]


def test_only_the_entrypoint_ends_the_process():
    found = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            module = os.path.basename(path)
            found += [(module, function) for _, function in hard_exits(fh.read())]
    assert found == [("cli.py", "entrypoint")]


def test_every_private_name_has_a_reader():
    sources = {}
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            sources[os.path.relpath(path, ROOT)] = fh.read()
    assert unread_private_names(sources) == []


def test_checker_finds_reference_imports():
    source = ("from . import linalg, reference\n"
              "from .reference import MatQ as M\n"
              "import formacheck.reference\n"
              "from .linalg import rank\n"
              "from .references import other\n"
              "from . import linalg as reference\n"
              "name = 'reference'\n"
              "def hook():\n    def __getattr__(name):\n        from . import reference\n"
              "class C:\n    def m(self):\n        if self:\n"
              "            from formacheck.reference import as_row\n")
    assert reference_imports(source) == [
        (1, None, "from . import linalg, reference"),
        (2, None, "from .reference import MatQ as M"),
        (3, None, "import formacheck.reference"),
        (10, "hook.__getattr__", "from . import reference"),
        (14, "C.m", "from formacheck.reference import as_row")]


def test_only_the_tracer_hook_imports_the_reference():
    found = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            module = os.path.basename(path)
            found += [(module, *imported[1:]) for imported in reference_imports(fh.read())]
    assert found == [("linalg.py", "_moved_to_reference.__getattr__", "from . import reference")]


def test_checker_finds_public_names_only_the_reference_reads():
    sources = {"__init__.py": "from .a import listed\n__all__ = ['listed']\n",
               "a.py": ("def listed():\n    pass\ndef used():\n    pass\n"
                        "def dense():\n    pass\nclass Old:\n    pass\n"
                        "def _private():\n    pass\nvalue = used(_private)\n"
                        "def _pack():\n    pass\ndef __getattr__(name):\n    pass\n"),
               "b.py": "import a\nclass Kept:\n    pass\nx = a.listed, Kept\n",
               "reference.py": ("from .a import Old, _pack, dense\n"
                                "def helper():\n    return dense(Old, _pack)\n")}
    assert reference_only_names(sources, "reference.py", "__init__.py") == \
        [("a.py", 5, "dense"), ("a.py", 7, "Old"), ("a.py", 12, "_pack")]


def test_only_the_reference_keeps_code_for_itself():
    sources = {}
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    assert reference_only_names(sources, "reference.py", "__init__.py") == []
