"""The lint step: no module-level import in `src/formacheck` or `tests` goes
unused.  A name counts as used when the module reads it somewhere or lists
it in `__all__`; `from __future__` imports are exempt."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = sorted(glob.glob(os.path.join(ROOT, "src", "formacheck", "*.py"))
               + glob.glob(os.path.join(ROOT, "tests", "*.py")))


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
