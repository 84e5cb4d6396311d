"""Rules on the library source that no behavioural test would catch."""
from __future__ import annotations

import ast
from pathlib import Path

import scldpc


def test_library_raises_instead_of_asserting():
    # python -O strips assert statements, so a runtime invariant in the
    # library must raise an exception instead
    sources = sorted(Path(scldpc.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_private_helpers_are_used_by_the_library():
    # a private helper that only tests still call is a replaced mechanism
    # left behind; tests keep such code in tests/oracles.py instead
    sources = sorted(Path(scldpc.__file__).parent.glob("*.py"))
    statements = [(path.name, node) for path in sources
                  for node in ast.parse(path.read_text(), str(path)).body]
    uses = [set(_referenced_names(node)) for _, node in statements]
    unused = [f"{name}:{helper}"
              for n, (name, node) in enumerate(statements)
              for helper in _defined_names(node)
              if helper.startswith("_") and not helper.startswith("__")
              and not any(helper in used
                          for k, used in enumerate(uses) if k != n)]
    assert not unused, unused
