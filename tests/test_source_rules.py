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


def _referenced_names(node, imports=True):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias) and imports:
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


def test_every_oracle_is_used_by_a_test():
    # a reference that no test reads any more is a replaced generation left
    # behind; each oracle must be read by a test module, directly or through
    # another oracle that is (an import alone reads nothing)
    here = Path(__file__).parent
    oracles = {name: set(_referenced_names(node))
               for node in ast.parse((here / "oracles.py").read_text()).body
               for name in _defined_names(node)}
    reached = set().union(*(_referenced_names(ast.parse(path.read_text()), False)
                            for path in sorted(here.glob("test_*.py"))))
    todo = list(reached & oracles.keys())
    while todo:
        for name in oracles[todo.pop()] & oracles.keys() - reached:
            reached.add(name)
            todo.append(name)
    unused = sorted(oracles.keys() - reached)
    assert not unused, unused


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _unused_imports(sources):
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{name}" for name in _imported_names(tree)
                   if name not in read]
    return unused


def test_library_imports_are_used():
    # a module-level import that its module never reads is left over from
    # a mechanism that moved or went away
    sources = [path for path in sorted(Path(scldpc.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"]
    assert len(sources) >= 8
    unused = _unused_imports(sources)
    assert not unused, unused


def test_test_imports_are_used():
    # the same rule for the test modules: an unread import hides which
    # names a test still exercises
    sources = sorted(Path(__file__).parent.glob("test_*.py"))
    assert len(sources) >= 10
    unused = _unused_imports(sources)
    assert not unused, unused
