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
