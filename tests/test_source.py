"""Rules on the library's source that hold in every module."""

import ast
from pathlib import Path

import darmoncheck


def test_no_assert_in_library():
    # python -O strips assert statements; the library raises instead
    found = []
    for path in sorted(Path(darmoncheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
