"""Source checks that keep the package's guarantees visible to tools."""

import ast
from pathlib import Path

import tukeykit


def test_no_assert_statements():
    # python -O strips assert statements, and with them any certificate
    # re-verification they carry; checks must raise explicitly
    found = []
    for path in sorted(Path(tukeykit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements at {found}"
