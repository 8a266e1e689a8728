"""Theory checks raise ``InternalAssertion``: ``python -O`` strips ``assert``."""

import ast
from pathlib import Path

import enrbisim


def test_package_has_no_assert_statements():
    root = Path(enrbisim.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
