import ast
from pathlib import Path

import rotorlab


def test_no_assert_statements_in_package():
    # result guards must survive `python -O`, so they raise typed errors
    root = Path(rotorlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
