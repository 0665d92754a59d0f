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


def test_no_function_takes_a_step_budget():
    # every run reads its step budget from its module's constant when it
    # starts; no function takes one as a parameter
    root = Path(rotorlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)}
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in sorted(names
                                             & {"step_cap", "step_budget"})]
    assert found == []
