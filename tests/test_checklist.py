import ast
import re
from pathlib import Path


def test_acceptance_file_holds_the_eight_criteria_in_order():
    # the acceptance criteria are the product: a test clean-up that
    # drops, merges or renumbers one fails here, before any criterion runs
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    tests = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test")
    ]
    numbers = [re.fullmatch(r"test_criterion_(\d+)(_\w+)?", name) for name in tests]
    assert all(numbers), tests
    assert [int(m[1]) for m in numbers] == list(range(1, 9)), tests
