"""Library invariants raise typed errors: no `assert`, which `python -O` strips."""
import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "goldiebound"


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_library_has_no_assert():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raised_name(node) == "AssertionError"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
