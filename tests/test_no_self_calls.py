"""No function in the package calls itself, so no walk is limited by Python's stack."""

from __future__ import annotations

import ast
from pathlib import Path

import cologic
import helpers


def self_calls(path: Path) -> list[str]:
    """``file:line name`` for every call, in ``path``, of a function to its own bare name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [
        f"{path.name}:{node.lineno} {function.name}"
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == function.name
    ]


def test_no_function_in_the_package_calls_itself():
    """Every term walk in ``src/cologic`` keeps its own stack.

    The check is syntactic. It misses indirect recursion: two functions
    that call each other, a call through an attribute or a method
    (``self.walk(...)``), and a function reached through another name.
    """
    package = Path(cologic.__file__).resolve().parent
    assert [hit for path in sorted(package.glob("*.py")) for hit in self_calls(path)] == []


def test_self_calls_finds_the_recursive_references():
    # The check is not vacuous: the plain recursive reference walks trip it.
    found = {hit.split()[1] for hit in self_calls(Path(helpers.__file__))}
    assert {"reference_render_term", "reference_eval_arith", "discover", "expand"} <= found
