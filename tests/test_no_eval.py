"""Generated code stays in one place: only the clause compiler calls ``eval``."""

from __future__ import annotations

import ast
from pathlib import Path

import cologic

#: The one function allowed to run generated source (``terms._compile_clause``).
ALLOWED = {"terms.py _compile_clause eval"}


def dynamic_calls(path: Path) -> set[str]:
    """``file function name`` for every call of bare ``exec`` or ``eval`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    owners = {
        node: function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    return {
        f"{path.name} {owners.get(node, '<module>')} {node.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval")
    }


def test_only_the_maker_builder_runs_generated_code():
    package = Path(cologic.__file__).resolve().parent
    found = set().union(*(dynamic_calls(path) for path in sorted(package.glob("*.py"))))
    assert found == ALLOWED


def test_dynamic_calls_finds_module_and_nested_calls(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("exec('x = 1')\ndef f():\n    def g():\n        return eval('1')\n    return g\n")
    # A nested function's call is owned by the innermost function that holds it.
    assert dynamic_calls(path) == {"m.py <module> exec", "m.py g eval"}
