"""Only ``unify.py`` reads or writes a binding store's table and trail.

Their format can then change inside that one module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cologic

STORE_FIELDS = {"_table", "_trail"}


def store_accesses(path: Path) -> list[str]:
    """``file:line attribute`` for every ``._table`` or ``._trail`` read or written in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [
        f"{path.name}:{node.lineno} {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in STORE_FIELDS
    ]


def test_only_unify_touches_the_store_fields():
    """The check is syntactic: it misses ``getattr(store, "_table")`` and the like."""
    package = Path(cologic.__file__).resolve().parent
    others = [path for path in sorted(package.glob("*.py")) if path.name != "unify.py"]
    assert [hit for path in others for hit in store_accesses(path)] == []


def test_store_accesses_finds_a_planted_access(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("def peek(store):\n    n = len(store._trail)\n    store._table[0] = n\n",
                       encoding="utf-8")
    assert store_accesses(planted) == ["planted.py:2 _trail", "planted.py:3 _table"]
