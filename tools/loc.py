"""Line counts, compile and import times of cologic's source, per file and in total.

Run from anywhere, naming the checkout to count::

    python3 tools/loc.py --checkout .

For every ``<checkout>/src/cologic/*.py`` it prints one line: the file
name, its ``wc -l`` count, its code lines, its compile time and its
import time, then a ``total`` line. A code line holds a token that is
neither a comment nor part of a docstring (the first statement of a
module, class or function, when it is a string, as :mod:`ast` finds
them), so blank lines, comment-only lines and docstring lines do not
count. Deleting comments or docstrings leaves the code count where it
was; compare checkouts with the same copy of this tool.

The compile time is the median of 5 runs of :func:`compile` on the
file's text, in milliseconds, and its total is the sum of the printed
values. Where no bytecode is cached, as when ``PYTHONDONTWRITEBYTECODE``
is set, every fresh import of cologic pays it, and perfbench's
``setup_s`` imports cologic afresh on each repeat.

An import pays the module's execution too, such as its dataclass
decorations. The import time is the module's self time from
``python -X importtime -c "import cologic.cli"``, in milliseconds: the
median of 5 runs, each in a fresh interpreter started with ``-B`` and an
empty ``PYTHONPYCACHEPREFIX``, so that no cached bytecode is read and
each module is compiled and executed. A module that import does not
load (``__main__.py``) shows ``-``. Its total is the sum of the printed
values.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from time import perf_counter

COMPILE_RUNS = 5
IMPORT_RUNS = 5

# Tokens that make no line a code line on their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of the module begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(text: str) -> tuple[int, int]:
    """``(wc -l, code lines)`` of one Python source text."""
    docstrings = docstring_starts(ast.parse(text))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code)


def compile_ms(text: str, filename: str) -> float:
    """Median wall time of :data:`COMPILE_RUNS` ``compile()`` runs of a source text, in ms."""
    times = []
    for _ in range(COMPILE_RUNS):
        start = perf_counter()
        compile(text, filename, "exec")
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def import_ms(checkout: Path) -> dict[str, float]:
    """File name -> median self time of its module over :data:`IMPORT_RUNS` fresh imports, in ms."""
    times: dict[str, list[int]] = {}
    with tempfile.TemporaryDirectory() as empty:
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONPYCACHEPREFIX=empty)
        for _ in range(IMPORT_RUNS):
            run = subprocess.run([sys.executable, "-B", "-X", "importtime", "-c", "import cologic.cli"],
                                 env=env, capture_output=True, text=True, check=True)
            # Each line reads "import time: <self us> | <cumulative us> | <module>".
            for line in run.stderr.splitlines():
                self_us, _, module = line.removeprefix("import time:").split("|")
                package, _, name = module.strip().partition(".")
                if package == "cologic":
                    times.setdefault(f"{name or '__init__'}.py", []).append(int(self_us))
    return {name: round(statistics.median(us) / 1000, 3) for name, us in times.items()}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path("."),
                        help="repository whose src/cologic to count (default: .)")
    args = parser.parse_args(argv)
    imports = import_ms(args.checkout)
    total_wc = total_code = total_ms = total_import = 0
    for path in sorted((args.checkout / "src" / "cologic").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        wc, code = count(text)
        ms = round(compile_ms(text, str(path)), 3)
        total_wc += wc
        total_code += code
        total_ms += ms
        imported = imports.get(path.name)
        total_import += imported or 0
        imported = "-" if imported is None else f"{imported:.3f}"
        print(f"{path.name:<14} {wc:>6} {code:>6} {ms:>8.3f} {imported:>8}")
    print(f"{'total':<14} {total_wc:>6} {total_code:>6} {total_ms:>8.3f} {total_import:>8.3f}")


if __name__ == "__main__":
    main()
