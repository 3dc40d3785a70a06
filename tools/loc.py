"""Line counts and compile times of cologic's source, per file and in total.

Run from anywhere, naming the checkout to count::

    python3 tools/loc.py --checkout .

For every ``<checkout>/src/cologic/*.py`` it prints one line: the file
name, its ``wc -l`` count, its code lines and its compile time, then a
``total`` line. A code line holds a token that is neither a comment nor
part of a docstring (the first statement of a module, class or function,
when it is a string, as :mod:`ast` finds them), so blank lines,
comment-only lines and docstring lines do not count. Deleting comments
or docstrings leaves the code count where it was; compare checkouts with
the same copy of this tool.

The compile time is the median of 5 runs of :func:`compile` on the
file's text, in milliseconds, and its total is the sum of the printed
values. Where no bytecode is cached, as when ``PYTHONDONTWRITEBYTECODE``
is set, every fresh import of cologic pays it, and perfbench's
``setup_s`` imports cologic afresh on each repeat.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import statistics
import tokenize
from pathlib import Path
from time import perf_counter

COMPILE_RUNS = 5

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


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path("."),
                        help="repository whose src/cologic to count (default: .)")
    args = parser.parse_args(argv)
    total_wc = total_code = total_ms = 0
    for path in sorted((args.checkout / "src" / "cologic").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        wc, code = count(text)
        ms = round(compile_ms(text, str(path)), 3)
        total_wc += wc
        total_code += code
        total_ms += ms
        print(f"{path.name:<14} {wc:>6} {code:>6} {ms:>8.3f}")
    print(f"{'total':<14} {total_wc:>6} {total_code:>6} {total_ms:>8.3f}")


if __name__ == "__main__":
    main()
