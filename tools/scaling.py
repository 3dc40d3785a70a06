"""CPU time of the paper's list predicates as lists and cycles grow.

Run from anywhere, naming the checkout whose cologic to run::

    python3 tools/scaling.py --checkout .

It imports cologic from ``<checkout>/src``, parses
``<checkout>/programs/running_example.colp`` and times, in CPU seconds
(``time.process_time``), the search for a first answer of:

* ``all_pos``, ``max`` and ``member`` (a miss) over the finite list
  ``[1, ..., n]``, for n in ``--finite`` (default 1,000, 2,000, 5,000);
* ``max`` and ``all_pos`` over the cycle ``L = [1, ..., p|L]``, for p in
  ``--periods`` (default 50, 100, 200, 300);
* ``max``, ``all_pos`` and ``member`` (a miss) over the cycle
  ``L = [e_1, ..., e_p|L]`` whose elements repeat, ``e_i = i % 7 + 1``,
  for the same periods. A lookup's trial unification walks such a cycle
  up to a whole period before two rotations disagree, so these cases
  cost about cubic time in the period;
* ``all_pos``, ``max`` and ``member`` (a miss) over the finite list of n
  copies of ``1``, for n in ``--periods``. Every suffix has the same
  lookup key, so every entry on the branch passes the key test and each
  trial walks to the end of the shorter list: these cases cost about
  cubic time too, which is why they take the periods' sizes, not
  ``--finite``'s.

Every case runs in each engine mode named by ``--modes`` (default
``cofacts``; ``--modes cofacts,inductive`` compares the bounded stratum).
Each case runs three times and reports its median; parsing the query is
not timed. Every answer is checked: ``all_pos`` holds, ``member(0, ...)``
fails, and ``max`` answers ``M = n`` (or ``M = p``, or the largest
repeated element, or ``M = 1``); in ``inductive`` mode every cycle case
answers ``false.``, as a cycle has no finite derivation, and in
``coinductive`` mode ``member(0, ...)`` holds on a cycle, as its
derivation is infinite. It prints one JSON line: the checkout, the
Python version and one row per mode and case with its ``cpu_s`` and
whether its answer was right. The exit status is 1 when an answer was
wrong or the search raised.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import statistics
import sys
from pathlib import Path
from time import process_time

FINITE = (1_000, 2_000, 5_000)
PERIODS = (50, 100, 200, 300)
MODES = ("cofacts",)
REPEATS = 3


def load(checkout: Path):
    """Import cologic from ``checkout``, never from elsewhere."""
    src = checkout / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cologic = importlib.import_module("cologic")
    if Path(cologic.__file__).resolve().parent != (src / "cologic").resolve():
        sys.exit(f"scaling: imported cologic from {cologic.__file__}, not {src}")
    return cologic


def cases(finite, periods, mode="cofacts"):
    """(name, size, query text, expected first answer) per case; None expects ``false.``."""
    cycles_hold = mode != "inductive"
    for n in finite:
        items = "[" + ", ".join(str(i) for i in range(1, n + 1)) + "]"
        yield "all_pos/finite", n, f"?- all_pos({items}).", {}
        yield "max/finite", n, f"?- max({items}, M).", {"M": n}
        yield "member_miss/finite", n, f"?- member(0, {items}).", None
    for p in periods:
        cycle = "L = [" + ", ".join(str(i) for i in range(1, p + 1)) + "|L]"
        yield "max/cycle", p, f"?- {cycle}, max(L, M).", {"M": p} if cycles_hold else None
        yield "all_pos/cycle", p, f"?- {cycle}, all_pos(L).", {} if cycles_hold else None
    for p in periods:
        elements = [i % 7 + 1 for i in range(1, p + 1)]
        cycle = "L = [" + ", ".join(map(str, elements)) + "|L]"
        yield "max/repeat_cycle", p, f"?- {cycle}, max(L, M).", {"M": max(elements)} if cycles_hold else None
        yield "all_pos/repeat_cycle", p, f"?- {cycle}, all_pos(L).", {} if cycles_hold else None
        yield "member_miss/repeat_cycle", p, f"?- {cycle}, member(0, L).", {} if mode == "coinductive" else None
    for n in periods:
        items = "[" + ", ".join(["1"] * n) + "]"
        yield "all_pos/equal_finite", n, f"?- all_pos({items}).", {}
        yield "max/equal_finite", n, f"?- max({items}, M).", {"M": 1}
        yield "member_miss/equal_finite", n, f"?- member(0, {items}).", None


def correct(cologic, answer, expected) -> bool:
    if answer is None or expected is None:
        return answer is None and expected is None
    equations = dict(answer.equations)
    return all(equations.get(var) == cologic.Int(value) for var, value in expected.items())


def run(checkout: Path, finite=FINITE, periods=PERIODS, modes=MODES) -> dict:
    cologic = load(checkout)
    program = cologic.parse_program((checkout / "programs" / "running_example.colp").read_text())
    rows = []
    for mode in modes:
        for name, size, text, expected in cases(finite, periods, mode):
            query, config = cologic.parse_query(text), cologic.EngineConfig(mode=mode)
            times, ok, error = [], True, None
            for _ in range(REPEATS):
                start = process_time()
                try:
                    answer = next(iter(cologic.solve(program, query, config)), None)
                except Exception as e:  # a crash is a wrong answer, reported by its type
                    answer, error = None, type(e).__name__
                times.append(process_time() - start)
                ok = ok and error is None and correct(cologic, answer, expected)
            row = {"mode": mode, "case": name, "size": size, "cpu_s": round(statistics.median(times), 4), "ok": ok}
            if error is not None:
                row["error"] = error
            rows.append(row)
    return {"checkout": str(checkout), "python": platform.python_version(), "rows": rows}


def sizes(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def modes(text: str) -> tuple[str, ...]:
    names = tuple(part for part in text.split(",") if part)
    for name in names:
        if name not in ("cofacts", "inductive", "coinductive"):
            raise argparse.ArgumentTypeError(f"unknown mode {name!r}")
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="repository root whose src/ and programs/ to use (default: this one)")
    parser.add_argument("--finite", type=sizes, default=FINITE,
                        help="comma-separated finite list lengths (default: 1000,2000,5000)")
    parser.add_argument("--periods", type=sizes, default=PERIODS,
                        help="comma-separated cycle periods (default: 50,100,200,300)")
    parser.add_argument("--modes", type=modes, default=MODES,
                        help="comma-separated engine modes to run every case in (default: cofacts)")
    args = parser.parse_args(argv)
    result = run(args.checkout.resolve(), args.finite, args.periods, args.modes)
    print(json.dumps(result), flush=True)
    return 0 if all(row["ok"] for row in result["rows"]) else 1


if __name__ == "__main__":
    sys.exit(main())
