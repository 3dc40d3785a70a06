"""Digest of every answer sequence the perfbench query cases produce.

Run from anywhere, naming the checkout whose cologic to run::

    python3 tools/answer_digest.py --checkout . --seed 3

It imports cologic from ``<checkout>/src`` and the workload generators from
``<checkout>/perfbench/workloads.py``, builds each workload's pass from the
seed, and runs every ``query`` case in every mode, once with a 40-step
budget and once with a 20,000-step cap, taking up to 12 answers. For each
(case, mode, budget) it records the answer sequence, each answer as the
``repr`` of its ``equations`` and ``names`` (so variable ids count), and
the error type and message if the search raised. The terms' ``repr``
recurses, so an answer too deep for it is recorded as ``repr-too-deep``
and its ``cologic.cli.format_answer`` text instead: the tool's own stack
overflow is not an error of the search, and where it strikes depends on
the caller's stack. It prints one line per workload: the name, the
number of sequences and their SHA-256 digest. Two checkouts give equal
digests exactly when they give the same answers in the same order, with
the same variable ids and errors; compare them with the same copy of
this tool.

A last line, ``parse``, digests the parser alone: the ``repr`` of
``parse_program`` for every program text of the three workloads and of
``parse_query`` for every query text, then, for 2,000 noise texts drawn
from the seed over ``NOISE_ALPHABET`` (a character of each class the
tokenizer tells apart by its first character), the ``repr`` of each
parse or its ``ParseError`` message, line and column. A text that fails otherwise (a term too deep for the
``repr``, or for a parser that recurses) records the error type alone.
``--workload parse`` prints only this line.

A line ``oracle`` digests the oracle: for every program of the ``lists``
and ``corpus`` workloads, the text of ``cologic.cli.oracle_report``, or
the error type and message it raised. The ``facts`` program is left out:
its clauses have about 4.1 billion ground instances, which a cologic
without the oracle's size limit tries to build. ``--workload oracle``
prints only this line.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import random
import sys
from itertools import islice
from pathlib import Path

MODES = ("cofacts", "inductive", "coinductive")
BUDGETS = (40, 20_000)
MAX_ANSWERS = 12
WORKLOADS = ("lists", "facts", "corpus")
ORACLE_WORKLOADS = ("lists", "corpus")
NOISE_ALPHABET = "ap X01,.()[]|:-=<>%\n\t \\٣é²½Ⅻ\x0b\xa0"
NOISE_TEXTS = 2_000


def load(checkout: Path):
    """Import cologic and perfbench's workloads from ``checkout``, never from elsewhere."""
    src, bench = checkout / "src", checkout / "perfbench"
    for path in (src, bench):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    cologic = importlib.import_module("cologic")
    if Path(cologic.__file__).resolve().parent != (src / "cologic").resolve():
        sys.exit(f"answer_digest: imported cologic from {cologic.__file__}, not {src}")
    return cologic, importlib.import_module("workloads")


def sequences(cologic, workload_pass, max_cases: int | None = None):
    """Yield one text line per (query case, mode, budget): its answers, then its error if any."""
    cli = importlib.import_module("cologic.cli")
    programs: dict[str, object] = {}
    cases = [c for c in workload_pass.cases if c.op == "query"][:max_cases]
    for case in cases:
        if case.program not in programs:
            programs[case.program] = cologic.parse_program(workload_pass.programs[case.program])
        program = programs[case.program]
        for mode in MODES:
            for budget in BUDGETS:
                config = cologic.EngineConfig(mode=mode, step_budget=budget)
                parts = [case.text, mode, str(budget)]
                try:
                    query = cologic.parse_query(case.text)
                    for answer in islice(cologic.solve(program, query, config), MAX_ANSWERS):
                        try:
                            parts.append(f"{answer.equations!r} {answer.names!r}")
                        except RecursionError:
                            parts.append(f"repr-too-deep {cli.format_answer(answer)}")
                except Exception as e:  # an error, whatever its type, is part of the behaviour
                    parts.append(f"error {type(e).__name__}: {e}")
                yield "\t".join(parts)


def digest(checkout: Path, workload: str, seed: int, max_cases: int | None = None) -> tuple[int, str]:
    """(number of sequences, SHA-256 hex digest) for one workload at one seed."""
    cologic, workloads = load(checkout)
    workload_pass = workloads.WORKLOADS[workload](seed, checkout)
    h, n = hashlib.sha256(), 0
    for line in sequences(cologic, workload_pass, max_cases):
        h.update(line.encode("utf-8") + b"\n")
        n += 1
    return n, h.hexdigest()


def parsed(cologic, parse, text: str) -> str:
    """The ``repr`` of one parse, or the error it raised."""
    try:
        return repr(parse(text))
    except cologic.ParseError as e:
        return f"error {e.message} {e.line} {e.column}"
    except Exception as e:  # a crash, whatever its type, is recorded by its type alone
        return f"error {type(e).__name__}"


def parse_digest(checkout: Path, seed: int) -> tuple[int, str]:
    """(number of parses, SHA-256 hex digest) over every workload text and the noise texts."""
    cologic, workloads = load(checkout)
    lines = []
    for workload in WORKLOADS:
        workload_pass = workloads.WORKLOADS[workload](seed, checkout)
        lines += [parsed(cologic, cologic.parse_program, text) for text in workload_pass.programs.values()]
        lines += [parsed(cologic, cologic.parse_query, case.text)
                  for case in workload_pass.cases if case.op == "query"]
    rng = random.Random(seed)
    for _ in range(NOISE_TEXTS):
        text = "".join(rng.choice(NOISE_ALPHABET) for _ in range(rng.randint(0, 25)))
        lines += [parsed(cologic, cologic.parse_program, text), parsed(cologic, cologic.parse_query, text)]
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return len(lines), h.hexdigest()


def oracle_digest(checkout: Path, seed: int) -> tuple[int, str]:
    """(number of reports, SHA-256 hex digest) over the oracle report of every program."""
    cologic, workloads = load(checkout)
    cli = importlib.import_module("cologic.cli")
    h, n = hashlib.sha256(), 0
    for workload in ORACLE_WORKLOADS:
        for key, text in workloads.WORKLOADS[workload](seed, checkout).programs.items():
            try:
                report = cli.oracle_report(cologic.parse_program(text))
            except Exception as e:  # an error, whatever its type, is part of the behaviour
                report = f"error {type(e).__name__}: {e}"
            h.update(f"{workload} {key}\n{report}\n".encode("utf-8"))
            n += 1
    return n, h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="repository root whose src/ and perfbench/ to use (default: this one)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=(*WORKLOADS, "parse", "oracle"), action="append",
                        help="workload to digest, parse or oracle; repeatable (default: all five)")
    parser.add_argument("--cases", type=int, default=None,
                        help="digest only the first N query cases of each workload")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    for workload in args.workload or (*WORKLOADS, "parse", "oracle"):
        if workload == "parse":
            n, hexdigest = parse_digest(checkout, args.seed)
        elif workload == "oracle":
            n, hexdigest = oracle_digest(checkout, args.seed)
        else:
            n, hexdigest = digest(checkout, workload, args.seed, args.cases)
        print(f"{workload}\t{n}\t{hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
