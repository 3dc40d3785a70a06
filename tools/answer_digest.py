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

``--lines`` prints, instead of digests, one JSON line per (case, mode,
budget) of the ``lists``, ``facts`` and ``corpus`` workloads:
``[workload, case index, query text, mode, budget, answers, error]``, each
answer in ``cologic.cli.format_answer`` form (which names variables by
the query, not by their ids) and the error as its type name or null.
``--compare OLD NEW`` reads two such outputs of the same seed and cases,
line by line, and prints per workload the number of sequences and of
each kind of difference (see :func:`classify`): ``duplicates``,
``error-to-answers``, ``answers-to-error`` and ``lost``. It exits 1 when
any sequence is ``lost``::

    python3 tools/answer_digest.py --checkout OLD_CHECKOUT --seed 3 --lines > old.jsonl
    python3 tools/answer_digest.py --checkout . --seed 3 --lines > new.jsonl
    python3 tools/answer_digest.py --compare old.jsonl new.jsonl

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import sys
from collections import Counter
from itertools import islice, zip_longest
from pathlib import Path

MODES = ("cofacts", "inductive", "coinductive")
BUDGETS = (40, 20_000)
MAX_ANSWERS = 12
WORKLOADS = ("lists", "facts", "corpus")
ORACLE_WORKLOADS = ("lists", "corpus")
NOISE_ALPHABET = "ap X01,.()[]|:-=<>%\n\t \\٣é²½Ⅻ\x0b\xa0"
NOISE_TEXTS = 2_000
BUDGET_ERROR = "ResourceLimitError"
KINDS = ("duplicates", "error-to-answers", "answers-to-error", "lost")


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


def runs(cologic, workload_pass, max_cases: int | None = None):
    """Yield ``(case index, case, mode, budget, answers, error)`` per (query case, mode, budget).

    ``answers`` holds up to ``MAX_ANSWERS`` answers; ``error`` is the
    exception the search raised after them, or None.
    """
    programs: dict[str, object] = {}
    cases = [c for c in workload_pass.cases if c.op == "query"][:max_cases]
    for i, case in enumerate(cases):
        if case.program not in programs:
            programs[case.program] = cologic.parse_program(workload_pass.programs[case.program])
        program = programs[case.program]
        for mode in MODES:
            for budget in BUDGETS:
                config = cologic.EngineConfig(mode=mode, step_budget=budget)
                answers, error = [], None
                try:
                    query = cologic.parse_query(case.text)
                    answers.extend(islice(cologic.solve(program, query, config), MAX_ANSWERS))
                except Exception as e:  # an error, whatever its type, is part of the behaviour
                    error = e
                yield i, case, mode, budget, answers, error


def sequences(cologic, workload_pass, max_cases: int | None = None):
    """Yield one text line per (query case, mode, budget): its answers, then its error if any."""
    cli = importlib.import_module("cologic.cli")
    for _, case, mode, budget, answers, error in runs(cologic, workload_pass, max_cases):
        parts = [case.text, mode, str(budget)]
        for answer in answers:
            try:
                parts.append(f"{answer.equations!r} {answer.names!r}")
            except RecursionError:
                parts.append(f"repr-too-deep {cli.format_answer(answer)}")
        if error is not None:
            parts.append(f"error {type(error).__name__}: {error}")
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


def answer_lines(checkout: Path, workload: str, seed: int, max_cases: int | None = None):
    """Yield one JSON line per (query case, mode, budget) of one workload (see ``--lines``)."""
    cologic, workloads = load(checkout)
    cli = importlib.import_module("cologic.cli")
    workload_pass = workloads.WORKLOADS[workload](seed, checkout)
    for i, case, mode, budget, answers, error in runs(cologic, workload_pass, max_cases):
        yield json.dumps([workload, i, case.text, mode, budget, [cli.format_answer(a) for a in answers],
                          None if error is None else type(error).__name__], ensure_ascii=False)


def _distinct(answers: list[str]) -> list[str]:
    return list(dict.fromkeys(answers))


def classify(old: tuple[list[str], str | None], new: tuple[list[str], str | None]) -> str | None:
    """The kind of difference between two sequences, each ``(answers, error type or None)``.

    None when they are equal. ``duplicates``: the same ending, and the new
    side keeps every distinct answer of the old one in order, with fewer
    duplicates (and, where the old side filled the answer cap or ran out of
    budget, possibly more distinct answers after them). ``error-to-answers``:
    the old side ran out of budget, the new one ends without an error.
    ``answers-to-error``: the old side filled the cap, the new one runs out
    of budget. ``lost``: anything else, such as a distinct answer lost,
    reordered or added, or another change of error.
    """
    if old == new:
        return None
    (old_answers, old_error), (new_answers, new_error) = old, new
    kept, found = _distinct(old_answers), _distinct(new_answers)
    capped = len(old_answers) == MAX_ANSWERS
    if found[:len(kept)] != kept or (len(found) > len(kept) and not capped and old_error is None):
        return "lost"
    if old_error == new_error:
        return "duplicates"
    if old_error == BUDGET_ERROR and new_error is None:
        return "error-to-answers"
    if old_error is None and capped and new_error == BUDGET_ERROR:
        return "answers-to-error"
    return "lost"


def compare(old_lines, new_lines) -> dict[str, Counter]:
    """Per workload, the number of sequences and of each kind of difference (see :func:`classify`)."""
    kinds: dict[str, Counter] = {}
    for number, (a, b) in enumerate(zip_longest(old_lines, new_lines), 1):
        if a is None or b is None:
            raise ValueError(f"line {number}: one output has more sequences than the other")
        a, b = json.loads(a), json.loads(b)
        if a[:5] != b[:5]:
            raise ValueError(f"line {number}: the outputs hold different sequences: {a[:5]} and {b[:5]}")
        counts = kinds.setdefault(a[0], Counter())
        counts["sequences"] += 1
        kind = classify((a[5], a[6]), (b[5], b[6]))
        if kind is not None:
            counts[kind] += 1
    return kinds


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
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workload", choices=(*WORKLOADS, "parse", "oracle"), action="append",
                        help="workload to digest, parse or oracle; repeatable (default: all five)")
    parser.add_argument("--cases", type=int, default=None,
                        help="digest only the first N query cases of each workload")
    parser.add_argument("--lines", action="store_true",
                        help="print one JSON line per answer sequence instead of digests")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="sort the differences between two --lines outputs by kind")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (path.read_text(encoding="utf-8").splitlines() for path in args.compare)
        kinds = compare(old, new)
        for workload, counts in kinds.items():
            print(workload, "\t".join(f"{kind} {counts[kind]}" for kind in ("sequences", *KINDS)), sep="\t")
        return 1 if any(counts["lost"] for counts in kinds.values()) else 0
    if args.seed is None:
        parser.error("--seed is required unless --compare is given")
    checkout = args.checkout.resolve()
    if args.lines:
        for workload in args.workload or WORKLOADS:
            if workload not in WORKLOADS:
                parser.error(f"--lines prints answer sequences; {workload} has none")
            for line in answer_lines(checkout, workload, args.seed, args.cases):
                print(line)
        return 0
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
