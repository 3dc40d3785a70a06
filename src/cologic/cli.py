"""Command-line driver and interactive toplevel.

Usage::

    cologic program.colp --query "?- L = [1,2|L], max(L, M)."
    cologic program.colp --oracle
    cologic program.colp             # REPL

Answers print one ``Var = Term`` line per query variable (cyclic bindings
in back-reference form), ``true.`` for a variable-free success, and
``false.`` when a query has no answer. Exit status: 0 when every query
had at least one answer, 1 otherwise, 2 on any error. An error prints as
one line on stderr, never as a traceback, however deep the term.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .engine import MODES, Answer, EngineConfig, solve
from .errors import CologicError
from .oracle import coind_semantics, generated_semantics, ind_semantics, universe_for
from .parser import parse_program, parse_query
from .terms import Program, Var, render_atom, render_term


def format_answer(answer: Answer) -> str:
    """Deterministic text form: one ``name = value`` line per equation.

    An unconstrained query variable renders as ``name = _``; an empty
    equation set renders as ``true.``.
    """
    if not answer.equations:
        return "true."
    lines = []
    for name, term in answer.equations:
        if isinstance(term, Var) and answer.names.get(term.id) == name:
            lines.append(f"{name} = _")
        else:
            lines.append(f"{name} = {render_term(term, answer.names)}")
    return "\n".join(lines)


def _render_atom_set(atoms) -> str:
    return "{" + ", ".join(sorted(render_atom(a) for a in atoms)) + "}"


def oracle_report(program: Program) -> str:
    """The three computed semantics, each as a sorted ground atom set."""
    universe = universe_for(program)
    ind_extended = ind_semantics(program.extended(), universe)
    coinductive = coind_semantics(program.clauses, universe)
    generated = generated_semantics(program, universe)
    return (
        f"Ind(P⊔C) = {_render_atom_set(ind_extended)}\n"
        f"CoInd(P) = {_render_atom_set(coinductive)}\n"
        f"Gen(P,C) = {_render_atom_set(generated)}"
    )


def _load_program(path: str) -> Program | None:
    """The program in ``path``, or None after printing on stderr why it could not be loaded."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        return parse_program(text, origin=path)
    except UnicodeDecodeError as exc:
        print(f"cologic: {path}: not UTF-8 text ({exc.reason} at byte {exc.start})", file=sys.stderr)
    except (OSError, CologicError) as exc:
        print(exc, file=sys.stderr)
    return None


def run_file(
    path: str | None,
    queries: list[str],
    config: EngineConfig,
    all_answers: bool = False,
    oracle: bool = False,
) -> int:
    """Load a program, optionally print the oracle report, run the queries."""
    program = _load_program(path) if path else Program()
    if program is None:
        return 2
    had_error = False
    all_answered = True
    if oracle:
        try:
            print(oracle_report(program))
        except CologicError as exc:
            print(exc, file=sys.stderr)
            had_error = True
    for text in queries:
        try:
            query = parse_query(text)
            got_answer = False
            for i, answer in enumerate(solve(program, query, config)):
                if i > 0:
                    print(";")
                print(format_answer(answer))
                got_answer = True
                if not all_answers:
                    break
            if not got_answer:
                print("false.")
                all_answered = False
        except CologicError as exc:
            print(exc, file=sys.stderr)
            had_error = True
    if had_error:
        return 2
    return 0 if all_answered else 1


def repl_loop(path: str | None = None, config: EngineConfig | None = None) -> int:
    """Interactive session: queries, ``;`` for the next answer, ``:`` meta-commands."""
    config = config or EngineConfig()
    loaded = _load_program(path) if path else None
    program = Program() if loaded is None else loaded
    while True:
        try:
            line = input("?- ").strip()
        except EOFError:
            return 0
        if not line:
            continue
        if line.startswith(":"):
            command, _, argument = line.partition(" ")
            argument = argument.strip()
            if command in (":quit", ":q"):
                return 0
            if command == ":mode":
                if argument in MODES:
                    config = replace(config, mode=argument)
                else:
                    print(f"unknown mode {argument!r}", file=sys.stderr)
            elif command == ":load":
                loaded = _load_program(argument)
                if loaded is not None:
                    program = loaded
            elif command == ":oracle":
                try:
                    print(oracle_report(program))
                except CologicError as exc:
                    print(exc, file=sys.stderr)
            else:
                print(f"unknown command {command!r}", file=sys.stderr)
            continue
        _repl_query(line, program, config)


def _repl_query(text: str, program: Program, config: EngineConfig) -> None:
    try:
        query = parse_query(text, origin="<repl>")
        for answer in solve(program, query, config):
            print(format_answer(answer))
            try:
                more = input().strip()
            except EOFError:
                return
            if more != ";":
                return
        print("false.")
    except CologicError as exc:
        print(exc, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cologic",
        description="Run logic programs with co-facts; no file and no query starts a REPL.",
    )
    parser.add_argument("file", nargs="?", help="program file (.colp)")
    parser.add_argument(
        "--query",
        "-q",
        action="append",
        default=[],
        metavar="GOAL",
        help="query to run (repeatable), e.g. \"?- member(X, [1,2]).\"",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default=EngineConfig.mode,
        help=f"semantics to resolve under (default: {EngineConfig.mode})",
    )
    parser.add_argument(
        "--all", action="store_true", help="enumerate every answer instead of the first"
    )
    parser.add_argument(
        "--revisit-limit",
        type=int,
        default=EngineConfig.lfp_revisit_limit,
        metavar="N",
        help="times an atom class may be reprocessed in the bounded SLD stratum",
    )
    parser.add_argument(
        "--no-hyp-cut",
        action="store_true",
        help="let atoms that unify with a hypothesis also try ordinary clauses",
    )
    parser.add_argument(
        "--budget", type=int, default=None, metavar="N", help="abort after N resolution steps"
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="print the declarative-semantics report for the loaded program",
    )
    # These errors are reported like any other; argparse.error would raise
    # SystemExit, which escapes callers that run main in-process. argparse
    # reads an attached "--" value, as in --bud=-- or -q--, as [] up to
    # Python 3.12 and as "--" from 3.13, so such values are found first.
    argv = sys.argv[1:] if argv is None else argv
    for arg in argv[:argv.index("--")] if "--" in argv else argv:
        flags = [flag for flag in ("--query", "--mode", "--revisit-limit", "--budget") if flag.startswith(arg[:-3])]
        if arg in ("-q--", "-q=--") or arg.endswith("=--") and len(flags) == 1:
            print(f"cologic: {flags[0] if arg[:2] != '-q' else '--query'} needs a value, not '--'", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    for flag, value, least in (("--revisit-limit", args.revisit_limit, 1), ("--budget", args.budget, 0)):
        if isinstance(value, int) and value < least:
            print(f"cologic: {flag} must be >= {least}", file=sys.stderr)
            return 2
    config = EngineConfig(
        mode=args.mode,
        lfp_revisit_limit=args.revisit_limit,
        hyp_cut=not args.no_hyp_cut,
        step_budget=args.budget,
    )
    if args.query or args.oracle:
        return run_file(args.file, args.query, config, args.all, args.oracle)
    return repl_loop(args.file, config)


if __name__ == "__main__":
    raise SystemExit(main())
