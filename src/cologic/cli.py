"""Command-line driver and interactive toplevel.

Usage::

    cologic program.colp --query "?- L = [1,2|L], max(L, M)."
    cologic program.colp --oracle
    cologic program.colp             # REPL

Answers print one ``Var = Term`` line per query variable (cyclic bindings
in back-reference form), ``true.`` for a variable-free success, and
``false.`` when a query has no answer. Exit status: 0 when every query
had at least one answer, 1 otherwise, 2 on any error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .engine import MODES, Answer, EngineConfig, solve
from .errors import CologicError, ParseError
from .oracle import coind_semantics, generated_semantics, ind_semantics, universe_for
from .parser import parse_program, parse_query
from .terms import Program, Var, render_atom, render_term


@dataclass
class CliConfig:
    mode: str = "cofacts"
    all_answers: bool = False
    revisit_limit: int = 2
    hyp_cut: bool = True
    step_budget: int | None = None
    oracle: bool = False

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            mode=self.mode,
            lfp_revisit_limit=self.revisit_limit,
            hyp_cut=self.hyp_cut,
            step_budget=self.step_budget,
        )


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


def _load_program(path: str) -> Program:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse_program(text, origin=path)


def run_file(path: str | None, queries: list[str], cfg: CliConfig) -> int:
    """Load a program, optionally print the oracle report, run the queries."""
    try:
        program = _load_program(path) if path else Program()
    except (OSError, ParseError) as exc:
        print(exc, file=sys.stderr)
        return 2
    had_error = False
    all_answered = True
    if cfg.oracle:
        try:
            print(oracle_report(program))
        except CologicError as exc:
            print(exc, file=sys.stderr)
            had_error = True
    engine_cfg = cfg.engine_config()
    for text in queries:
        try:
            query = parse_query(text)
            got_answer = False
            for i, answer in enumerate(solve(program, query, engine_cfg)):
                if i > 0:
                    print(";")
                print(format_answer(answer))
                got_answer = True
                if not cfg.all_answers:
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


def repl_loop(path: str | None = None, cfg: CliConfig | None = None) -> int:
    """Interactive session: queries, ``;`` for the next answer, ``:`` meta-commands."""
    cfg = cfg or CliConfig()
    program = Program()
    if path:
        try:
            program = _load_program(path)
        except (OSError, ParseError) as exc:
            print(exc, file=sys.stderr)
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
                    cfg.mode = argument
                else:
                    print(f"unknown mode {argument!r}", file=sys.stderr)
            elif command == ":load":
                try:
                    program = _load_program(argument)
                except (OSError, ParseError) as exc:
                    print(exc, file=sys.stderr)
            elif command == ":oracle":
                try:
                    print(oracle_report(program))
                except CologicError as exc:
                    print(exc, file=sys.stderr)
            else:
                print(f"unknown command {command!r}", file=sys.stderr)
            continue
        _repl_query(line, program, cfg)


def _repl_query(text: str, program: Program, cfg: CliConfig) -> None:
    try:
        query = parse_query(text, origin="<repl>")
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return
    try:
        answers = solve(program, query, cfg.engine_config())
        any_answer = False
        for answer in answers:
            any_answer = True
            print(format_answer(answer))
            try:
                more = input().strip()
            except EOFError:
                return
            if more != ";":
                return
        print("false.")
        if any_answer:
            return
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
        default="cofacts",
        help="semantics to resolve under (default: cofacts)",
    )
    parser.add_argument(
        "--all", action="store_true", help="enumerate every answer instead of the first"
    )
    parser.add_argument(
        "--revisit-limit",
        type=int,
        default=2,
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
    args = parser.parse_args(argv)
    cfg = CliConfig(
        mode=args.mode,
        all_answers=args.all,
        revisit_limit=args.revisit_limit,
        hyp_cut=not args.no_hyp_cut,
        step_budget=args.budget,
        oracle=args.oracle,
    )
    try:
        cfg.engine_config()
    except ValueError as exc:
        # Reported like any other error; argparse.error would raise
        # SystemExit, which escapes callers that run main in-process.
        print(f"cologic: {exc}", file=sys.stderr)
        return 2
    if args.query or args.oracle:
        return run_file(args.file, args.query, cfg)
    return repl_loop(args.file, cfg)


if __name__ == "__main__":
    raise SystemExit(main())
