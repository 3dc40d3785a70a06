"""Command-line driver: output formats, exit codes, the REPL protocol."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cologic
from cologic import Answer, Compound, EngineConfig, Int, Var
from cologic.cli import format_answer, main, oracle_report, run_file
from cologic.engine import MODES
from helpers import PQ_EXAMPLE, RUNNING_EXAMPLE

MAX_QUERY = "?- L = [1,2|L], max(L, M)."


@pytest.fixture()
def running_path(tmp_path):
    path = tmp_path / "running.colp"
    path.write_text(RUNNING_EXAMPLE)
    return str(path)


@pytest.fixture()
def pq_path(tmp_path):
    path = tmp_path / "pq.colp"
    path.write_text(PQ_EXAMPLE)
    return str(path)


@pytest.fixture()
def not_utf8_path(tmp_path):
    path = tmp_path / "bad.colp"
    path.write_bytes(b"\xff\xfe p(a).\n")
    return str(path)


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the command line in a subprocess, so that stderr is what a user would see."""
    src = str(Path(cologic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "cologic", *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_format_answer_examples():
    cyclic = Answer(
        equations=[("L", Compound(".", (Int(1), Compound(".", (Int(2), Var(0)))))), ("M", Int(2))],
        names={0: "L"},
    )
    assert format_answer(cyclic) == "L = [1, 2|L]\nM = 2"
    unbound = Answer(equations=[("X", Var(3))], names={3: "X"})
    assert format_answer(unbound) == "X = _"
    empty = Answer(equations=[])
    assert format_answer(empty) == "true."
    cycle = Answer(
        equations=[("X", Compound("f", (Var(1),))), ("Y", Compound("g", (Var(0),)))],
        names={0: "X", 1: "Y"},
    )
    assert format_answer(cycle) == "X = f(Y)\nY = g(X)"


def test_run_file_max_query_golden(running_path, capsys):
    code = main([running_path, "--query", MAX_QUERY])
    out = capsys.readouterr().out
    assert out == "L = [1, 2|L]\nM = 2\n"
    assert code == 0


def test_run_file_no_answer(running_path, capsys):
    code = main([running_path, "--query", "?- L = [1,2|L], member(3, L)."])
    assert capsys.readouterr().out == "false.\n"
    assert code == 1


def test_run_file_coinductive_mode(running_path, capsys):
    code = main(
        [running_path, "--mode", "coinductive", "--query", "?- L = [1,2|L], member(3, L)."]
    )
    out = capsys.readouterr().out
    assert out == "L = [1, 2|L]\n"
    assert code == 0


def test_run_file_all_answers_separated(running_path, capsys):
    code = main([running_path, "--all", "--query", MAX_QUERY])
    out = capsys.readouterr().out
    blocks = out.strip().split("\n;\n")
    assert len(blocks) >= 1
    assert all(b == "L = [1, 2|L]\nM = 2" for b in blocks)
    assert code == 0


def test_run_file_deterministic_output(running_path, capsys):
    main([running_path, "--all", "--query", MAX_QUERY, "--query", "?- true."])
    first = capsys.readouterr().out
    main([running_path, "--all", "--query", MAX_QUERY, "--query", "?- true."])
    assert capsys.readouterr().out == first


def test_run_file_true_prints_true(running_path, capsys):
    code = main([running_path, "--query", "?- true."])
    assert capsys.readouterr().out == "true.\n"
    assert code == 0


def test_oracle_report_pq_golden(pq_path, capsys):
    code = main([pq_path, "--oracle"])
    out = capsys.readouterr().out
    assert out == (
        "Ind(P⊔C) = {p(0)}\n"
        "CoInd(P) = {p(0), p(1)}\n"
        "Gen(P,C) = {}\n"
    )
    assert code == 0


def test_oracle_report_non_datalog_errors(running_path, capsys):
    code = main([running_path, "--oracle"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle" in captured.err
    assert code == 2


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.colp"
    bad.write_text("p( .")
    code = main([str(bad), "--query", "?- p(0)."])
    captured = capsys.readouterr()
    assert str(bad) in captured.err
    assert code == 2


def test_missing_file_exit_2(capsys):
    code = main(["/nonexistent/prog.colp", "--query", "?- true."])
    assert code == 2
    assert capsys.readouterr().err


def test_not_utf8_file_exit_2_without_traceback(not_utf8_path):
    run = _run_cli(not_utf8_path, "--query", "?- p(a).")
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == [
        f"cologic: {not_utf8_path}: not UTF-8 text (invalid start byte at byte 0)"]
    assert run.stdout == ""


def test_instantiation_error_exit_2(running_path, capsys):
    code = main(
        [running_path, "--mode", "inductive", "--query", "?- all_pos(L), L = [1|L]."]
    )
    captured = capsys.readouterr()
    assert "arithmetic" in captured.err
    assert code == 2


def test_budget_exhaustion_exit_2(tmp_path, capsys):
    path = tmp_path / "loop.colp"
    path.write_text("p :- p.")
    code = main([str(path), "--no-hyp-cut", "--budget", "300", "--query", "?- p."])
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert code == 2


def test_query_without_file_fails_politely(capsys):
    code = main(["--query", "?- ghost(1)."])
    assert capsys.readouterr().out == "false.\n"
    assert code == 1


def test_bad_query_reports_error_and_later_queries_still_run(running_path, capsys):
    code = main([running_path, "--query", "?- p(", "--query", "?- true."])
    captured = capsys.readouterr()
    assert code == 2
    assert "true." in captured.out
    assert captured.err


def _run_repl(monkeypatch, capsys, lines, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(argv)
    return code, capsys.readouterr()


def test_flag_defaults_are_the_engine_defaults(monkeypatch):
    handed = []

    def capture(path, queries, config, *rest):
        handed.append(config)
        return 0

    monkeypatch.setattr(cologic.cli, "run_file", capture)
    assert main(["--query", "?- true."]) == 0
    assert handed == [EngineConfig()]


BAD_CONFIG_FLAGS = [("--revisit-limit", "0"), ("--revisit-limit", "-1"), ("--budget", "-1")]


@pytest.mark.parametrize("flags", BAD_CONFIG_FLAGS)
def test_bad_config_value_exit_2(running_path, capsys, flags):
    code = main([running_path, *flags, "--query", "?- true."])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"cologic: {flags[0]} must be >= ")


@pytest.mark.parametrize("flags", BAD_CONFIG_FLAGS)
def test_repl_bad_config_value_exit_2(running_path, monkeypatch, capsys, flags):
    code, captured = _run_repl(monkeypatch, capsys, ["?- true.", ":quit"], [running_path, *flags])
    assert code == 2
    assert "true." not in captured.out
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"cologic: {flags[0]} must be >= ")


# argparse reads an option's attached "--" value as an empty list up to
# Python 3.12 and as "--" from 3.13; main finds it before parsing.
DASHES_VALUES = {"--query=--": "--query", "-q--": "--query", "--mode=--": "--mode",
                 "--budget=--": "--budget", "--revisit-limit=--": "--revisit-limit"}


@pytest.mark.parametrize("arg", sorted(DASHES_VALUES))
def test_attached_dashes_value_exit_2_one_line(running_path, arg):
    run = _run_cli(running_path, arg, "--query", "?- true.")
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == [f"cologic: {DASHES_VALUES[arg]} needs a value, not '--'"]
    assert run.stdout == ""


@pytest.mark.parametrize("arg, flag", sorted({**DASHES_VALUES, "--bud=--": "--budget", "-q=--": "--query"}.items()))
def test_attached_dashes_value_returns_2_in_process(running_path, capsys, arg, flag):
    # On Python 3.13 argparse would exit through SystemExit, or run "--" as a query.
    assert main([running_path, arg, "--query", "?- true."]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"cologic: {flag} needs a value, not '--'"]
    assert captured.out == ""


def test_repl_query_and_quit(running_path, monkeypatch, capsys):
    code, captured = _run_repl(
        monkeypatch, capsys, [MAX_QUERY, "", ":quit"], [running_path]
    )
    assert code == 0
    assert "L = [1, 2|L]\nM = 2" in captured.out


def test_repl_semicolon_requests_more(running_path, monkeypatch, capsys):
    # three duplicate answers, then exhaustion prints false.
    lines = [MAX_QUERY, ";", ";", ";", ":quit"]
    code, captured = _run_repl(monkeypatch, capsys, lines, [running_path])
    assert code == 0
    assert captured.out.count("M = 2") == 3
    assert "false." in captured.out


def test_repl_failure_prints_false(running_path, monkeypatch, capsys):
    code, captured = _run_repl(
        monkeypatch, capsys, ["?- L = [1,2|L], member(3, L).", ":quit"], [running_path]
    )
    assert "false." in captured.out


def test_repl_mode_meta_command(running_path, monkeypatch, capsys):
    lines = [
        ":mode inductive",
        "?- L = [1|L], all_pos(L).",
        ":mode cofacts",
        "?- L = [1|L], all_pos(L).",
        "",
        ":quit",
    ]
    code, captured = _run_repl(monkeypatch, capsys, lines, [running_path])
    assert code == 0
    assert "false." in captured.out  # inductive run
    assert "L = [1|L]" in captured.out  # cofacts run


def test_repl_load_not_utf8_file_reported(not_utf8_path, monkeypatch, capsys):
    lines = [f":load {not_utf8_path}", "?- true.", ":quit"]
    code, captured = _run_repl(monkeypatch, capsys, lines, [])
    assert code == 0
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        f"cologic: {not_utf8_path}: not UTF-8 text (invalid start byte at byte 0)"]
    assert "true." in captured.out  # the session stays open


def test_repl_failed_load_keeps_the_program(running_path, not_utf8_path, tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing.colp"
    lines = [f":load {missing}", f":load {not_utf8_path}", MAX_QUERY, "", ":quit"]
    code, captured = _run_repl(monkeypatch, capsys, lines, [running_path])
    assert code == 0
    assert captured.err.splitlines() == [
        f"[Errno 2] No such file or directory: '{missing}'",
        f"cologic: {not_utf8_path}: not UTF-8 text (invalid start byte at byte 0)"]
    assert "L = [1, 2|L]\nM = 2" in captured.out  # answered from the running example


def test_repl_load_of_an_empty_program_replaces_the_program(running_path, tmp_path, monkeypatch, capsys):
    empty = tmp_path / "empty.colp"
    empty.write_text("", encoding="utf-8")
    lines = [f":load {empty}", MAX_QUERY, ":quit"]
    code, captured = _run_repl(monkeypatch, capsys, lines, [running_path])
    assert code == 0
    assert captured.err == ""
    assert "M = 2" not in captured.out
    assert "false." in captured.out  # max/2 is gone with the running example


def test_repl_oracle_meta_command(pq_path, monkeypatch, capsys):
    code, captured = _run_repl(monkeypatch, capsys, [":oracle", ":quit"], [pq_path])
    assert "Gen(P,C) = {}" in captured.out


def test_repl_load_then_mode_commutes(running_path, monkeypatch, capsys):
    query = "?- L = [1,2|L], member(3, L)."
    a = _run_repl(
        monkeypatch,
        capsys,
        [f":load {running_path}", ":mode coinductive", query, "", ":quit"],
        [],
    )[1].out
    b = _run_repl(
        monkeypatch,
        capsys,
        [":mode coinductive", f":load {running_path}", query, "", ":quit"],
        [],
    )[1].out
    assert a == b
    assert "L = [1, 2|L]" in a


def test_repl_recovers_from_errors(monkeypatch, capsys):
    lines = ["p(", ":mode bogus", ":nonsense", "?- q(1).", ":quit"]
    code, captured = _run_repl(monkeypatch, capsys, lines, [])
    assert code == 0
    assert "false." in captured.out  # the well-formed query still ran
    assert captured.err  # earlier errors reported


def test_repl_empty_line_reprompts(monkeypatch, capsys):
    code, captured = _run_repl(monkeypatch, capsys, ["", "", ":quit"], [])
    assert code == 0
    assert captured.out.count("?- ") >= 3


def test_run_file_multiple_queries_exit_codes(running_path):
    config = EngineConfig()
    assert run_file(running_path, ["?- true.", "?- fail."], config) == 1
    assert run_file(running_path, ["?- true."], config) == 0


def test_oracle_report_function(pq_path):
    from cologic import parse_program

    report = oracle_report(parse_program(PQ_EXAMPLE))
    assert report.splitlines() == [
        "Ind(P⊔C) = {p(0)}",
        "CoInd(P) = {p(0), p(1)}",
        "Gen(P,C) = {}",
    ]


def _deep_inputs() -> dict[str, tuple[str, str]]:
    """(query, printed answer) for inputs far deeper than Python's recursion limit."""
    long_list = "[" + ", ".join(str(i) for i in range(1, 1501)) + "]"
    list_10000 = "[" + ", ".join(str(i % 7) for i in range(10_000)) + "]"
    term_10000 = "f(" * 10_000 + "a" + ")" * 10_000
    nested_10000 = "[" * 10_000 + "]" * 10_000
    deep_term = "f(" * 1200 + "a" + ")" * 1200
    cycle = ", ".join(str(i) for i in range(1, 1001))
    return {
        "deep_term": (f"?- X = {deep_term}.", f"X = {deep_term}"),
        "long_list": (f"?- L = {long_list}.", f"L = {long_list}"),
        "list_10000": (f"?- L = {list_10000}.", f"L = {list_10000}"),
        "term_10000": (f"?- X = {term_10000}.", f"X = {term_10000}"),
        "nested_list_10000": (f"?- L = {nested_10000}.", f"L = {nested_10000}"),
        "sum_1500": ("?- X is " + "+".join(["1"] * 1500) + ".", "X = 1500"),
        "cycle_1000": (f"?- L = [{cycle}|L], max(L, M).", f"L = [{cycle}|L]\nM = 1000"),
    }


# Each nests far deeper than Python's default recursion limit of 1,000 in
# answer extraction, printing or arithmetic, which all keep their own stacks.
DEEP = _deep_inputs()


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_input_prints_answer_exit_0(running_path, name):
    query, answer = DEEP[name]
    run = _run_cli(running_path, "--query", query, "--query", "?- true.")  # at the default limit
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == answer + "\ntrue.\n"


@pytest.mark.parametrize("name", sorted(DEEP))
def test_repl_deep_input_prints_answer(running_path, monkeypatch, capsys, name):
    query, answer = DEEP[name]
    code, captured = _run_repl(monkeypatch, capsys, [query, "", "?- true.", ":quit"], [running_path])
    assert (code, captured.err) == (0, "")
    assert answer + "\n" in captured.out
    assert "true." in captured.out


@pytest.mark.parametrize("query", ["?- X = X + 1, Y is X.", "?- X = X + 1, X < 3."])
def test_cyclic_arithmetic_exit_2_one_line(running_path, query):
    run = _run_cli(running_path, "--query", query, "--query", "?- true.")
    assert run.returncode == 2
    assert run.stderr.splitlines() == ["cyclic term in arithmetic"]
    assert run.stdout == "true.\n"  # later queries still run


# Random command lines: program and query text from a small grammar or from
# noise, with every flag. A budget of at most 200 steps makes every run end.
_NOISE = "ap X01,.()[]|:-=<>%\n\t \\٣é"
_TERMS = st.recursive(
    st.sampled_from(["X", "Y", "L", "a", "b", "0", "1", "-2", "[]"]),
    lambda sub: st.one_of(st.builds("f({})".format, sub), st.builds("[{}|{}]".format, sub, sub),
                          st.builds("[{}, {}]".format, sub, sub), st.builds("{} + {}".format, sub, sub)),
    max_leaves=5,
)
_ATOMS = st.one_of(
    st.sampled_from(["true", "fail", "p"]),
    st.builds("p({})".format, _TERMS),
    st.builds("{}({}, {})".format, st.sampled_from(["q", "member", "max", "all_pos"]), _TERMS, _TERMS),
    st.builds("{} {} {}".format, _TERMS, st.sampled_from(["=", "\\=", "is", "<", "=:="]), _TERMS),
)
_BODIES = st.lists(_ATOMS, min_size=1, max_size=2).map(", ".join)
_PROGRAMS = st.one_of(
    st.lists(st.one_of(st.builds("{}.".format, _ATOMS), st.builds("{} :- {}.".format, _ATOMS, _BODIES),
                       st.builds("cofact({}).".format, _ATOMS)), max_size=6).map("\n".join),
    st.text(_NOISE, max_size=40),
    st.just(RUNNING_EXAMPLE),
)
_QUERIES = st.one_of(st.builds("?- {}.".format, _BODIES), st.text(_NOISE, max_size=30))
_FLAGS = st.tuples(
    st.builds("--mode={}".format, st.sampled_from(MODES)),
    st.builds("--budget={}".format, st.integers(0, 200)),
    st.lists(st.sampled_from(["--revisit-limit=1", "--revisit-limit=2", "--revisit-limit=3",
                              "--no-hyp-cut"]), max_size=2),
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(program=_PROGRAMS, queries=st.lists(_QUERIES, min_size=1, max_size=2), flags=_FLAGS,
       all_answers=st.booleans(), oracle=st.booleans())
# "--query=--", once alone and once after a query that would answer.
@example(program=RUNNING_EXAMPLE, queries=["--"], flags=("--mode=cofacts", "--budget=200", []),
         all_answers=False, oracle=False)
@example(program="p.", queries=["?- p.", "--"], flags=("--mode=inductive", "--budget=0", ["--no-hyp-cut"]),
         all_answers=True, oracle=True)
def test_random_command_lines_keep_the_error_contract(
    tmp_path, monkeypatch, capsys, program, queries, flags, all_answers, oracle
):
    path = tmp_path / "random.colp"
    path.write_text(program, encoding="utf-8")
    mode, budget, extra = flags
    argv = [str(path), mode, budget, *extra, *(f"--query={q}" for q in queries)]
    argv += ["--all"] * all_answers + ["--oracle"] * oracle
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    # The same texts as REPL input lines, answered with ";" to ask for more.
    lines = [line for q in queries for line in (q, ";")] + [":oracle"] * oracle
    code, captured = _run_repl(monkeypatch, capsys, lines, [str(path), mode, budget, *extra])
    assert code == 0
    assert "Traceback" not in captured.err
