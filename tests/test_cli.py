"""Command-line driver: output formats, exit codes, the REPL protocol."""

from __future__ import annotations

import io

import pytest

from cologic import Answer, Compound, Int, Var
from cologic.cli import CliConfig, format_answer, main, oracle_report, run_file
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


BAD_CONFIG_FLAGS = [("--revisit-limit", "0"), ("--revisit-limit", "-1"), ("--budget", "-1")]


@pytest.mark.parametrize("flags", BAD_CONFIG_FLAGS)
def test_bad_config_value_exit_2(running_path, capsys, flags):
    code = main([running_path, *flags, "--query", "?- true."])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags", BAD_CONFIG_FLAGS)
def test_repl_bad_config_value_exit_2(running_path, monkeypatch, capsys, flags):
    code, captured = _run_repl(monkeypatch, capsys, ["?- true.", ":quit"], [running_path, *flags])
    assert code == 2
    assert "true." not in captured.out
    assert len(captured.err.splitlines()) == 1


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
    cfg = CliConfig()
    assert run_file(running_path, ["?- true.", "?- fail."], cfg) == 1
    assert run_file(running_path, ["?- true."], cfg) == 0


def test_oracle_report_function(pq_path):
    from cologic import parse_program

    report = oracle_report(parse_program(PQ_EXAMPLE))
    assert report.splitlines() == [
        "Ind(P⊔C) = {p(0)}",
        "CoInd(P) = {p(0), p(1)}",
        "Gen(P,C) = {}",
    ]
