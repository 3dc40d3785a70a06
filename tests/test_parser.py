"""Surface syntax: program/query parsing, errors with positions, round-trips."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cologic import (
    Atom,
    Clause,
    Compound,
    Int,
    ParseError,
    Query,
    Var,
    list_term,
    parse_program,
    parse_query,
    render_program,
    render_term,
)
from cologic import parser
from cologic.parser import _error, _tokenize
from cologic.terms import max_var_id
from corpus import random_datalog_program
from helpers import (
    PQ_EXAMPLE,
    RUNNING_EXAMPLE,
    alpha_equal_clause,
    alpha_equal_program,
    reference_line_column,
    reference_tokenize,
    term_vars,
)


def test_running_example_counts():
    program = parse_program(RUNNING_EXAMPLE)
    assert len(program.clauses) == 6
    assert len(program.cofacts) == 2
    assert sum(c.is_fact for c in program.clauses) == 3
    assert [a.predicate for a in program.cofacts] == ["all_pos", "max"]
    # cofact(max([N|_], N)) keeps the shared N and a fresh anonymous var
    max_cofact = program.cofacts[1]
    head_list = max_cofact.args[0]
    assert isinstance(head_list, Compound) and head_list.functor == "."
    assert head_list.args[0] == max_cofact.args[1]


def test_pq_example_counts():
    program = parse_program(PQ_EXAMPLE)
    assert len(program.clauses) == 2
    assert len(program.cofacts) == 1
    assert program.cofacts[0] == Atom("p", (Int(0),))


def test_empty_program():
    program = parse_program("")
    assert program.clauses == () and program.cofacts == ()
    assert parse_program("% only a comment\n").clauses == ()


def test_list_desugaring():
    clause = parse_program("p([1, 2|T]).").clauses[0]
    arg = clause.head.args[0]
    tid = next(iter(term_vars(clause)))
    assert arg == Compound(".", (Int(1), Compound(".", (Int(2), Var(tid)))))
    nil = parse_program("p([]).").clauses[0].head.args[0]
    assert nil == Compound("[]")


def test_variables_standardized_apart_across_clauses():
    program = parse_program("p(X) :- q(X).  r(X).")
    first = term_vars(program.clauses[0])
    second = term_vars(program.clauses[1])
    assert not (first & second)
    assert program.var_names[next(iter(first))] == "X"


def test_anonymous_variable_fresh_per_occurrence():
    clause = parse_program("p(_, _).").clauses[0]
    a, b = clause.head.args
    assert isinstance(a, Var) and isinstance(b, Var) and a != b


def test_query_vars_and_order():
    query = parse_query("?- L = [1,2|L], max(L, M).")
    assert len(query.goal.atoms) == 2
    assert list(query.var_names.values()) == ["L", "M"]
    eq = query.goal.atoms[0]
    assert eq.predicate == "="


def test_query_true_erased():
    assert parse_query("?- true.").goal.atoms == ()
    q = parse_query("?- member(3, L).")
    assert len(q.goal.atoms) == 1
    assert list(q.var_names.values()) == ["L"]


def test_query_optional_decorations():
    assert parse_query("p(0)").goal.atoms == parse_query("?- p(0).").goal.atoms


def test_infix_and_arithmetic_shapes():
    clause = parse_program("p(M) :- M is 1 + 2 * 3, M > 0.").clauses[0]
    is_atom, gt_atom = clause.body
    assert is_atom.predicate == "is"
    assert is_atom.args[1] == Compound("+", (Int(1), Compound("*", (Int(2), Int(3)))))
    assert gt_atom.predicate == ">"
    neg = parse_program("p(-3).").clauses[0].head.args[0]
    assert neg == Int(-3)
    sub = parse_program("p(X) :- X is 5 - 2 - 1.").clauses[0].body[0]
    assert sub.args[1] == Compound("-", (Compound("-", (Int(5), Int(2))), Int(1)))


def test_cofact_wrapper_rejections():
    with pytest.raises(ParseError, match="body"):
        parse_program("cofact(p(0)) :- q(0).")
    with pytest.raises(ParseError, match="one atom"):
        parse_program("cofact(p(0), q(0)).")
    with pytest.raises(ParseError, match="atom"):
        parse_program("cofact(3).")
    with pytest.raises(ParseError, match="atom"):
        parse_program("cofact(X).")


def test_error_positions_point_into_offending_token():
    with pytest.raises(ParseError) as err:
        parse_program("p(a) :-\n  q(a)  r(a).")
    assert err.value.line == 2 and err.value.column == 9

    with pytest.raises(ParseError) as err:
        parse_program("p(a# comment-ish).")
    assert err.value.line == 1 and err.value.column == 4

    with pytest.raises(ParseError) as err:
        parse_query("?- p(a), .")
    assert err.value.line == 1


def test_parse_error_mentions_origin():
    with pytest.raises(ParseError, match="myfile.colp:1:3"):
        parse_program("p(&).", origin="myfile.colp")


def test_bare_term_is_not_an_atom():
    with pytest.raises(ParseError, match="predicate atom"):
        parse_program("42.")
    with pytest.raises(ParseError):
        parse_query("?- X.")


def test_multiple_entries_one_line_and_comments():
    program = parse_program("p(0).p(1). % trailing\nq(2).")
    assert len(program.clauses) == 3


def test_round_trip_running_example():
    program = parse_program(RUNNING_EXAMPLE)
    again = parse_program(render_program(program))
    assert alpha_equal_program(program, again)


def test_round_trip_pq():
    program = parse_program(PQ_EXAMPLE)
    assert alpha_equal_program(program, parse_program(render_program(program)))


def test_round_trip_arithmetic_bodies():
    text = "p(M, T) :- T = [1|T], M is max(3, 2 - -1), M =< 4, M =:= 4 - 1, M =\\= 5."
    program = parse_program(text)
    assert alpha_equal_program(program, parse_program(render_program(program)))


def test_round_trip_random_corpus():
    rng = random.Random(7)
    for _ in range(30):
        program = random_datalog_program(rng)
        assert alpha_equal_program(program, parse_program(render_program(program)))


def test_tokenizer_never_crashes_on_noise():
    # Arbitrary input either parses or raises ParseError with a position.
    rng = random.Random(13)
    alphabet = "ap X01,.()[]|:-=<>%\n\t \\²½٣é"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        try:
            parse_program(text)
        except ParseError as err:
            assert err.line >= 1 and err.column >= 1


# Every first-character class the tokenizer tells apart: ASCII letters,
# digits and marks, a mark that is no token ('?'), digits that are not
# decimal ('²', '½'), an uppercase letter-like numeral ('Ⅻ'), a decimal
# digit outside ASCII ('٣'), a lowercase letter outside ASCII ('é') and
# blanks that are no separator ('\x0b', '\xa0').
TOKEN_ALPHABET = "ap X_01,.()[]|:-=<>+*/%\n\t \\?²½Ⅻ٣é\x0b\xa0"


@settings(max_examples=400)
@given(st.text(TOKEN_ALPHABET, max_size=30))
def test_tokenizer_matches_the_reference(text):
    try:
        expected = reference_tokenize(text, "<t>")
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _tokenize(text, "<t>")
        assert (got.value.message, got.value.line, got.value.column) == (err.message, err.line, err.column)
        return
    assert _tokenize(text, "<t>") == [(kind, word) for kind, word, _ in expected]
    # Offsets are found again only for an error: each token's must be the reference's.
    for index, (_, _, offset) in enumerate(expected):
        err = _error("m", text, index, "<t>")
        assert (err.line, err.column) == reference_line_column(text, offset)
    try:
        query = parse_query(text)
    except ParseError:
        return
    assert query.next_var_id == max_var_id(query.goal) + 1


_QUERY_ARGS = st.sampled_from(["X", "Y", "_", "_Z", "1", "a", "f(X, _)", "[X|_]", "Y + 2"])


@given(st.lists(st.tuples(st.sampled_from(["p", "q", "true"]), st.lists(_QUERY_ARGS, max_size=3)),
                max_size=4))
def test_parsed_query_knows_its_next_variable_id(atoms):
    text = "?- " + ", ".join(name + (f"({', '.join(args)})" if args else "") for name, args in atoms) + "."
    query = parse_query(text)
    assert query.next_var_id == max_var_id(query.goal) + 1
    assert all(not (a.predicate == "true" and not a.args) for a in query.goal.atoms)


def test_parsed_query_repr_and_equality_leave_out_the_next_id():
    query = parse_query("?- p(X, _).")
    assert query.next_var_id == 2
    assert repr(query) == (
        "Query(goal=Goal(atoms=(Atom(predicate='p', args=(Var(id=0), Var(id=1))),)), var_names={0: 'X'})")
    assert query == Query(query.goal, {0: "X"})


class _CountingPattern:
    """Wraps the token pattern, recording which scan each call makes."""

    def __init__(self, pattern):
        self.pattern, self.scans = pattern, []

    def findall(self, text):
        self.scans.append("findall")
        return self.pattern.findall(text)

    def finditer(self, text):
        self.scans.append("finditer")
        return self.pattern.finditer(text)


def test_tokenizer_scans_once_and_finds_offsets_only_for_an_error(monkeypatch):
    counting = _CountingPattern(parser._TOKEN)
    monkeypatch.setattr(parser, "_TOKEN", counting)
    parse_query("?- p(X, [1, f(a)|Y]), X is Y + 2.")
    parse_program("p(X) :- q(X, [1]).\nq(_, _).")
    assert counting.scans == ["findall", "findall"]
    counting.scans.clear()
    with pytest.raises(ParseError) as err:
        parse_query("?- p(X, .")
    assert (err.value.line, err.value.column) == (1, 9)
    assert counting.scans == ["findall", "finditer"]


def test_error_position_inside_long_token():
    source = "p(abc" + "d" * 10 + ").\nq(1) :- 123abc."
    # '123abc' lexes as INT NAME; the malformed atom is reported at the INT
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert err.value.line == 2
    assert 9 <= err.value.column <= 11


def test_only_decimal_digits_are_integers():
    # '²' is a digit to str.isdigit but not to int(); '٣' is a decimal digit.
    with pytest.raises(ParseError) as err:
        parse_program("p(²).")
    assert (err.value.message, err.value.line, err.value.column) == ("unexpected character '²'", 1, 3)
    assert parse_program("p(٣).").clauses[0].head == Atom("p", (Int(3),))
    # The whole text is tokenized first, so '²' is reported before the syntax error at '.'.
    with pytest.raises(ParseError) as err:
        parse_program("p(. ²")
    assert (err.value.message, err.value.line, err.value.column) == ("unexpected character '²'", 1, 5)


def test_oversized_integer_literal_is_a_parse_error():
    digits = "9" * 5000  # past Python's default int-to-string limit of 4,300 digits
    with pytest.raises(ParseError, match="integer literal too long") as err:
        parse_query(f"?- X = {digits}.")
    assert (err.value.line, err.value.column) == (1, 8)
    with pytest.raises(ParseError, match="integer literal too long"):
        parse_program(f"p(-{digits}).")


# Deeper than Python's default recursion limit of 1,000.
DEPTH = 10_000


def _query_arg(text: str):
    return parse_query(f"?- X = {text}.").goal.atoms[0].args[1]


def test_deep_nesting_parses():
    assert sys.getrecursionlimit() < DEPTH
    # Walked in loops: repr on these terms would recurse itself.
    term = _query_arg("f(" * DEPTH + "a" + ")" * DEPTH)
    for _ in range(DEPTH):
        assert term.functor == "f" and len(term.args) == 1
        term = term.args[0]
    assert term == Compound("a")

    assert _query_arg("(" * DEPTH + "a" + ")" * DEPTH) == Compound("a")

    term = _query_arg("[" * DEPTH + "]" * DEPTH)  # the innermost [] is nil
    for _ in range(DEPTH - 1):
        assert term.functor == "." and term.args[1] == Compound("[]")
        term = term.args[0]
    assert term == Compound("[]")


def test_long_list_and_long_sum_parse():
    term = _query_arg("[" + ", ".join(["1"] * DEPTH) + "]")
    for _ in range(DEPTH):
        assert term.functor == "." and term.args[0] == Int(1)
        term = term.args[1]
    assert term == Compound("[]")

    term = _query_arg("+".join(["1"] * DEPTH))  # left associative: ((1+1)+1)+...
    for _ in range(DEPTH - 1):
        assert term.functor == "+" and term.args[1] == Int(1)
        term = term.args[0]
    assert term == Int(1)


_LEAVES = st.one_of(
    st.integers(-30, 30).map(Int),
    st.integers(0, 3).map(Var),
    st.sampled_from(["a", "b", "[]"]).map(Compound),
)


def _compound_terms(children):
    args = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        st.builds(lambda f, xs: Compound(f, tuple(xs)), st.sampled_from(["f", "g"]), args),
        args.map(list_term),
        st.builds(list_term, args, children),
        st.builds(lambda op, x, y: Compound(op, (x, y)), st.sampled_from(["+", "-", "*", "//"]), children, children),
    )


# Covers every frame kind of the term reader: a call holding a list with a
# tail, a parenthesized operation and a list without one.
@example(Compound("f", (list_term([Int(-1)], Var(0)), Compound("-", (Var(0), Int(-2))), list_term([Int(3)]))))
@given(st.recursive(_LEAVES, _compound_terms, max_leaves=12))
def test_render_then_parse_round_trips(term):
    # Unnamed variables render as _G<id>, which reads back as a named variable.
    parsed = parse_program(f"t({render_term(term)}).").clauses[0]
    assert alpha_equal_clause(parsed, Clause(Atom("t", (term,))))
