"""Term layer: the term classes, renaming, variable collection, substitution, rendering."""

from __future__ import annotations

import copy
import os
import pickle
import re
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cologic import (
    Atom,
    Clause,
    CologicError,
    Compound,
    Goal,
    GroundUniverse,
    Int,
    Term,
    Var,
    list_term,
    parse_program,
    parse_query,
    render_term,
    solve,
)
from cologic import engine
from cologic import terms as term_module
from cologic.oracle import ground_instances
from cologic.terms import (
    VarSource,
    fresh_rename,
    key_excludes,
    lookup_key,
    max_var_id,
    with_universal_cofacts,
)
from cologic.cli import format_answer, main, oracle_report
from helpers import (
    RUNNING_EXAMPLE,
    alpha_equal_clause,
    canon_clause,
    reference_rename,
    reference_render_term,
    substitute,
    term_vars,
)


def test_fresh_rename_single_variable_forced():
    # p(X) :- q(X) with the counter at 7 must become p(V7) :- q(V7).
    clause = Clause(Atom("p", (Var(0),)), (Atom("q", (Var(0),)),))
    renamed = fresh_rename(clause, VarSource(7))
    assert renamed == Clause(Atom("p", (Var(7),)), (Atom("q", (Var(7),)),))


def test_fresh_rename_ground_fact_unchanged():
    fact = Clause(Atom("p", (Compound("a"),)))
    assert fresh_rename(fact, VarSource(99)) == fact


def test_fresh_rename_max_clause_alpha_equivalent():
    program = parse_program("max([N|L], M2) :- max(L, M), M2 is max(N, M).")
    clause = program.clauses[0]
    source = VarSource(50)
    renamed = fresh_rename(clause, source)
    new_vars = term_vars(renamed)
    assert len(new_vars) == 4
    assert new_vars == {50, 51, 52, 53}
    assert alpha_equal_clause(clause, renamed)
    assert renamed != clause


terms = st.recursive(
    st.integers(-9, 9).map(Int) | st.integers(0, 3).map(Var),
    lambda sub: st.builds(
        Compound,
        st.sampled_from(["f", "g", "h", "."]),
        st.lists(sub, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=10,
)


@given(terms, terms)
def test_fresh_rename_preserves_skeleton_and_is_injective(t1, t2):
    clause = Clause(Atom("p", (t1,)), (Atom("q", (t2,)),))
    renamed = fresh_rename(clause, VarSource(100))
    assert alpha_equal_clause(clause, renamed)
    # injective on variables: same number of distinct variables
    assert len(term_vars(renamed)) == len(term_vars(clause))


def _is_ground(t) -> bool:
    return not term_vars(t)


# Lists of at least 17 cells ending in a variable: each cell costs two
# operations, so a clause holding one has a postfix program longer than the
# inline limit, and _build runs it instead of a compiled maker.
long_terms = st.builds(
    lambda items, tail: list_term(items, Var(tail)),
    st.lists(terms, min_size=17, max_size=24),
    st.integers(0, 3),
)


def test_long_terms_exceed_the_inline_limit():
    _, make, program, _ = term_module._maker_of(Clause(Atom("p", (list_term([Int(0)] * 17, Var(0)),))))
    assert make is term_module._build
    assert len(program) > term_module._INLINE_LIMIT


# Body atoms over small terms, ground ones included; 0-12 of them put the
# test's clauses on both sides of the inline limit.
extra_atoms = st.lists(
    st.builds(lambda p, args: Atom(p, tuple(args)), st.sampled_from(["q", "t"]), st.lists(terms, max_size=3)),
    max_size=12,
)


@given(terms | long_terms, terms | long_terms, terms | long_terms, extra_atoms)
def test_fresh_rename_equals_the_recursive_reference(t1, t2, t3, extra):
    clause = Clause(
        Atom("p", (t1, t2)),
        (Atom("q", (t2, Compound("g", (t3, Int(0))))), Atom("r", (t3,)), Atom("s", (t1, t3)), *extra),
    )
    source, reference_source = VarSource(100), VarSource(100)
    renamed = fresh_rename(clause, source)
    assert renamed == reference_rename(clause, reference_source)  # variable ids included
    assert source.next_id == reference_source.next_id
    # Every ground subterm comes back as the same object.
    pairs = [(a, b) for x, y in zip((clause.head, *clause.body), (renamed.head, *renamed.body))
             for a, b in zip(x.args, y.args)]
    while pairs:
        original, copy = pairs.pop()
        if _is_ground(original):
            assert copy is original
        elif isinstance(original, Compound):
            pairs.extend(zip(original.args, copy.args))
    # Every ground body atom comes back as the same object.
    for original, copy in zip(clause.body, renamed.body):
        if _is_ground(original):
            assert copy is original
    # No maker inlines more than the limit: each operation of a program
    # emits exactly one `v[` or `c[` into the maker's source.
    for source in term_module._MAKERS:
        assert len(re.findall(r"\b[vc]\[", source)) <= term_module._INLINE_LIMIT, source


def test_a_ground_clause_record_has_no_slots():
    clause = parse_program("p(1, a) :- q(a), r.").clauses[0]
    n, make, program, pattern = term_module._maker_of(clause)
    assert (n, make, program) == (0, term_module._build, (clause.head, *clause.body))
    assert pattern == (1, ("a", 0))
    source = VarSource(5)
    assert fresh_rename(clause, source) is clause
    key = lookup_key(Atom("p", (Int(1), Compound("b"))), lambda t: t)
    assert key_excludes(key, clause, source)
    assert source.next_id == 5
    assert ground_instances([clause], GroundUniverse((Int(1), Compound("a")))) == {clause}


def test_fresh_rename_shares_ground_parts():
    clause = parse_program("p(f(a, 1), X) :- q(g(b), [X|T]), r(1).").clauses[0]
    source = VarSource(40)
    renamed = fresh_rename(clause, source)
    assert renamed == reference_rename(clause, VarSource(40))
    assert renamed.head.args[0] is clause.head.args[0]
    assert renamed.body[0].args[0] is clause.body[0].args[0]
    assert renamed.body[1] is clause.body[1]  # a ground atom
    assert source.next_id == 42
    fact = parse_program("big([1, 2, 3], f(a)).").clauses[0]
    assert fresh_rename(fact, source) is fact
    assert source.next_id == 42


def test_fresh_rename_at_any_depth():
    # Built and instantiated with explicit stacks: 10,000 levels need no recursion.
    depth = 10_000
    term = Var(0)
    for _ in range(depth):
        term = Compound("f", (term,))
    clause = Clause(Atom("p", (term, Var(1))), (Atom("q", (Var(0),)),))
    renamed = fresh_rename(clause, VarSource(5))
    node = renamed.head.args[0]
    for _ in range(depth):
        assert node.functor == "f"
        (node,) = node.args
    assert node == Var(5)
    assert renamed.head.args[1] == Var(6) and renamed.body[0].args == (Var(5),)


def test_fresh_rename_disjoint_across_uses():
    clause = parse_program("p(X, Y) :- q(Y, Z).").clauses[0]
    source = VarSource(10)
    seen: set[int] = set()
    for _ in range(5):
        got = term_vars(fresh_rename(clause, source))
        assert not (got & seen)
        seen |= got


def test_renamings_take_their_variables_from_one_shared_table():
    clause = parse_program("p(X, Y) :- q(Y).").clauses[0]
    first, second = fresh_rename(clause, VarSource(40)), fresh_rename(clause, VarSource(40))
    assert first.head.args == (Var(40), Var(41))
    assert all(a is b for a, b in zip(first.head.args, second.head.args))
    assert VarSource(7).fresh() is VarSource(7).fresh() == Var(7)
    # Ids at or above the table's limit are built per use, equal by id.
    limit = term_module._VAR_TABLE_LIMIT
    assert fresh_rename(clause, VarSource(limit - 1)).head.args == (Var(limit - 1), Var(limit))
    assert len(term_module._var_table) <= limit


def test_threads_growing_the_variable_table_keep_entry_i_at_id_i(monkeypatch):
    # Threads that grow the shared table at once each publish a whole
    # table; whichever wins, every entry i is Var(i).
    monkeypatch.setattr(term_module, "_var_table", ())
    clause = parse_program("p(X, Y, Z) :- q(Z).").clauses[0]
    wrong = []

    def rename_upwards(offset: int) -> None:
        for first in range(offset, term_module._VAR_TABLE_LIMIT, 97):
            ids = [v.id for v in fresh_rename(clause, VarSource(first)).head.args]
            if ids != [first, first + 1, first + 2]:
                wrong.append((first, ids))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rename_upwards, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    table = term_module._var_table
    assert len(table) > 64 and all(v.id == i for i, v in enumerate(table))


def test_term_vars_examples():
    x, y = Var(0), Var(1)
    assert term_vars(Compound("f", (x, Compound("g", (y, x))))) == {0, 1}
    assert term_vars(Int(42)) == set()
    n, l = Var(2), Var(3)
    assert term_vars(Compound(".", (n, l))) == {2, 3}


def test_substitute_clause():
    clause = parse_program("p(X) :- q(X, Y).").clauses[0]
    xid, yid = sorted(term_vars(clause))
    ground = substitute(clause, {xid: Int(0), yid: Int(1)})
    assert ground == Clause(Atom("p", (Int(0),)), (Atom("q", (Int(0), Int(1))),))


def test_max_var_id():
    assert max_var_id(Int(3)) == -1
    assert max_var_id(Compound("f", (Var(4), Var(2)))) == 4
    program = parse_program("p(X) :- q(X).  cofact(r(_)).")
    assert max_var_id(*program.clauses, *program.cofacts) == max(
        max(term_vars(program.clauses[0])), max(term_vars(program.cofacts[0]))
    )
    assert program.next_var_id == max_var_id(*program.clauses, *program.cofacts) + 1


numbered_terms = st.recursive(
    st.integers(-9, 9).map(Int) | st.integers(0, 60).map(Var) | st.just(Compound("a")),
    lambda sub: st.builds(
        Compound, st.sampled_from(["f", "."]), st.lists(sub, min_size=1, max_size=3).map(tuple)
    ),
    max_leaves=8,
)
numbered_atoms = st.builds(Atom, st.sampled_from(["p", "q"]), st.lists(numbered_terms, max_size=3).map(tuple))


@given(st.lists(
    numbered_terms
    | numbered_atoms
    | st.builds(Clause, numbered_atoms, st.lists(numbered_atoms, max_size=3).map(tuple))
    | st.builds(Goal, st.lists(numbered_atoms, max_size=3).map(tuple)),
    max_size=4,
))
def test_max_var_id_is_the_largest_collected_id(items):
    # Variable-free items (Int leaves, the constant a, atoms without
    # arguments, the empty goal) come up too, alone or among others.
    assert max_var_id(*items) == max((v for x in items for v in term_vars(x)), default=-1)


def test_with_universal_cofacts():
    program = parse_program("p(X) :- q(X, 0), X > 0.  cofact(p(1)).")
    extended = with_universal_cofacts(program)
    added = extended.cofacts[len(program.cofacts):]
    # The engine evaluates X > 0 without clauses, so >/2 gets no co-fact.
    assert (">", 2) in program.predicates()
    assert [(a.predicate, a.arity) for a in added] == [("p", 1), ("q", 2)]
    for a in added:
        vs = term_vars(a)
        assert len(vs) == a.arity  # all-distinct variable arguments
        assert all(v >= program.next_var_id for v in vs)
    # original clauses and cofacts untouched, appended after
    assert extended.clauses == program.clauses
    assert extended.cofacts[: len(program.cofacts)] == program.cofacts


def test_list_sugar_rendering():
    assert render_term(list_term([Int(1), Int(2)])) == "[1, 2]"
    assert render_term(list_term([Int(1), Int(2)], tail=Var(9)), {9: "T"}) == "[1, 2|T]"
    assert render_term(Compound("[]")) == "[]"
    assert render_term(Compound("+", (Int(1), Int(2)))) == "(1+2)"


printed_terms = st.recursive(
    st.integers(-9, 9).map(Int) | st.integers(0, 3).map(Var) | st.sampled_from(["[]", "a"]).map(Compound),
    lambda sub: st.builds(
        Compound,
        st.sampled_from([".", "+", "-", "*", "//", "max", "f", "[]"]),
        st.lists(sub, min_size=1, max_size=3).map(tuple),
    ) | st.builds(list_term, st.lists(sub, min_size=1, max_size=3), sub),
    max_leaves=12,
)


@given(printed_terms, st.dictionaries(st.integers(0, 3), st.sampled_from(["X", "L", "_G1"])))
def test_render_term_matches_recursive_reference(term, names):
    assert render_term(term, names) == reference_render_term(term, names)
    assert render_term(term) == reference_render_term(term)


def test_render_term_any_depth():
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    nested: Term = Compound("a")
    for _ in range(depth):
        nested = Compound("f", (list_term([nested], Var(0)),))
    assert render_term(nested, {0: "T"}) == "f([" * depth + "a" + "|T])" * depth


def test_oversized_integer_answer_is_reported(tmp_path, capsys):
    # 1000**1500 has 4,501 digits, past Python's default int-to-string limit.
    path = tmp_path / "pow.colp"
    path.write_text("pow(0, 1).\npow(N, X) :- N > 0, M is N - 1, pow(M, Y), X is Y * 1000.\n")
    with pytest.raises(CologicError, match="integer too large to print"):
        render_term(Int(1000**1500))
    code = main([str(path), "--query", "?- pow(1500, X).", "--query", "?- pow(2, X)."])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "X = 1000000\n"  # later queries still run
    assert captured.err.splitlines() == ["integer too large to print (14949 bits)"]


def test_canon_clause_is_order_sensitive():
    c1 = parse_program("p(X, Y).").clauses[0]
    c2 = parse_program("p(Y, X).").clauses[0]
    assert canon_clause(c1) == canon_clause(c2)  # both are p(v0, v1)
    c3 = parse_program("p(X, X).").clauses[0]
    assert canon_clause(c1) != canon_clause(c3)


def test_term_reprs_are_pinned():
    x, one = Var(0), Int(1)
    a = Compound("a")
    p = Atom("p", (x, Compound("f", (one, a))))
    assert repr(x) == "Var(id=0)"
    assert repr(one) == "Int(value=1)"
    assert repr(a) == "Compound(functor='a', args=())"
    assert repr(p) == (
        "Atom(predicate='p', args=(Var(id=0),"
        " Compound(functor='f', args=(Int(value=1), Compound(functor='a', args=())))))"
    )
    assert repr(Clause(p, (Atom("q"),))) == (
        f"Clause(head={p!r}, body=(Atom(predicate='q', args=()),))"
    )


def test_term_hashes_are_field_tuple_hashes():
    args = (Var(0), Int(-3), Compound("a"))
    atom = Atom("p", args)
    body = (Atom("q", (Var(0),)),)
    assert hash(Var(7)) == hash((7,))
    assert hash(Int(7)) == hash((7,))
    assert hash(Compound("f", args)) == hash(("f", args))
    assert hash(atom) == hash(("p", args))
    assert hash(Clause(atom, body)) == hash((atom, body))
    # A cached hash is returned again.
    t = Compound("f", args)
    assert hash(t) == hash(t) == hash(("f", args))


def test_terms_equal_within_their_class_only():
    assert Var(1) == Var(1) and Int(1) == Int(1)
    assert Var(1) != Int(1) and Int(1) != Var(1)
    assert Compound("f", (Var(1),)) != Compound("f", (Int(1),))
    assert Atom("f", (Int(1),)) != Compound("f", (Int(1),))
    assert Compound("f", (Int(1),)) != Compound("f", (Int(1), Int(1)))
    assert Compound("f") != Compound("g")
    assert Clause(Atom("p")) == Clause(Atom("p"), ())
    assert Clause(Atom("p")) != Clause(Atom("p"), (Atom("q"),))


@pytest.mark.parametrize(
    "term, name",
    [
        (Var(0), "id"),
        (Int(0), "value"),
        (Compound("f", (Int(0),)), "args"),
        (Atom("p"), "predicate"),
        (Clause(Atom("p")), "body"),
    ],
)
def test_terms_are_frozen(term, name):
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(term, name, ())
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(term, name)
    with pytest.raises(FrozenInstanceError):
        term.extra = 1
    assert not hasattr(term, "__dict__")


@pytest.mark.parametrize("term", [
    Var(3),
    Int(-7),
    Compound("f", (Var(1), list_term([Int(1), Compound("a")]))),
    Atom("p", (Int(1), Compound("a"))),
    Clause(Atom("p", (Var(0),)), (Atom("q", (Var(0), Int(2))),)),
])
@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
def test_terms_copy_and_pickle(term, round_trip):
    # Frozen slotted records: __reduce__ rebuilds them through __init__.
    again = round_trip(term)
    assert again.__class__ is term.__class__
    assert again == term and hash(again) == hash(term)


def test_clause_template_is_built_once(monkeypatch):
    # One record per clause, its head pattern included, however many key
    # checks, renamings and groundings touch the clause.
    built, patterns, checked = [], [], []

    def counting_compile(clause):
        built.append(clause)
        return compile_clause(clause)

    def counting_pattern(clause):
        patterns.append(clause)
        return head_pattern(clause)

    def counting_check(key, clause, source):
        excluded = key_excludes(key, clause, source)
        checked.append((clause, excluded))
        return excluded

    compile_clause, head_pattern = term_module._compile_clause, term_module._head_pattern
    key_excludes = engine.key_excludes
    monkeypatch.setattr(term_module, "_compile_clause", counting_compile)
    monkeypatch.setattr(term_module, "_head_pattern", counting_pattern)
    monkeypatch.setattr(engine, "key_excludes", counting_check)
    clause = parse_program("p(X, f(Y)) :- q(Y).").clauses[0]
    source = VarSource(10)
    fresh_rename(clause, source)
    template = clause._template
    second = fresh_rename(clause, source)
    assert clause._template is template
    assert built == [clause]
    assert term_vars(second) == {12, 13}
    # A probed member query checks each member clause against one key
    # after another, and renames the ones it keeps.
    lists = parse_program(RUNNING_EXAMPLE)
    assert [format_answer(a) for a in solve(lists, parse_query("?- member(3, [1, 2, 3])."))] == ["true."]
    member = [c for c in lists.clauses if c.head.predicate == "member"]
    assert {c for c, _ in checked} == set(member) and len(checked) > len(member)
    # A constants-only program's clauses are renamed and grounded, and
    # p(a, b) :- q(b) is key-checked twice: ruled out once, kept once.
    facts = parse_program("p(a, b) :- q(b).  p(a, X) :- q(X).  q(b).  q(c).")
    for text in ["?- p(a, c).", "?- p(a, b)."]:
        assert list(solve(facts, parse_query(text)))
    assert (facts.clauses[0], True) in checked and (facts.clauses[0], False) in checked
    oracle_report(facts)
    assert [id(c) for c in patterns] == [id(c) for c in built]
    assert len({id(c) for c in built}) == len(built)
    assert set(map(id, built)) >= set(map(id, [*member, *facts.extended()]))


def test_makers_take_names_from_constants_not_from_their_source():
    # Quotes, a newline and a parenthesis in a predicate or a functor would
    # break generated source that spelled them out.
    p, f = "p'\n)", 'f"'
    x, y = Var(0), Var(1)
    clause = Clause(Atom(p, (x, Compound(f, (y, Compound(f))))), (Atom(f, (Compound(p, (y,)),)), Atom(p, ())))
    assert fresh_rename(clause, VarSource(30)) == reference_rename(clause, VarSource(30))
    n, make, constants, _ = term_module._maker_of(clause)
    assert n == 2
    one, two = Int(1), Compound(p)
    assert make((one, two), constants) == substitute(clause, {0: one, 1: two})
    # The oracle grounds a constants-only clause with such names through its maker.
    fact = Clause(Atom(p, (x, Compound(f))))
    universe = GroundUniverse((Compound(f), Int(2)))
    assert ground_instances([fact], universe) == {substitute(fact, {0: c}) for c in universe.constants}
    _assert_sources_hold_no_program_text()


def _assert_sources_hold_no_program_text():
    allowed = {"lambda", "v", "c", "Clause", "Atom", "Compound"}
    for source in term_module._MAKERS:
        assert re.fullmatch(r"lambda v, c: [\w\[\](), ]+", source), source
        assert set(re.findall(r"[A-Za-z_]\w*", source)) <= allowed, source


def test_clauses_of_one_shape_share_one_maker():
    first, second = parse_program("p(X) :- q(X).  r(Y) :- s(Y).").clauses
    assert not hasattr(first, "_template")  # parsing builds no maker
    renamed = fresh_rename(second, VarSource(4))
    assert renamed == Clause(Atom("r", (Var(4),)), (Atom("s", (Var(4),)),))
    assert fresh_rename(first, VarSource(9)) == Clause(Atom("p", (Var(9),)), (Atom("q", (Var(9),)),))
    assert first._template[1] is second._template[1]
    assert first._template[2] != second._template[2]


def test_importing_builds_no_maker():
    code = "import cologic.cli, cologic.terms as t; assert t._MAKERS == {}, t._MAKERS"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(Path(term_module.__file__).parents[1])})
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("shape", ["body", "head"])
def test_wide_clauses_rename_like_the_reference(shape):
    # 2,000 atoms in the body, or 2,000 arguments in the head: both programs
    # are far longer than the inline limit, so _build runs them and no
    # maker is compiled.
    width = 2_000
    if shape == "body":
        clause = Clause(Atom("p", (Var(0),)),
                        tuple(Atom("q", (Var(i), Compound("f", (Var(i + 1),)))) for i in range(width)))
    else:
        clause = Clause(Atom("p", tuple(Compound("g", (Var(i % 7), Int(i))) for i in range(width))))
    makers = dict(term_module._MAKERS)
    assert fresh_rename(clause, VarSource(3)) == reference_rename(clause, VarSource(3))
    assert term_module._maker_of(clause)[1] is term_module._build
    assert term_module._MAKERS == makers
    _assert_sources_hold_no_program_text()


def test_deep_terms_compare_and_hash():
    # Deeper than the recursion limit: equality and the first hash keep their own stacks.
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    text = "?- X = " + "f(" * depth + "a" + ")" * depth + "."
    one, two = (parse_query(text).goal.atoms[0] for _ in range(2))
    assert one.args[1] is not two.args[1]
    assert one == two
    assert hash(one) == hash(two)
    assert hash(one.args[1]) == hash(("f", one.args[1].args))
    other = parse_query(text.replace("a", "b")).goal.atoms[0]
    assert one != other
    assert len({one, two, other}) == 2


def _flatten(record: tuple) -> list:
    """The variables of a variable record, nested tuples opened in order."""
    out, todo = [], [record]
    while todo:
        x = todo.pop()
        if x.__class__ is tuple:
            todo += reversed(x)
        else:
            out.append(x)
    return out


def _preorder_vars(t: Term) -> list[Var]:
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if t.__class__ is Var:
            out.append(t)
        elif t.__class__ is Compound:
            todo += reversed(t.args)
    return out


@given(terms | terms.map(lambda t: Compound("k", (t, t))))
def test_var_record_holds_the_variables_as_written(term):
    wrapped = Compound("w", (term, Int(0), term))
    record = term_module.var_record(wrapped)
    assert _flatten(record) == _preorder_vars(wrapped)
    assert record == () or not (len(record) == 1 and record[0].__class__ is tuple)
    assert term_module.var_record(wrapped) is record  # kept, not filled again


def test_var_records_of_a_spine_are_one_object():
    # [1, ..., 5|L]: only the tail holds a variable, so every cell shares
    # one record; a ground list has the empty record throughout.
    cycle = list_term([Int(i) for i in range(1, 6)], tail=Var(0))
    cells = [cycle]
    while cells[-1].__class__ is Compound:
        cells.append(cells[-1].args[1])
    records = [term_module.var_record(c) for c in cells[:-1]]
    assert records[0] == (Var(0),) and all(r is records[0] for r in records)
    assert term_module.var_record(list_term([Int(1), Compound("a")])) == ()


def test_var_records_stay_linear_at_any_depth():
    # Deeper than the recursion limit. [X1, ..., Xn] takes one pair per cell,
    # and a 10,000-deep f(...f(X)...) shares one record throughout.
    n = 10_000
    assert sys.getrecursionlimit() < n
    variables = [Var(i) for i in range(n)]
    wide = list_term(variables)
    record = term_module.var_record(wide)
    assert _flatten(record) == variables
    pairs, x = 0, record
    while x:
        assert len(x) == 2 or x == (variables[-1],)
        pairs, x = pairs + 1, x[-1] if len(x) == 2 else ()
    assert pairs == n
    deep = Var(0)
    for _ in range(n):
        deep = Compound("f", (deep,))
    assert term_module.var_record(deep) == (Var(0),)
    assert term_module.var_record(deep.args[0]) is term_module.var_record(deep)


def test_reimporting_keeps_one_copy_of_the_term_classes():
    # A module-level typing.Union over the term classes would be cached by
    # typing and keep every imported copy of terms.py alive.
    code = (
        "import gc, importlib, sys\n"
        "for _ in range(5):\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'cologic']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('cologic.cli')\n"
        "gc.collect()\n"
        "print(sum(1 for o in gc.get_objects() if isinstance(o, type)"
        " and o.__module__ == 'cologic.terms' and o.__name__ == 'Var'))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(Path(term_module.__file__).parents[1])})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "1"
