"""Binding stores: rational unification, equality, rollback, answer extraction."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cologic import (
    Atom,
    Compound,
    Int,
    InternalError,
    Program,
    Var,
    list_term,
    parse_query,
    render_term,
    solve,
)
from cologic.unify import BindStore, extract_answer, unify, unify_atoms
from helpers import (
    ReferenceBindStore,
    is_unbound,
    rational_equal,
    reference_extract_answer,
    reference_unify,
    reference_unify_atoms,
    unfold,
    variant_equal,
)


def cons(h, t):
    return Compound(".", (h, t))


def test_cyclic_list_via_two_unifications():
    # L = [1|L1], L1 = [2|L] leaves L denoting the rational list [1,2,1,2,...]
    store = BindStore()
    L, L1 = Var(0), Var(1)
    assert unify(L, cons(Int(1), L1), store)
    assert unify(L1, cons(Int(2), L), store)
    K = Var(2)
    assert unify(K, list_term([Int(1), Int(2)], tail=K), store)
    assert rational_equal(L, K, store)


def test_functor_clash_leaves_store_untouched():
    store = BindStore()
    start = store.mark()
    assert not unify(Compound("f", (Compound("a"),)), Compound("g", (Compound("a"),)), store)
    assert store.mark() == start


def test_occurs_free_self_unification():
    store = BindStore()
    X = Var(0)
    assert unify(X, Compound("f", (X,)), store)
    t = store.resolve(X)
    assert isinstance(t, Compound) and t.functor == "f"
    # unfolds to f(f(f(...))) at any depth
    expected = unfold(t, store, 5)
    again = unfold(Compound("f", (X,)), store, 5)
    assert expected == again


def test_integer_mismatch_clashes():
    store = BindStore()
    assert not unify(Int(1), Int(2), store)
    assert unify(Int(3), Int(3), store)


def test_unify_atoms_max_heads():
    # max(L, M) against max([N|L1], M2) with L already cyclic: N=1, L1=[2|L], M2=M
    store = BindStore()
    L, M, N, L1, M2 = (Var(i) for i in range(5))
    assert unify(L, list_term([Int(1), Int(2)], tail=L), store)
    goal = Atom("max", (L, M))
    head = Atom("max", (cons(N, L1), M2))
    assert unify_atoms(goal, head, store)
    assert rational_equal(N, Int(1), store)
    assert rational_equal(L1, cons(Int(2), L), store)
    assert store.find(M.id) == store.find(M2.id)


def test_unify_atoms_predicate_mismatch_without_touching_store():
    store = BindStore()
    start = store.mark()
    assert not unify_atoms(Atom("p", (Compound("a"),)), Atom("q", (Compound("a"),)), store)
    assert store.mark() == start


def test_unify_atoms_member_clash():
    # member(X, [X|_]) vs member(3, [1|T]): X binds to 3, then 3 vs 1 clashes.
    store = BindStore()
    X, Any, T = Var(0), Var(1), Var(2)
    a = Atom("member", (X, cons(X, Any)))
    b = Atom("member", (Int(3), cons(Int(1), T)))
    start = store.mark()
    assert not unify_atoms(a, b, store)
    assert store.mark() == start
    assert is_unbound(store, X.id)


def test_resolve_is_shallow():
    store = BindStore()
    X, Y = Var(0), Var(1)
    unify(X, Compound("f", (Y,)), store)
    unify(Y, Compound("a"), store)
    got = store.resolve(X)
    assert got == Compound("f", (Y,))  # one level only; Y not chased
    Z = Var(5)
    assert store.resolve(Z) == Z
    L = Var(6)
    unify(L, list_term([Int(1), Int(2)], tail=L), store)
    head = store.resolve(L)
    assert isinstance(head, Compound) and head.functor == "."


def test_rational_equal_unfolding_periods():
    store = BindStore()
    L, K, S = Var(0), Var(1), Var(2)
    unify(L, list_term([Int(1), Int(2)], tail=L), store)
    unify(K, list_term([Int(1), Int(2), Int(1), Int(2)], tail=K), store)
    unify(S, list_term([Int(2), Int(1)], tail=S), store)
    # oracle first: bounded unfolding to depth 8
    assert unfold(L, store, 8) == unfold(K, store, 8)
    assert unfold(L, store, 8) != unfold(S, store, 8)
    assert rational_equal(L, K, store)
    assert not rational_equal(L, S, store)
    assert rational_equal(L, L, store)


def test_rational_equal_rigid_variables():
    store = BindStore()
    assert not rational_equal(Var(0), Var(1), store)
    unify(Var(0), Var(1), store)
    assert rational_equal(Var(0), Var(1), store)


def test_mark_rollback_basics():
    store = BindStore()
    X = Var(0)
    m = store.mark()
    assert unify(X, Compound("a"), store)
    assert not is_unbound(store, X.id)
    store.rollback(m)
    assert is_unbound(store, X.id)


def test_nested_marks_unwind_lifo():
    store = BindStore()
    X, Y = Var(0), Var(1)
    m1 = store.mark()
    unify(X, Compound("a"), store)
    m2 = store.mark()
    unify(Y, Compound("b"), store)
    store.rollback(m2)
    assert is_unbound(store, Y.id) and not is_unbound(store, X.id)
    store.rollback(m1)
    assert is_unbound(store, X.id)


def test_stale_rollback_token_is_internal_error():
    store = BindStore()
    with pytest.raises(InternalError):
        store.rollback(3)
    with pytest.raises(InternalError):
        store.rollback(-1)


def test_idempotent_reunification_adds_no_trail():
    store = BindStore()
    s = Compound("f", (Var(0), Compound("g", (Var(1),))))
    t = Compound("f", (Compound("a"), Compound("g", (Int(7),))))
    assert unify(s, t, store)
    before = store.mark()
    assert unify(s, t, store)
    assert store.mark() == before


def test_extract_answer_running_example_shape():
    store = BindStore()
    L, M = Var(0), Var(1)
    unify(L, list_term([Int(1), Int(2)], tail=L), store)
    unify(M, Int(2), store)
    equations, names = extract_answer([("L", 0), ("M", 1)], store)
    rendered = [(name, render_term(t, names)) for name, t in equations]
    assert rendered == [("L", "[1, 2|L]"), ("M", "2")]


def test_extract_answer_unbound_reports_itself():
    store = BindStore()
    equations, names = extract_answer([("X", 0)], store)
    assert equations == [("X", Var(0))]
    assert names[0] == "X"


def test_extract_answer_mutual_cycle_minimal_cover():
    store = BindStore()
    X, Y = Var(0), Var(1)
    unify(X, Compound("f", (Y,)), store)
    unify(Y, Compound("g", (X,)), store)
    equations, names = extract_answer([("X", 0), ("Y", 1)], store)
    rendered = [(name, render_term(t, names)) for name, t in equations]
    assert rendered == [("X", "f(Y)"), ("Y", "g(X)")]


def test_extract_answer_anonymous_cycle_gets_fresh_name():
    store = BindStore()
    X, hidden = Var(0), Var(1)
    unify(hidden, cons(Int(2), hidden), store)
    unify(X, cons(Int(1), hidden), store)
    equations, names = extract_answer([("X", 0)], store)
    rendered = [(name, render_term(t, names)) for name, t in equations]
    assert rendered == [("X", "[1|_R1]"), ("_R1", "[2|_R1]")]


def test_extract_answer_alias_and_shared_unbound():
    store = BindStore()
    X, Y, Z, W = Var(0), Var(1), Var(2), Var(3)
    unify(X, Y, store)
    unify(Z, Compound("f", (W,)), store)
    equations, names = extract_answer([("X", 0), ("Y", 1), ("Z", 2)], store)
    rendered = [(name, render_term(t, names)) for name, t in equations]
    assert rendered[0] == ("X", "X")  # unconstrained; the CLI shows this as X = _
    assert rendered[1] == ("Y", "X")
    assert rendered[2] == ("Z", "f(_G1)")


def test_extract_answer_dodges_user_names_spelled_like_fresh_ones():
    # A query variable may legally be named _G1; generated names must not
    # collide with it (a collision would fake sharing between classes).
    store = BindStore()
    x, user_g1, anon = Var(0), Var(1), Var(2)
    unify(x, Compound("f", (user_g1, anon)), store)
    equations, names = extract_answer([("X", 0), ("_G1", 1)], store)
    rendered = dict(
        (name, render_term(t, names)) for name, t in equations
    )
    assert rendered["_G1"] == "_G1"
    assert rendered["X"] == "f(_G1, _G2)"
    assert len(set(names.values())) == len(names)  # all display names distinct


def test_variant_equal_across_stores():
    a, b = BindStore(), BindStore()
    L = Var(0)
    unify(L, list_term([Int(1), Int(2)], tail=L), a)
    K = Var(7)
    unify(K, list_term([Int(1), Int(2), Int(1), Int(2)], tail=K), b)
    assert variant_equal(L, a, K, b)
    # bijection on unbound classes: f(X, Y) matches f(U, V) but not f(U, U)
    fresh_a, fresh_b = BindStore(), BindStore()
    assert variant_equal(
        Compound("f", (Var(0), Var(1))), fresh_a, Compound("f", (Var(5), Var(6))), fresh_b
    )
    assert not variant_equal(
        Compound("f", (Var(0), Var(1))), fresh_a, Compound("f", (Var(5), Var(5))), fresh_b
    )


def test_extract_answer_round_trips_through_reconstruction():
    # Whatever the store holds, extracting and re-unifying the equations
    # in a fresh store rebuilds the same rational trees, variable by
    # variable (sharing and cycles included).
    import random

    from helpers import answer_store
    from cologic import Answer

    rng = random.Random(3141)
    n_vars = 6

    def random_term(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.35:
            if roll < 0.15:
                return Int(rng.randint(0, 3))
            return Var(rng.randrange(n_vars))
        name, arity = rng.choice((("f", 1), ("g", 2), (".", 2)))
        return Compound(name, tuple(random_term(depth - 1) for _ in range(arity)))

    for _ in range(200):
        store = BindStore()
        for _ in range(rng.randint(0, 6)):
            unify(Var(rng.randrange(n_vars)), random_term(rng.randint(1, 3)), store)
        query_vars = [(f"V{i}", i) for i in range(n_vars)]
        equations, names = extract_answer(query_vars, store)
        rebuilt, var_of = answer_store(Answer(list(equations), dict(names)))
        original = Compound("$all", tuple(Var(i) for i in range(n_vars)))
        copy = Compound("$all", tuple(var_of[f"V{i}"] for i in range(n_vars)))
        assert variant_equal(original, store, copy, rebuilt)


store_terms = st.recursive(
    st.integers(0, 1).map(Int) | st.integers(0, 5).map(Var),
    lambda sub: st.builds(
        Compound,
        st.sampled_from(["f", "g", "."]),
        st.lists(sub, min_size=1, max_size=2).map(tuple),
    ),
    max_leaves=5,
)


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(0, 5), store_terms), min_size=1, max_size=8),
    st.lists(
        st.tuples(st.sampled_from(["X", "L", "_G1", "_G2", "_R1", "_R2"]), st.integers(0, 5)),
        min_size=1, max_size=3, unique_by=lambda pair: pair[0],
    ),
)
def test_extract_answer_matches_recursive_reference(bindings, query_vars):
    # A binding to a bare variable aliases two classes, and one to a term
    # holding its own variable makes a cycle. Query variables spelled like
    # fresh names push the _G/_R numbering past them.
    store = BindStore()
    for vid, term in bindings:
        unify(Var(vid), term, store)
    assert repr(extract_answer(query_vars, store)) == repr(reference_extract_answer(query_vars, store))


def test_answer_shares_what_it_does_not_change():
    # A ground subterm comes back as the very object bound; only a compound
    # with a rebuilt argument is new.
    query = parse_query("?- L = [" + ", ".join(str(i) for i in range(1, 1501)) + "].")
    literal = query.goal.atoms[0].args[1]
    (answer,) = solve(Program(), query)
    assert answer.equations == [("L", literal)] and answer.equations[0][1] is literal
    store, ground, inner = BindStore(), Compound("g", (Int(1),)), Compound("h", (Int(2),))
    assert unify(Var(0), Compound("f", (ground, Var(1))), store) and unify(Var(1), inner, store)
    (_, term), = extract_answer([("X", 0)], store)[0]
    assert term == Compound("f", (ground, inner))
    assert term.args[0] is ground and term.args[1] is inner


finite_terms = st.recursive(
    st.integers(-3, 3).map(Int) | st.integers(0, 4).map(Var),
    lambda sub: st.builds(
        Compound,
        st.sampled_from(["f", "g"]),
        st.lists(sub, min_size=1, max_size=2).map(tuple),
    ),
    max_leaves=8,
)


@given(finite_terms, finite_terms)
def test_unify_symmetry_on_finite_terms(s, t):
    a, b = BindStore(), BindStore()
    ok_st = unify(s, t, a)
    ok_ts = unify(t, s, b)
    assert ok_st == ok_ts
    if ok_st:
        ids = sorted({v for v in range(5)})
        joint = Compound("$v", tuple(Var(i) for i in ids))
        assert variant_equal(joint, a, joint, b)


@given(finite_terms, finite_terms)
def test_unify_idempotence_on_finite_terms(s, t):
    store = BindStore()
    if unify(s, t, store):
        before = store.mark()
        assert unify(s, t, store)
        assert store.mark() == before


diff_terms = st.recursive(
    st.integers(0, 5).map(Var)
    | st.integers(0, 2).map(Int)
    | st.sampled_from(["a", "b", "[]"]).map(Compound),
    lambda sub: st.builds(Compound, st.just("f"), st.tuples(sub, sub))
    | st.builds(lambda items, tail: list_term(items, tail=tail), st.lists(sub, min_size=1, max_size=3), sub),
    max_leaves=6,
)
diff_atoms = st.builds(
    Atom, st.sampled_from(["p", "q"]), st.lists(diff_terms, min_size=1, max_size=2).map(tuple)
)
store_ops = st.lists(
    st.tuples(st.just("unify"), diff_terms, diff_terms)
    | st.tuples(st.just("unify_atoms"), diff_atoms, diff_atoms)
    | st.tuples(st.just("mark"))
    | st.tuples(st.just("rollback"), st.integers(-1, 12)),
    max_size=20,
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InternalError:
        return InternalError


@settings(max_examples=300)
@given(store_ops)
@example([
    ("unify", Var(0), list_term([Int(1)], tail=Var(0))),
    ("mark",),
    ("unify", Var(1), list_term([Int(1), Int(1)], tail=Var(1))),
    ("unify", Var(2), Var(0)),
    ("unify", Var(1), Var(2)),
    ("unify_atoms", Atom("p", (Var(3), Var(0))), Atom("p", (Int(2), list_term([Int(2)], tail=Var(0))))),
    ("rollback", 1),
    ("rollback", 5),
])
def test_store_agrees_with_the_two_table_reference(ops):
    # Every return value, trail position, representative and one-level
    # binding matches the two-table store after every step, on cyclic
    # bindings, clashes after partial bindings and stale tokens too.
    store, ref = BindStore(), ReferenceBindStore()
    ours = {"unify": lambda s, t: unify(s, t, store), "unify_atoms": lambda a, b: unify_atoms(a, b, store),
            "mark": store.mark, "rollback": store.rollback}
    theirs = {"unify": lambda s, t: reference_unify(s, t, ref),
              "unify_atoms": lambda a, b: reference_unify_atoms(a, b, ref),
              "mark": ref.mark, "rollback": ref.rollback}
    for name, *args in ops:
        assert _outcome(ours[name], *args) == _outcome(theirs[name], *args)
        assert store.mark() == ref.mark()
        assert [store.find(i) for i in range(6)] == [ref.find(i) for i in range(6)]
        assert [store.resolve(Var(i)) for i in range(6)] == [ref.resolve(Var(i)) for i in range(6)]
