"""Keyed hypothesis and revisit-count lookup, and the clause check on keys: the key never drops a unifier.

Atoms are drawn from integers, ``'.'/2``, ``f/1``, ``[]`` and a few shared
variables, and bindings (cyclic ones included, since unification is
occurs-check free) are made with ``unify`` between the steps.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cologic import Atom, Clause, Compound, Int, Var
from cologic.engine import LfpCounts, hyp_lookup, keys_fit
from cologic.terms import VarSource, fresh_rename, key_excludes, key_is_complete, lookup_key
from cologic.unify import BindStore, unify, unify_atoms

VARS = [Var(i) for i in range(4)]

terms = st.recursive(
    st.one_of(st.integers(0, 2).map(Int), st.sampled_from(VARS), st.just(Compound("[]"))),
    lambda sub: st.one_of(
        sub.map(lambda t: Compound("f", (t,))),
        st.tuples(sub, sub).map(lambda pair: Compound(".", pair)),
    ),
    max_leaves=6,
)
atoms = st.builds(
    lambda name, args: Atom(name, tuple(args)),
    st.sampled_from(["p", "q"]),
    st.lists(terms, min_size=0, max_size=2),
)
bindings = st.tuples(st.sampled_from(VARS), terms)
# A context is built by pushing atoms, each followed by at most one binding.
pushes = st.lists(st.tuples(atoms, st.lists(bindings, max_size=1)), max_size=16)

# Clause heads and the goals tried against them: nested lists, integers,
# constants and few variables, so that a head variable often occurs twice
# and a goal's key often holds several symbols.
HEAD_VARS = [Var(i) for i in range(10, 13)]


def _tree(leaves):
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(lambda t: Compound("f", (t,))),
        st.tuples(sub, sub).map(lambda pair: Compound(".", pair)),
    ), max_leaves=5)


CONSTANTS = st.one_of(st.integers(0, 2).map(Int), st.sampled_from([Compound("[]"), Compound("a")]))
head_terms = _tree(st.one_of(CONSTANTS, st.sampled_from(HEAD_VARS)))
goal_terms = _tree(st.one_of(CONSTANTS, st.sampled_from(VARS)))
head_args = st.lists(head_terms, min_size=1, max_size=3)



def bind_all(pairs, store: BindStore) -> None:
    for var, term in pairs:
        unify(var, term, store)  # a clash leaves the store as it was


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(atoms, atoms, st.lists(bindings, max_size=4), st.lists(bindings, max_size=4))
def test_unifiable_atoms_have_fitting_keys(a, b, before, after):
    store = BindStore()
    bind_all(before, store)
    # a's key is taken before the later bindings, as a context entry's may be.
    key_a = lookup_key(a, store.resolve)
    bind_all(after, store)
    key_b = lookup_key(b, store.resolve)
    assert key_a[:2] == (a.predicate, a.arity)
    start = store.mark()
    if unify_atoms(a, b, store):
        assert keys_fit(key_a, key_b)
        assert keys_fit(lookup_key(a, store.resolve), lookup_key(b, store.resolve))
    store.rollback(start)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(atoms, atoms, st.lists(bindings, max_size=4))
def test_a_complete_key_spells_a_flat_closed_atom(a, b, pairs):
    store = BindStore()
    bind_all(pairs, store)
    key = lookup_key(a, store.resolve)
    resolved = [store.resolve(t) for t in a.args]
    flat = all(t.__class__ is Int or (t.__class__ is Compound and not t.args) for t in resolved)
    assert key_is_complete(key) == flat
    # Equal complete keys: the atoms are equal, so they unify and bind nothing.
    if key_is_complete(key) and lookup_key(b, store.resolve) == key:
        mark = store.mark()
        assert unify_atoms(a, b, store)
        assert store.mark() == mark


def test_a_key_is_complete_only_up_to_its_symbol_room():
    # The key holds three argument symbols, so a flat atom of four is not spelt out.
    assert key_is_complete(lookup_key(Atom("p", ()), BindStore().resolve))
    assert key_is_complete(lookup_key(Atom("p", (Int(1), Int(2), Compound("a"))), BindStore().resolve))
    assert not key_is_complete(lookup_key(Atom("p", tuple(map(Int, range(4)))), BindStore().resolve))


def _build(run, store: BindStore):
    """Replay ``run`` the way the engine grows a context: (every atom, hypotheses, counts)."""
    pushed: list[Atom] = []
    hyps = None
    counts = LfpCounts()
    for atom, later in run:
        key = lookup_key(atom, store.resolve)
        pushed.append(atom)
        hyps = (atom, key, hyps)
        # The engine stores a snapshot; the atom itself keeps the test small.
        counts = LfpCounts(counts.entries + ((atom, key, 1),))
        bind_all(later, store)
    return pushed, hyps, counts


def _scan(goal: Atom, entries, store: BindStore) -> list[int]:
    """Positions of the same-predicate ``entries`` that unify with ``goal``, in order; rolled back."""
    hits = []
    for i, a in enumerate(entries):
        if (a.predicate, a.arity) == (goal.predicate, goal.arity):
            start = store.mark()
            if unify_atoms(goal, a, store):
                hits.append(i)
            store.rollback(start)
    return hits


def _generalized(atom: Atom, position: int) -> Atom:
    """``atom`` with one argument replaced by a variable of its own: a goal that fits by prefix."""
    if not atom.args:
        return atom
    args = list(atom.args)
    args[position % len(args)] = Var(len(VARS))
    return Atom(atom.predicate, tuple(args))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pushes, st.data())
def test_keyed_lookups_match_a_full_scan(run, data):
    store = BindStore()
    pushed, hyps, counts = _build(run, store)
    assert [a for a, _, _ in counts.entries] == pushed
    # A random goal, or one made from an entry so that hits are common.
    goals = atoms
    if pushed:
        goals = st.one_of(atoms, st.builds(_generalized, st.sampled_from(pushed), st.integers(0, 1)))
    goal = data.draw(goals)
    key = lookup_key(goal, store.resolve)
    mark = store.mark()
    # Hypotheses: the same hits, most recent first.
    recent_first = pushed[::-1]
    assert hyp_lookup(goal, hyps, store, key) == [recent_first[i] for i in _scan(goal, recent_first, store)]
    # Revisit counts: the same first unifiable entry.
    first = _scan(goal, pushed, store)
    assert counts.lookup(goal, store, key) == (first[0] if first else None)
    assert store.mark() == mark


def _instance(head_arg, draw, chosen: dict | None):
    """``head_arg`` with each variable replaced by a drawn goal term: one per variable kept in ``chosen``, or one per occurrence."""
    if head_arg.__class__ is Var:
        if chosen is None:
            return draw(goal_terms)
        if head_arg.id not in chosen:
            chosen[head_arg.id] = draw(goal_terms)
        return chosen[head_arg.id]
    if head_arg.__class__ is Compound and head_arg.args:
        return Compound(head_arg.functor, tuple(_instance(a, draw, chosen) for a in head_arg.args))
    return head_arg


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(head_args, st.data(), st.lists(bindings, max_size=4), st.booleans())
def test_a_clause_the_key_excludes_fails_head_unification(head_args, data, pairs, with_body):
    # The goal is random, or an instance of the head: with one term per
    # variable, or one per occurrence, so that a repeated variable may meet
    # different terms.
    shape = data.draw(st.sampled_from(["random", "instance", "occurrences"]))
    if shape == "random":
        goal_args = [data.draw(goal_terms) for _ in head_args]
    else:
        chosen = {} if shape == "instance" else None
        goal_args = [_instance(a, data.draw, chosen) for a in head_args]
    store = BindStore()
    bind_all(pairs, store)
    goal = Atom("p", tuple(goal_args))
    body = (Atom("q", (Var(13), HEAD_VARS[0])),) if with_body else ()
    clause = Clause(Atom("p", tuple(head_args)), body)
    key = lookup_key(goal, store.resolve)
    if len(key) < 4:  # the engine checks only keys with two argument symbols or more
        return
    checked, renamed = VarSource(100), VarSource(100)
    excluded = key_excludes(key, clause, checked)
    head = fresh_rename(clause, renamed).head
    if excluded:
        # It takes the ids the renaming takes, and the renamed head clashes.
        assert checked.next_id == renamed.next_id
        mark = store.mark()
        assert not unify_atoms(goal, head, store)
        assert store.mark() == mark
    else:
        assert checked.next_id == 100
