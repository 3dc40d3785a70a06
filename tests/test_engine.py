"""Resolution engine: builtins, both strata, modes, budgets, backtracking."""

from __future__ import annotations

import dataclasses
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cologic import (
    Atom,
    Clause,
    CologicError,
    Compound,
    EngineConfig,
    EvaluationError,
    Goal,
    InstantiationError,
    Int,
    Program,
    Query,
    ResourceLimitError,
    Var,
    list_term,
    parse_program,
    parse_query,
    render_term,
    solve,
)
from cologic import engine, terms
from cologic.cli import format_answer
from cologic.engine import LfpCounts, eval_builtin, hyp_lookup, is_builtin
from cologic.terms import VarSource, lookup_key
from cologic.unify import BindStore, unify
from helpers import (
    PQ_EXAMPLE,
    RUNNING_EXAMPLE,
    ask,
    ask_all,
    atom,
    hyps,
    is_unbound,
    rational_equal,
    reference_candidates,
    reference_closed_reach,
    reference_eval_arith,
    reference_snapshot_atom,
    run_goals,
    succeeds,
    unfold,
    variant_equal,
)


@pytest.fixture(scope="module")
def running():
    return parse_program(RUNNING_EXAMPLE)


@pytest.fixture(scope="module")
def pq():
    return parse_program(PQ_EXAMPLE)


# builtins


def test_is_builtin_whitelist():
    assert is_builtin(Atom("=", (Var(0), Var(1))))
    assert is_builtin(Atom("true"))
    assert not is_builtin(Atom("max", (Var(0), Var(1))))
    assert not is_builtin(Atom("=", (Var(0),)))  # wrong arity


def test_is_max_evaluation():
    store = BindStore()
    m2, m3 = Var(0), Var(1)
    assert unify(m3, Int(2), store)
    assert eval_builtin(Atom("is", (m2, Compound("max", (Int(1), m3)))), store)
    assert rational_equal(m2, Int(2), store)


def test_arithmetic_operators():
    store = BindStore()
    x = Var(0)
    rhs = Compound("-", (Compound("*", (Int(3), Int(4))), Compound("//", (Int(7), Int(2)))))
    assert eval_builtin(Atom("is", (x, rhs)), store)
    assert rational_equal(x, Int(9), store)
    y = Var(1)
    assert eval_builtin(Atom("is", (y, Compound("min", (Int(2), Int(-5))))), store)
    assert rational_equal(y, Int(-5), store)


def test_comparisons():
    store = BindStore()
    assert eval_builtin(Atom(">", (Int(2), Int(1))), store)
    assert not eval_builtin(Atom(">", (Int(1), Int(2))), store)
    assert eval_builtin(Atom("=<", (Int(1), Int(1))), store)
    assert eval_builtin(Atom("=:=", (Compound("+", (Int(1), Int(1))), Int(2))), store)
    assert eval_builtin(Atom("=\\=", (Int(1), Int(2))), store)


def test_not_unifiable_trial_is_rolled_back():
    store = BindStore()
    x = Var(0)
    assert not eval_builtin(Atom("\\=", (x, Int(1))), store)  # they unify
    assert is_unbound(store, x.id)
    assert eval_builtin(Atom("\\=", (Int(1), Int(2))), store)
    assert not eval_builtin(Atom("\\=", (Int(1), Int(1))), store)


def test_instantiation_error_on_unbound_arithmetic():
    store = BindStore()
    with pytest.raises(InstantiationError):
        eval_builtin(Atom(">", (Var(0), Int(0))), store)
    with pytest.raises(InstantiationError):
        eval_builtin(Atom("is", (Var(1), Compound("f", (Int(1), Int(2))))), store)


def test_division_by_zero():
    store = BindStore()
    with pytest.raises(EvaluationError):
        eval_builtin(Atom("is", (Var(0), Compound("//", (Int(1), Int(0))))), store)


def test_arithmetic_error_cases():
    # Nested operators evaluate; each misuse raises its own error.
    assert ask(Program(), "?- X is max(7, 1) // 2.").equations[0] == ("X", Int(3))
    with pytest.raises(EvaluationError, match="^division by zero$"):
        ask(Program(), "?- X is 7 // 0.")
    with pytest.raises(InstantiationError, match="^unbound variable in arithmetic$"):
        ask(Program(), "?- X is max(Y, 1).")
    with pytest.raises(InstantiationError, match=r"^cannot evaluate f\(1, 2\) as an integer$"):
        ask(Program(), "?- X is f(1, 2).")


def test_cyclic_arithmetic_raises_instantiation_error():
    # X = X + 1 binds X to an infinite sum: its value is met again while
    # it is still being evaluated, in either operand position.
    for rhs in (Compound("+", (Var(0), Int(1))), Compound("-", (Int(1), Var(0)))):
        store = BindStore()
        assert unify(Var(0), rhs, store)
        with pytest.raises(InstantiationError, match="^cyclic term in arithmetic$"):
            eval_builtin(Atom("is", (Var(1), Var(0))), store)
        with pytest.raises(InstantiationError, match="^cyclic term in arithmetic$"):
            eval_builtin(Atom("<", (Var(0), Int(3))), store)
    with pytest.raises(InstantiationError, match="^cyclic term in arithmetic$"):
        ask(Program(), "?- X = Y * 2, Y = X + 1, Z is Y.")


def test_shared_arithmetic_operands_still_evaluate():
    assert ask(Program(), "?- X = Y + Y, Y = 2, Z is X.").equations[-1] == ("Z", Int(4))
    assert ask(Program(), "?- Y = 1 + 2, X = Y * Y, Z is X + Y.").equations[-1] == ("Z", Int(12))
    # A chain that doubles 40 times shares each link: 2**40 leaves, 40 classes.
    store = BindStore()
    for i in range(1, 41):
        assert unify(Var(i), Compound("+", (Var(i - 1), Var(i - 1))), store)
    assert unify(Var(0), Int(1), store)
    assert engine.eval_arith(Var(40), store) == 2**40


arith_terms = st.recursive(
    st.integers(-2, 3).map(Int) | st.integers(0, 3).map(Var),
    lambda sub: st.builds(
        Compound,
        st.sampled_from(["+", "-", "*", "//", "max", "min", "f"]),
        st.lists(sub, min_size=1, max_size=2).map(tuple),
    ),
    max_leaves=8,
)


def _evaluated(evaluate, term, store):
    try:
        return evaluate(term, store)
    except CologicError as exc:
        return type(exc).__name__, str(exc)


# A binary operator over integers or variables, the form of `M2 is max(N, M)`:
# eval_arith evaluates it without its stack when both operands resolve to integers.
flat_arith_terms = st.builds(
    lambda functor, a, b: Compound(functor, (a, b)),
    st.sampled_from(["+", "-", "*", "//", "max", "min", "f"]),
    st.integers(-2, 3).map(Int) | st.integers(0, 3).map(Var),
    st.integers(-2, 3).map(Int) | st.integers(0, 3).map(Var),
)


@given(arith_terms | flat_arith_terms, st.lists(st.tuples(st.integers(0, 3), arith_terms), max_size=4))
def test_eval_arith_matches_recursive_reference(term, bindings):
    # Bindings whose term holds their own variable make cyclic sums.
    store = BindStore()
    for vid, bound in bindings:
        unify(Var(vid), bound, store)
    got = _evaluated(engine.eval_arith, term, store)
    try:
        expected = _evaluated(reference_eval_arith, term, store)
    except RecursionError:  # the reference loops on a cyclic term
        assert got == ("InstantiationError", "cyclic term in arithmetic")
        return
    assert got == expected


def test_true_fail():
    store = BindStore()
    assert eval_builtin(Atom("true"), store)
    assert not eval_builtin(Atom("fail"), store)


# hypothesis lookup


def _lookup(goal: Atom, hypotheses, store: BindStore):
    return hyp_lookup(goal, hyps(hypotheses, store), store, lookup_key(goal, store.resolve))


def test_hyp_lookup_unifies_under_current_store():
    store = BindStore()
    L, M, M2 = Var(0), Var(1), Var(2)
    unify(L, list_term([Int(1), Int(2)], tail=L), store)
    unify(M2, M, store)
    hyp = Atom("max", (L, M))
    found = _lookup(Atom("max", (L, M2)), (hyp,), store)
    assert found == [hyp]
    assert is_unbound(store, M.id)  # trial rolled back


def test_hyp_lookup_filters_predicate_and_orders_recent_first():
    store = BindStore()
    assert _lookup(atom("member", 3, 1), (), store) == []
    hyps = (atom("p", 0), atom("q", 0))
    assert _lookup(Atom("p", (Var(5),)), hyps, store) == [atom("p", 0)]
    two = (Atom("p", (Var(1),)), Atom("p", (Var(2),)))
    assert _lookup(Atom("p", (Var(5),)), two, store) == [two[1], two[0]]


def _lookup_trials(monkeypatch, program, text: str, mode: str) -> tuple[int, int]:
    """(trial unifications inside hypothesis and revisit-count lookups, lookups) for a first answer."""
    counts = {"inside": 0, "trials": 0, "lookups": 0}

    def counted(fn):
        def lookup(*args, **kwargs):
            counts["lookups"] += 1
            counts["inside"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                counts["inside"] -= 1
        return lookup

    unify_atoms = engine.unify_atoms

    def trial(*args):
        counts["trials"] += counts["inside"] > 0
        return unify_atoms(*args)

    monkeypatch.setattr(engine, "unify_atoms", trial)
    monkeypatch.setattr(engine, "hyp_lookup", counted(engine.hyp_lookup))
    monkeypatch.setattr(engine.LfpCounts, "lookup", counted(engine.LfpCounts.lookup))
    next(iter(solve(program, parse_query(text), EngineConfig(mode=mode))), None)
    monkeypatch.undo()
    return counts["trials"], counts["lookups"]


@pytest.mark.parametrize("mode", ["cofacts", "inductive"])
@pytest.mark.parametrize("goal", ["all_pos({items})", "member(0, {items})", "max({items}, M)"])
def test_lookup_trials_do_not_grow_with_depth(running, monkeypatch, goal, mode):
    # Every goal on these branches is new, so a lookup that tried each
    # entry would cost about n/2 trials; keyed lookup tries none of the
    # entries past the scanned prefix. cofacts mode looks up hypotheses,
    # inductive mode revisit counts.
    per_lookup = []
    for n in (100, 600):
        items = "[" + ", ".join(str(i) for i in range(1, n + 1)) + "]"
        trials, lookups = _lookup_trials(monkeypatch, running, f"?- {goal.format(items=items)}.", mode)
        assert lookups >= n
        per_lookup.append(trials / lookups)
    assert per_lookup[1] <= per_lookup[0] < 1


def _head_unifications(monkeypatch, program, text: str, mode: str = "cofacts") -> tuple[int, int]:
    """(renamings, failed head unifications) of a whole search."""
    counts = {"renamed": 0, "failed": 0}
    rename, unify_atoms = engine.fresh_rename, engine.unify_atoms
    heads = []

    def renamed(clause, source):
        counts["renamed"] += 1
        copy = rename(clause, source)
        heads.append(copy.head)
        return copy

    def unified(a, b, store):
        ok = unify_atoms(a, b, store)
        counts["failed"] += not ok and bool(heads) and b is heads[-1]
        return ok

    monkeypatch.setattr(engine, "fresh_rename", renamed)
    monkeypatch.setattr(engine, "unify_atoms", unified)
    list(solve(program, parse_query(text), EngineConfig(mode=mode)))
    monkeypatch.undo()
    return counts["renamed"], counts["failed"]


@pytest.mark.parametrize("mode", ["cofacts", "inductive"])
@pytest.mark.parametrize("goal", ["max({items}, M)", "member(0, {items})"])
def test_heads_the_key_rules_out_are_not_renamed(running, monkeypatch, goal, mode):
    # Without the key check, `max([N], N)` fails its head on every cell but
    # the last and `member(X, [X|_])` on every cell: about one failed head per
    # element. The key holds the cell's element and the next cell's symbol,
    # so both clauses are skipped before renaming.
    items = "[" + ", ".join(str(i) for i in range(1, 21)) + "]"
    renamed, failed = _head_unifications(monkeypatch, running, f"?- {goal.format(items=items)}.", mode)
    assert renamed >= 20
    assert failed == 0


def test_a_ruled_out_clause_takes_its_renaming_ids(monkeypatch):
    # The first clause clashes on its second argument, so only the second is
    # renamed; it still gets the ids it got when the first was renamed too.
    program = parse_program("p(A, 1, B).  p(A, 2, [A|D]).")
    renamed = []
    rename = engine.fresh_rename
    monkeypatch.setattr(engine, "fresh_rename", lambda c, source: renamed.append(c) or rename(c, source))
    answers = [repr(a) for a in solve(program, parse_query("?- p(3, 2, L)."))]
    assert renamed == [program.clauses[1]]
    assert answers == ["Answer(equations=[('L', Compound(functor='.', args=(Int(value=3), Var(id=7))))],"
                       " names={0: 'L', 7: '_G1'})"]


# bounded SLD stratum


def test_lfp_empty_goal_succeeds_without_binding(running):
    store = BindStore()
    assert sum(1 for _ in run_goals(running, (), store, counts=LfpCounts())) == 1
    assert store.mark() == 0


def test_lfp_pq_cofact_usable_anywhere(pq):
    # p(0) is provable outright (the co-fact acts as a fact of the
    # enriched program); p(1) dies against the revisit limit.
    assert any(True for _ in run_goals(pq, (atom("p", 0),), BindStore(), counts=LfpCounts()))
    assert not any(True for _ in run_goals(pq, (atom("p", 1),), BindStore(), counts=LfpCounts()))


def test_lfp_running_example_mid_derivation(running):
    # Goal max(L, M2) with L = [1,2|L] and M2 = M succeeds binding M2 to 2.
    store = BindStore()
    L, M, M2 = Var(1000), Var(1001), Var(1002)
    assert unify(L, list_term([Int(1), Int(2)], tail=L), store)
    assert unify(M2, M, store)
    goal = (Atom("max", (L, M2)),)
    success = next(iter(run_goals(running, goal, store, counts=LfpCounts())), "fail")
    assert success is None
    assert rational_equal(M2, Int(2), store)
    assert rational_equal(M, Int(2), store)


def test_lfp_revisit_limit_configurable():
    # chain p(N) :- p(N+1)-ish depth via distinct atoms is unaffected;
    # self-recursion dies at the limit.
    loop = parse_program("p :- p.")
    runs = run_goals(loop, (Atom("p"),), BindStore(), counts=LfpCounts(),
                     config=EngineConfig(lfp_revisit_limit=5))
    assert not any(True for _ in runs)


def test_first_visit_appends_a_snapshot_with_count_one():
    store = BindStore()
    goal = Atom("p", (Int(1), Var(0)))
    key = lookup_key(goal, store.resolve)
    old = LfpCounts(((atom("q", 1), ("q", 1, 1), 1),))
    source = VarSource(100)
    counts = old.visited(goal, store, key, source, 2)
    # The open argument is copied with a fresh variable; the closed one is kept.
    assert counts.entries == (old.entries[0], (Atom("p", (Int(1), Var(100))), key, 1))
    assert source.next_id == 101 and store.mark() == 0


def test_revisit_raises_the_first_unifiable_entry_and_keeps_its_key():
    store = BindStore()
    general, specific = Atom("p", (Var(0),)), atom("p", 1)
    entries = ((atom("q", 1), ("q", 1, 1), 1), (general, ("p", 1), 1), (specific, ("p", 1, 1), 1))
    goal = atom("p", 1)
    key = lookup_key(goal, store.resolve)
    assert key == ("p", 1, 1)
    source = VarSource(100)
    counts = LfpCounts(entries).visited(goal, store, key, source, 2)
    assert counts.entries == (entries[0], (general, ("p", 1), 2), entries[2])
    assert source.next_id == 100 and store.mark() == 0


@pytest.mark.parametrize("count, limit", [(1, 1), (2, 2), (5, 3)])
def test_visit_at_the_limit_fails_and_changes_nothing(count, limit):
    store = BindStore()
    goal = atom("p", 1)
    key = lookup_key(goal, store.resolve)
    entries = ((goal, key, count),)
    counts, source = LfpCounts(entries), VarSource(100)
    assert counts.visited(goal, store, key, source, limit) is None
    assert counts.entries == entries
    assert source.next_id == 100 and store.mark() == 0


# revisit-count snapshots


def _snapshot(goal: Atom, store: BindStore, first_id: int = 100) -> tuple[Atom, int]:
    """The snapshot of ``goal`` under ``store`` and the number of fresh variables it took."""
    source = VarSource(first_id)
    snapshot = engine._snapshot_atom(goal, store, source)
    return snapshot, source.next_id - first_id


def _classes_reached(goal: Atom, store: BindStore) -> int:
    """Distinct variable classes reachable from ``goal``'s arguments through the store's bindings."""
    seen: set[int] = set()
    todo = list(goal.args)
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            rep = store.find(t.id)
            if rep in seen:
                continue
            seen.add(rep)
            t = store.resolve(t)
        if isinstance(t, Compound):
            todo.extend(t.args)
    return len(seen)


def test_snapshot_keeps_a_closed_argument():
    store = BindStore()
    L, M = Var(0), Var(1)
    assert unify(L, list_term([Int(1), Int(2), Int(3)], tail=L), store)
    goal = Atom("max", (L, M))
    snapshot, taken = _snapshot(goal, store)
    assert snapshot.args[0] is L  # closed: shared, not copied
    assert isinstance(snapshot.args[1], Var) and snapshot.args[1] != M  # open: a fresh variable
    assert taken == 2  # one per class reached: L's and M's


def test_snapshot_takes_one_variable_per_class_reached():
    # p(X, f(Y, Z), W, [1|Y]) with X = [1|X] (closed), Z = g(X, V) (open
    # through V) and W = Y: the classes reached are X, Y, Z and V.
    store = BindStore()
    X, Y, Z, W, V = (Var(i) for i in range(5))
    assert unify(X, Compound(".", (Int(1), X)), store)
    assert unify(Z, Compound("g", (X, V)), store)
    assert unify(W, Y, store)
    goal = Atom("p", (X, Compound("f", (Y, Z)), W, Compound(".", (Int(1), Y))))
    snapshot, taken = _snapshot(goal, store)
    assert taken == _classes_reached(goal, store) == 4
    assert snapshot.args[0] is X
    assert variant_equal(Compound("a", goal.args), store, Compound("a", snapshot.args), store)


snapshot_terms = st.recursive(
    st.integers(0, 2).map(Int) | st.integers(0, 5).map(Var) | st.just(Compound("[]")),
    lambda sub: st.builds(
        Compound, st.sampled_from(["f", "."]), st.lists(sub, min_size=1, max_size=2).map(tuple)
    ),
    max_leaves=6,
)


@given(
    st.lists(snapshot_terms, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 5), snapshot_terms), max_size=4),
)
def test_snapshot_is_a_variant_that_later_bindings_leave_alone(args, bindings):
    # Bindings whose term holds their own variable make cyclic structure.
    store = BindStore()
    for vid, term in bindings:
        unify(Var(vid), term, store)
    goal = Atom("p", tuple(args))
    snapshot, taken = _snapshot(goal, store)
    assert taken == _classes_reached(goal, store)
    original, copy = Compound("a", goal.args), Compound("a", snapshot.args)
    assert variant_equal(original, store, copy, store)
    before = unfold(copy, store, 12)
    for vid in range(6):  # every original variable still unbound
        if is_unbound(store, vid):
            assert unify(Var(vid), Compound("bound"), store)
    assert unfold(copy, store, 12) == before


@st.composite
def bound_goals(draw):
    """``(goal, bindings)``: a goal over a pool of terms, and bindings to make with ``unify``.

    Pool members are shared between arguments, bindings and one another;
    one member is nested up to 150 deep. A binding whose term holds its
    own variable makes a cycle, one to a variable aliases two classes,
    and a variable left unbound keeps its class open.
    """
    pool = draw(st.lists(snapshot_terms, min_size=1, max_size=4))

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(0, 3))):
        pool.append(Compound("h", (pick(), pick())))
    deep = pick()
    for _ in range(draw(st.sampled_from([0, 1, 30, 150]))):
        deep = Compound("s", (deep,))
    pool.append(deep)
    bindings = [(draw(st.integers(0, 5)), pick()) for _ in range(draw(st.integers(0, 6)))]
    args = tuple(pick() for _ in range(draw(st.integers(1, 4))))
    return Atom("p", args), bindings


def _bound_store(bindings) -> BindStore:
    store = BindStore()
    for vid, term in bindings:
        unify(Var(vid), term, store)  # a clash leaves the store as it was
    return store


@settings(max_examples=300)
@given(bound_goals())
def test_closed_reach_matches_the_node_walk(drawn):
    goal, bindings = drawn
    store = _bound_store(bindings)
    mapping: dict = {}
    for arg in goal.args:
        reached = engine._closed_reach(arg, store, mapping)
        expected = reference_closed_reach(arg, store, mapping)
        assert (reached is None) == (expected is None)
        if reached is not None:
            assert len(reached) == len(set(reached)) and set(reached) == set(expected)
            mapping.update((rep, Var(rep)) for rep in reached)


@settings(max_examples=300)
@given(bound_goals())
def test_snapshot_matches_the_reference(drawn):
    goal, bindings = drawn
    store, reference_store = _bound_store(bindings), _bound_store(bindings)
    source, reference_source = VarSource(100), VarSource(100)
    snapshot = engine._snapshot_atom(goal, store, source)
    assert snapshot == reference_snapshot_atom(goal, reference_store, reference_source)
    assert source.next_id == reference_source.next_id
    for vid in range(100, source.next_id):  # each fresh variable bound alike
        assert store.resolve(Var(vid)) == reference_store.resolve(Var(vid))


class _ClassCounter:
    """A store seen through a walk: records each class representative it finds."""

    def __init__(self, store: BindStore):
        self.store, self.classes = store, set()

    def find(self, vid: int) -> int:
        rep = self.store.find(vid)
        self.classes.add(rep)
        return rep

    def resolve(self, t):
        return self.store.resolve(t)


def _closedness_work(monkeypatch, program, text: str, mode: str) -> dict[str, int]:
    """Bounded steps, and the closedness work of a first answer: classes visited, records read and filled.

    Every compound whose record gets filled is filled by one call, once
    per query.
    """
    counts = {"steps": 0, "classes": 0, "records": 0, "filled": 0}
    filled: list = []  # kept alive, so ids stay distinct
    visited, closed_reach, var_record, fill_vars = (
        LfpCounts.visited, engine._closed_reach, engine.var_record, terms._fill_vars)

    def counted_visit(self, *args):
        counts["steps"] += 1
        return visited(self, *args)

    def counted_reach(term, store, mapping):
        seen = _ClassCounter(store)
        try:
            return closed_reach(term, seen, mapping)
        finally:
            counts["classes"] += len(seen.classes)

    def counted_record(t):
        counts["records"] += 1
        return var_record(t)

    def counted_fill(root):
        todo, new = [root], {}
        while todo:  # the compounds below root still lacking a record
            t = todo.pop()
            if id(t) not in new and not hasattr(t, "_vars"):
                new[id(t)] = t
                todo += [a for a in t.args if a.__class__ is Compound]
        assert not set(new) & {id(t) for t in filled}
        filled.extend(new.values())
        return fill_vars(root)

    monkeypatch.setattr(LfpCounts, "visited", counted_visit)
    monkeypatch.setattr(engine, "_closed_reach", counted_reach)
    monkeypatch.setattr(engine, "var_record", counted_record)
    monkeypatch.setattr(terms, "_fill_vars", counted_fill)
    assert next(iter(solve(program, parse_query(text), EngineConfig(mode=mode))), None) is not None
    monkeypatch.undo()
    counts["filled"] = len(filled)
    return counts


@pytest.mark.parametrize("mode, goal, sizes", [
    ("cofacts", "L = [{items}|L], all_pos(L)", (100, 1000)),
    ("inductive", "all_pos([{items}])", (500, 2000)),
])
def test_closedness_work_per_bounded_step_does_not_grow(running, monkeypatch, mode, goal, sizes):
    # A walk over term nodes would cross the rest of the list, or a whole
    # period, on every bounded step; the walk over variable records
    # crosses the classes the goal reaches, and each compound's record is
    # filled once.
    per_step = []
    for n in sizes:
        items = ", ".join(str(i) for i in range(1, n + 1))
        counts = _closedness_work(monkeypatch, running, f"?- {goal.format(items=items)}.", mode)
        assert counts["steps"] >= n
        per_step.append({k: counts[k] / counts["steps"] for k in ("classes", "records", "filled")})
    small, large = per_step
    for k in small:
        assert large[k] <= 1.05 * small[k] and large[k] <= 2, (k, per_step)


# hypothesis stratum


def test_co_empty_goal(running):
    assert sum(1 for _ in run_goals(running, (), BindStore())) == 1


def test_co_hyp_triggers_bounded_proof(running):
    # Under hypothesis max(L, M), the revisited goal max(L, M2) (with
    # M2 = M) succeeds through the enriched-program proof, yielding M2 = 2.
    store = BindStore()
    L, M, M2 = Var(1000), Var(1001), Var(1002)
    assert unify(L, list_term([Int(1), Int(2)], tail=L), store)
    assert unify(M2, M, store)
    hyp = Atom("max", (L, M))
    goal = (Atom("max", (L, M2)),)
    success = next(iter(run_goals(running, goal, store, (hyp,))), "fail")
    assert success is None
    assert rational_equal(M2, Int(2), store)


def test_self_loop_fails_under_defaults():
    # p :- p. with no co-facts: the hypothesis fires, the bounded proof
    # fails (no co-fact to bottom out on), the cut forbids re-stepping.
    loop = parse_program("p :- p.")
    assert ask(loop, "p.") is None


def test_unknown_predicate_fails(running):
    assert ask(running, "nonsense(1).") is None


def test_true_query_single_answer(running):
    answers = ask_all(running, "?- true.")
    assert len(answers) == 1
    assert answers[0].equations == []


def test_backtracking_enumerates_in_clause_order():
    picker = parse_program("pick(X, [X|_]).  pick(X, [_|T]) :- pick(X, T).")
    answers = ask_all(picker, "?- pick(X, [4, 5, 6]).")
    values = []
    for a in answers:
        (name, term), = a.equations
        assert name == "X"
        values.append(term)
    assert values == [Int(4), Int(5), Int(6)]


def test_guarded_member_is_deterministic_on_unbound_first_arg(running):
    # member's \= guard makes an unbound X unify with the head element,
    # so only the first element is enumerated; ground membership works.
    answers = ask_all(running, "?- member(X, [4, 5, 6]).")
    assert [dict(a.equations)["X"] for a in answers] == [Int(4)]
    assert succeeds(running, "?- member(6, [4, 5, 6]).")


def test_finite_max_never_revisits_so_cofacts_stay_idle(running):
    # On a finite list no goal recurs, the finiteness check never fires,
    # and the co-fact cannot leak in: the classic max is computed.
    answers = ask_all(running, "?- max([3, 1, 2], M).")
    assert [dict(x.equations)["M"] for x in answers] == [Int(3)]


def test_inductive_mode_finite_max_exact():
    # Without co-facts the classic inductive max is recovered on finite lists.
    plain = parse_program(
        "max([N], N).  max([N|L], M2) :- max(L, M), M2 is max(N, M)."
    )
    answers = ask_all(plain, "?- max([3, 1, 2], M).", mode="inductive")
    assert [dict(a.equations)["M"] for a in answers] == [Int(3)]


def test_answer_store_extends_initial_equations(running):
    # Equation sets only grow along a derivation: at every answer the
    # query's initial equations are already solved in the store, so
    # re-unifying them adds nothing to the trail.
    query = parse_query("?- L = [1,2|L], max(L, M).")
    store = BindStore()
    eq = query.goal.atoms[0]
    assert eq.predicate == "="
    count = 0
    for _ in run_goals(running, query.goal.atoms, store):
        before = store.mark()
        assert unify(eq.args[0], eq.args[1], store)
        assert store.mark() == before
        count += 1
    assert count == 3  # three solution-equivalent derivations of the answer


def test_budget_signal_is_distinct_from_failure():
    loop = parse_program("p :- p.")
    with pytest.raises(ResourceLimitError):
        list(solve(loop, parse_query("p."), EngineConfig(hyp_cut=False, step_budget=500)))
    # same query, enough budget to fail honestly under the cut
    assert ask(loop, "p.", step_budget=500) is None


def test_step_budget_counts_every_step():
    # Three builtin goals take three steps: a budget of 3 suffices, 2 does not.
    text = "?- X = 1, Y = 2, Z = 3."
    for budget in (3, None):
        answer = ask(Program(), text, step_budget=budget)
        assert answer.equations == [("X", Int(1)), ("Y", Int(2)), ("Z", Int(3))]
    with pytest.raises(ResourceLimitError) as raised:
        ask(Program(), text, step_budget=2)
    assert str(raised.value) == "step budget of 2 exhausted"


# closed goals: the cut and the outcome table

# Corpus seed 11's program: Gen(P, C) = CoInd(P) = {}. Without the cut, each
# hit's bounded proof over P plus the universal co-facts has many solutions,
# and the search reruns the rest of the goal list for each.
SEED_11 = ("p(1) :- p(X0), p(2). p(2) :- p(0), p(X0). p(2) :- p(2), p(0). p(0) :- p(3), p(1)."
           " cofact(p(3)). cofact(p(0)).")

# p(1)'s hit starts a bounded proof of several steps; a second hit on p(1) is
# answered by the query's table.
TWO_HITS = """
p(X) :- chain(X), p(X).
chain(X) :- a(X), b(X), c(X).
a(1). b(1). c(1).
cofact(p(1)).
"""


def _texts(program, text, mode="cofacts", **cfg) -> list[str]:
    return [format_answer(a) for a in solve(program, parse_query(text), EngineConfig(mode=mode, **cfg))]


def _smallest_budget(program, text) -> tuple[int, list[str]]:
    """The smallest step budget that runs the whole search, and its answers."""
    budget = 0
    while True:
        try:
            return budget, _texts(program, text, step_budget=budget)
        except ResourceLimitError:
            budget += 1


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_seed_11_program_fails_within_a_small_budget(limit):
    # Without the cut, limit 2 needs about 500,000 steps and limit 3 more than 1,000,000.
    program = parse_program(SEED_11)
    assert _texts(program, "?- p(1).", "coinductive", lfp_revisit_limit=limit, step_budget=1_000) == []


def test_closed_hit_proof_succeeds_once():
    # Without the cut: two answers, one per solution of the bounded proof.
    assert _texts(parse_program("p(1) :- p(1). cofact(p(1))."), "?- p(1).") == ["true."]


def test_closed_cyclic_hit_proof_succeeds_once(running):
    # Not flat, but closed at its hit: without the cut, four answers.
    assert _texts(running, "?- L = [1,2|L], all_pos(L).") == ["L = [1, 2|L]"]


@pytest.mark.parametrize("text, answers", [
    ("?- L = [1,2|L], max(L, M).", ["L = [1, 2|L]\nM = 2"] * 3),
    ("?- L = [3,1,2|L], max(L, M).", ["L = [3, 1, 2|L]\nM = 3"] * 6),
])
def test_open_hit_proof_keeps_every_answer(running, text, answers):
    # M is unbound at max's hit, so its proof is not cut: the answers are the
    # same derivations as without the cut, duplicates included.
    assert _texts(running, text) == answers


def test_closed_flat_goal_of_an_inductive_query_succeeds_once():
    assert _texts(parse_program("p(1). p(1)."), "?- p(1).", "inductive") == ["true."]


def test_second_hit_on_a_closed_atom_takes_its_outcome_from_the_table():
    program = parse_program(TWO_HITS)
    once = _smallest_budget(program, "?- p(1).")
    twice = _smallest_budget(program, "?- p(1), p(1).")
    assert once == (17, ["true."])
    # Without the table and the cut the query needs 51 steps and answers
    # `true.` four times; the second p(1) now costs less than the first.
    assert twice == (24, ["true."])
    assert twice[0] - once[0] < once[0]


def test_second_hit_on_a_closed_atom_takes_a_failure_from_the_table():
    # The first r clause's hit proof of p(1) fails on q. The second clause
    # pays one step for r, one for p(1) and one for the hit, whose outcome
    # the table gives without rerunning the proof.
    clause = "r :- p(1). "
    rest = "p(1) :- p(1), q. q :- q."
    assert _smallest_budget(parse_program(clause + rest), "?- r.") == (6, [])
    assert _smallest_budget(parse_program(clause * 2 + rest), "?- r.") == (9, [])


def test_a_hit_proof_cut_short_by_the_budget_raises():
    # A proof records a failure when it starts, and its cut marker records
    # a success. A budget stop raises out of the search, and the table goes
    # with it unread: the query raises at every budget short of the whole
    # search.
    program = parse_program(TWO_HITS)
    for budget in range(24):  # every budget short of the whole search, some inside a hit proof
        with pytest.raises(ResourceLimitError):
            _texts(program, "?- p(1), p(1).", step_budget=budget)
    assert _texts(program, "?- p(1), p(1).", step_budget=24) == ["true."]


def test_a_flat_closed_goal_takes_one_hit_per_atom(monkeypatch):
    # Without hyp_cut every r on the branch is a hypothesis. Taking one hit
    # per identical hypothesis, the search made 149 lookups with 5,550 hits
    # and answered `true.` 2,773 times before the budget ran out. Now a goal
    # takes one hit per atom, and its clause bodies see one hypothesis per
    # atom: one hit per lookup.
    hits = []  # per lookup
    lookup = engine.hyp_lookup

    def counted(*args):
        found = lookup(*args)
        hits.append(len(found))
        return found

    monkeypatch.setattr(engine, "hyp_lookup", counted)
    program = parse_program("r :- r, r.  cofact(r).")
    answers = []
    with pytest.raises(ResourceLimitError):
        for answer in solve(program, parse_query("?- r."), EngineConfig(hyp_cut=False, step_budget=3_000)):
            answers.append(format_answer(answer))
    assert (len(hits), sum(hits), max(hits)) == (1_499, 1_498, 1)
    assert (len(answers), set(answers)) == (748, {"true."})


def _count_unifiable_hypotheses(monkeypatch) -> list[int]:
    """Wrap ``hyp_lookup``; the returned list gets, per lookup, the number of unifiable hypothesis pairs."""
    pairs = []
    lookup = engine.hyp_lookup

    def checked(atom, context, store, key):
        held, found, entry = [], 0, context
        while entry is not None:
            h, _, entry = entry
            for other in held:
                start = store.mark()
                found += engine.unify_atoms(h, other, store)
                store.rollback(start)
            held.append(h)
        pairs.append(found)
        return lookup(atom, context, store, key)

    monkeypatch.setattr(engine, "hyp_lookup", checked)
    return pairs


def _run_capped(program, query, config, answers=12) -> None:
    try:
        for _ in zip(range(answers), solve(program, query, config)):
            pass
    except CologicError:  # the budget, or arithmetic on an open list
        pass


def test_hypotheses_on_a_branch_never_unify_under_the_cut(monkeypatch, running):
    # A goal with hits is never pushed, and one without unifies with no
    # hypothesis on its branch, so no two hypotheses unify: a flat closed
    # goal meets at most one twin, and _run skips _drop_twins.
    from cologic.oracle import herbrand_base, universe_for
    from corpus import corpus

    pairs = _count_unifiable_hypotheses(monkeypatch)
    cases = [(running, parse_query(text)) for text in (
        "?- all_pos([1, 2, 3]).", "?- member(X, [1, 2, 3]).", "?- max([3, 1, 2], M).",
        "?- L = [1, 2|L], all_pos(L).", "?- L = [1, 2|L], member(X, L).",
        "?- L = [3, 1, 2|L], max(L, M).", "?- L = [1, 2|L], member(3, L).")]
    for program in corpus(seed=4242, count=200, max_clauses=8):
        for name, arity in sorted(program.predicates()):
            general = Atom(name, tuple(Var(i) for i in range(arity)))
            cases.append((program, Query(Goal((general,)), {i: f"V{i}" for i in range(arity)})))
        base = herbrand_base(program.extended(), universe_for(program))
        cases += [(program, Query(Goal((a,)), {})) for a in sorted(base, key=str)]
    for mode in ("cofacts", "coinductive"):
        for program, query in cases:
            _run_capped(program, query, EngineConfig(mode=mode, step_budget=3_000))
    assert len(pairs) > 10_000 and not any(pairs)


def test_hypotheses_on_a_branch_may_unify_without_the_cut(monkeypatch):
    # Without hyp_cut a goal with hits is pushed too: p(_) meets p(_).
    pairs = _count_unifiable_hypotheses(monkeypatch)
    program = parse_program("p(X) :- p(Y). cofact(p(a)).")
    _run_capped(program, parse_query("?- p(Z)."), EngineConfig(hyp_cut=False, step_budget=30))
    assert any(pairs)


def test_instantiation_error_propagates(running):
    with pytest.raises(InstantiationError):
        ask(running, "?- all_pos(L), L = [1|L].", mode="inductive")


def test_equation_first_inductive_all_pos_fails(running):
    assert not succeeds(running, "?- L = [1|L], all_pos(L).", mode="inductive")


# modes


def test_mode_validation():
    with pytest.raises(ValueError):
        EngineConfig(mode="bogus")
    with pytest.raises(ValueError):
        EngineConfig(lfp_revisit_limit=0)


@pytest.mark.parametrize("field, value", [("mode", "bogus"), ("step_budget", -1),
                                          ("lfp_revisit_limit", 0), ("hyp_cut", False)])
def test_config_is_frozen(field, value):
    # Assignment would skip __post_init__'s checks; dataclasses.replace runs them.
    config = EngineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)
    assert config == EngineConfig()


def test_coinductive_mode_matches_manual_universal_cofacts(running):
    from cologic.terms import with_universal_cofacts

    manual = with_universal_cofacts(running)
    for q in (
        "?- L = [1,2|L], member(3, L).",
        "?- L = [1,2|L], member(1, L).",
        "?- L = [1,2|L], all_pos(L).",
    ):
        assert succeeds(running, q, mode="coinductive") == succeeds(manual, q, mode="cofacts")
    # Universal co-facts meet arithmetic: the max goal reaches `is` with an
    # unbound argument in both formulations; parity includes the error.
    for prog, mode in ((running, "coinductive"), (manual, "cofacts")):
        with pytest.raises(InstantiationError):
            ask(prog, "?- L = [1,2|L], max(L, 4).", mode=mode)


def test_coinductive_mode_builds_universal_program_once(monkeypatch):
    from cologic import terms

    built = []
    build = terms.with_universal_cofacts
    monkeypatch.setattr(terms, "with_universal_cofacts", lambda p: built.append(p) or build(p))
    program = parse_program("p :- p.")
    assert not succeeds(program, "p.")
    assert built == []  # neither parsing nor a cofacts query builds it
    for _ in range(2):
        assert succeeds(program, "p.", mode="coinductive")
    assert built == [program]
    assert program.universal is program.universal


def test_each_mode_builds_only_its_indexes_once():
    text = "p(X) :- q(X), p(X).  q(1).  cofact(p(1))."
    program = parse_program(text)
    assert not succeeds(program, "p(1).", mode="inductive")  # the co-fact is not a fact here
    assert "index" in program.__dict__
    assert "extended_index" not in program.__dict__
    assert "universal" not in program.__dict__

    program = parse_program(text)
    names = ("index", "extended_index", "next_var_id")
    built = []
    for _ in range(2):
        assert succeeds(program, "p(1).", mode="cofacts")
        assert succeeds(program, "p(1).", mode="coinductive")
        built.append([program.__dict__[name] for name in names]
                     + [program.universal.__dict__["extended_index"]])
    assert all(map(operator.is_, *built))
    # The universal program's clauses are the program's: its bare index is never needed.
    assert "index" not in program.universal.__dict__


MODE_COHERENCE_CORPUS = [
    # Engine-level inductive == cofacts-with-empty-cofacts holds on this
    # curated corpus. It is not a theorem: the hypothesis cut can lose
    # answers asymmetrically (see test below).
    ("p(0) :- p(0), p(1).  p(1) :- p(0), p(1).", ["p(0).", "p(1)."]),
    ("p :- p.", ["p."]),
    ("e(0).  o(1).  e(X) :- fail.  n(X) :- e(X).", ["e(0).", "n(0).", "n(1).", "o(1)."]),
    ("max([N], N).  max([N|L], M2) :- max(L, M), M2 is max(N, M).",
     ["max([2, 7, 1], 7).", "max([2, 7, 1], 9)."]),
    ("member(X, [X|_]).  member(X, [Y|L]) :- X \\= Y, member(X, L).",
     ["member(2, [1, 2]).", "member(3, [1, 2])."]),
    ("t(X) :- s(X).  s(0).  s(X) :- t(X).", ["t(0).", "t(1).", "s(0)."]),
]


def test_mode_coherence_on_regression_corpus():
    for text, queries in MODE_COHERENCE_CORPUS:
        program = parse_program(text)
        bare = Program(program.clauses, (), program.var_names)
        for q in queries:
            inductive = succeeds(program, q, mode="inductive")
            via_empty_cofacts = succeeds(bare, q, mode="cofacts")
            assert inductive == via_empty_cofacts, (text, q)


def test_hyp_cut_completeness_loss_is_mode_asymmetric():
    # Documented counterexample: the revisited p(X) unifies with the
    # hypothesis p(1), the continuation q(1) fails, and the cut blocks
    # the ordinary-clause route that inductive mode uses (X = 0).
    program = parse_program("p(1) :- p(X), q(X).  p(0).  q(0).")
    assert succeeds(program, "p(1).", mode="inductive")
    assert not succeeds(program, "p(1).", mode="cofacts")
    # Soundness is unaffected: p(1) really is in the inductive semantics.
    from cologic import generated_semantics, universe_for

    gen = generated_semantics(program, universe_for(program))
    assert atom("p", 1) in gen


def test_hypothesis_stack_restored_across_backtracking(running):
    # If hypotheses leaked across alternatives, member(2, L) on the cyclic
    # list would see a stale member hypothesis and change its answers.
    answers = ask_all(running, "?- L = [1,2|L], member(2, L).")
    assert len(answers) >= 1
    res_answers = ask_all(running, "?- L = [1,2|L], member(3, L).")
    assert res_answers == []


def test_solve_accepts_plain_goal(pq):
    got = list(solve(pq, Goal((atom("p", 0),))))
    assert got == []


def test_fresh_variables_clear_query_ids(running, monkeypatch):
    # Fresh renamings must never collide with query variable ids.
    query = parse_query("?- L = [1,2|L], max(L, M).")
    first_ids = []
    rename = engine.fresh_rename

    def recorded(clause, source):
        first_ids.append(source.next_id)
        return rename(clause, source)

    monkeypatch.setattr(engine, "fresh_rename", recorded)
    assert next(solve(running, query), None) is not None
    assert first_ids and min(first_ids) > max(query.var_names)


def test_max_with_unbound_list_first_answer_then_error(running):
    # Generating lists whose max is 2: the singleton [2] comes first;
    # deeper alternatives reach `is` over unbound variables, which is an
    # error by contract (not silent failure).
    stream = iter(solve(running, parse_query("?- max(L, 2).")))
    first = next(stream, None)
    assert first is not None
    assert dict(first.equations)["L"] == list_term([Int(2)])
    with pytest.raises(InstantiationError):
        next(stream, None)


def test_rational_stream_of_zeros():
    # The canonical infinite-stream predicate: holds on the cyclic list of
    # zeros because the revisited goal bottoms out on the co-fact.
    program = parse_program("zeros([0|L]) :- zeros(L).  cofact(zeros(_)).")
    assert succeeds(program, "?- L = [0|L], zeros(L).")
    assert not succeeds(program, "?- L = [1|L], zeros(L).")
    assert not succeeds(program, "?- L = [0|L], zeros(L).", mode="inductive")
    assert succeeds(program, "?- L = [0, 0|L], zeros(L).")


@pytest.mark.parametrize("tail", ["", "|T"])
def test_a_fact_holding_a_long_list_renames(tail):
    # Renaming keeps its own stack, so a 1,500-element list in a fact does
    # not reach the recursion limit (ground or not).
    items = ", ".join(str(i) for i in range(1500))
    program = parse_program(f"big([{items}{tail}]).")
    assert ask(program, "?- big([0|T]), T = [2|_].") is None
    assert ask(program, "?- big([0, 1|_]).") is not None


def test_shared_variable_cofact_instantiates_per_use():
    # cofact(r(Z, Z)) admits only the diagonal; each use is a fresh renaming.
    program = parse_program("r(X, Y) :- r(Y, X).  cofact(r(Z, Z)).")
    assert succeeds(program, "?- r(0, 0).")
    assert not succeeds(program, "?- r(0, 1).")
    from cologic import generated_semantics, universe_for

    # the program itself mentions no constants; the universe comes from queries
    universe = universe_for(program, Goal((atom("r", 0, 0), atom("r", 1, 1))))
    gen = generated_semantics(program, universe)
    assert gen == frozenset({atom("r", 0, 0), atom("r", 1, 1)})


def test_cyclic_graph_reachability_golden():
    # Nodes with an infinite outgoing path: the two-cycle, its entry
    # point, and a self-loop; not the edge-less node. Cross-checked
    # against the declarative oracle (the program is constants-only).
    program = parse_program(
        """
        e(a, b).  e(b, a).  e(c, a).  e(d, d).
        on_cycle(X) :- e(X, Y), on_cycle(Y).
        cofact(on_cycle(_)).
        """
    )
    expectations = {"a": True, "b": True, "c": True, "d": True, "z": False}
    for node, expected in expectations.items():
        assert succeeds(program, f"?- on_cycle({node}).") == expected, node
    from cologic import generated_semantics, universe_for

    gen = generated_semantics(program, universe_for(program))
    reachable = {a.args[0].functor for a in gen if a.predicate == "on_cycle"}
    assert reachable == {"a", "b", "c", "d"}


def test_nonground_query_answers_are_sound():
    # Every ground instance of an answer must lie in the generated
    # semantics; this exercises answer extraction on non-ground queries,
    # not just ground success/failure.
    import itertools

    from cologic import generated_semantics, universe_for
    from cologic.oracle import herbrand_base
    from corpus import corpus
    from helpers import answer_store

    config = EngineConfig(step_budget=200_000)
    for program in corpus(seed=777, count=40):
        universe = universe_for(program)
        gen = generated_semantics(program, universe)
        constants = universe.constants
        for name, arity in sorted(program.predicates()):
            query = Query(
                Goal((Atom(name, tuple(Var(i) for i in range(arity))),)),
                {i: f"V{i}" for i in range(arity)},
            )
            try:
                answers = list(itertools.islice(solve(program, query, config), 8))
            except ResourceLimitError:
                continue
            for answer in answers:
                store, var_of = answer_store(answer)
                resolved = [store.resolve(var_of[f"V{i}"]) for i in range(arity)]
                free = sorted(
                    {store.find(t.id) for t in resolved if isinstance(t, Var)}
                )
                for combo in itertools.product(constants, repeat=len(free)):
                    fill = dict(zip(free, combo))
                    args = tuple(
                        fill[store.find(t.id)] if isinstance(t, Var) else t
                        for t in resolved
                    )
                    assert Atom(name, args) in gen, (program, name, args)


def test_soundness_stress_under_varied_configs():
    # Broader sweep than the acceptance criterion: more programs, and the
    # risky configurations (no hypothesis cut, larger revisit limit). A
    # budget catches divergence without the cut; an aborted search proves
    # nothing and so cannot be unsound.
    from cologic import generated_semantics, universe_for
    from cologic.oracle import herbrand_base
    from corpus import corpus

    configs = [
        EngineConfig(),
        EngineConfig(lfp_revisit_limit=3),
        EngineConfig(hyp_cut=False, step_budget=3_000),
    ]
    for program in corpus(seed=99, count=40):
        universe = universe_for(program)
        gen = generated_semantics(program, universe)
        base = herbrand_base(program.extended(), universe)
        for config in configs:
            for ground_atom in sorted(base, key=str):
                try:
                    answer = next(
                        iter(solve(program, Query(Goal((ground_atom,)), {}), config)),
                        None,
                    )
                except ResourceLimitError:
                    continue
                if answer is not None:
                    assert ground_atom in gen, (program, ground_atom, config)


# clause index

# One predicate whose heads mix a variable, a constant, an integer, a
# compound and a list in first position: 7 clauses, or 17 with the padding.
# The ids "scanned" and "tabled" name these two sizes; they are kept from
# when groups of at most 8 clauses were scanned, so the test ids stay stable.
INDEXED = """
k(X, var).
k(a, const).
k(3, int).
{padding}k(f(Y), compound).
k([1|T], list).
k(a, const2).
k(Z, var2).
cofact(k(a, cofact)).
"""
PADDINGS = ("", "".join(f"k(pad({i}), pad).\n" for i in range(10)))


def _column(program, text, name, mode="cofacts"):
    """The rendered value of one query variable in every answer, in order."""
    out = []
    for answer in ask_all(program, text, mode=mode):
        term = dict(answer.equations)[name]
        out.append(render_term(term, answer.names))
    return out


def _labels(clauses):
    """The second head argument of each clause, which names it in ``INDEXED``."""
    return [render_term(c.head.args[1]) for c in clauses]


@pytest.fixture(params=PADDINGS, ids=("scanned", "tabled"))
def indexed(request):
    return parse_program(INDEXED.format(padding=request.param)), request.param


@pytest.mark.parametrize("mode", ["cofacts", "inductive", "coinductive"])
def test_index_keeps_program_order_in_every_mode(indexed, mode):
    program, padding = indexed
    pads = ["pad"] * padding.count("\n")
    every = ["var", "const", "int", *pads, "compound", "list", "const2", "var2"]
    assert _column(program, "?- k(A, B).", "B", mode) == every
    assert _column(program, "?- k(a, B).", "B", mode) == ["var", "const", "const2", "var2"]
    assert _column(program, "?- k(3, B).", "B", mode) == ["var", "int", "var2"]
    assert _column(program, "?- k(f(1), B).", "B", mode) == ["var", "compound", "var2"]
    assert _column(program, "?- k([1, 2], B).", "B", mode) == ["var", "list", "var2"]
    assert _column(program, "?- k(b, B).", "B", mode) == ["var", "var2"]
    assert _column(program, "?- k(4, B).", "B", mode) == ["var", "var2"]


def test_index_selects_on_the_first_bound_position(indexed):
    program, _ = indexed
    goal, resolve = Atom("k", (Var(1000), Compound("const"))), BindStore().resolve
    assert _labels(program.index.candidates(goal, lookup_key(goal, resolve), resolve)) == ["const"]
    assert _column(program, "?- k(A, const).", "A") == ["a"]
    assert _column(program, "?- k(A, var2).", "A") == ["A"]  # left unbound


def test_index_reads_a_bound_first_argument_from_the_key(indexed):
    program, _ = indexed
    store = BindStore()
    X = Var(1000)
    assert unify(X, Compound("a"), store)
    goal = Atom("k", (X, Var(1001)))
    key = lookup_key(goal, store.resolve)

    def no_resolve(term):
        raise AssertionError(f"resolved {term!r}")

    expected = ["var", "const", "const2", "var2"]
    assert _labels(program.index.candidates(goal, key, no_resolve)) == expected


def test_solve_walks_the_goal_only_without_a_parsed_bound(monkeypatch):
    walks = []
    walk = engine.max_var_id
    monkeypatch.setattr(engine, "max_var_id", lambda *items: walks.append(items) or walk(*items))
    program = parse_program("p(f(X)).")
    query = parse_query("?- p(Y), Z = Y.")
    expected = [[("Y", Compound("f", (Var(2),))), ("Z", Compound("f", (Var(2),)))]]
    assert [a.equations for a in solve(program, query)] == expected
    assert walks == []
    # A hand-built query and a bare goal are walked, and answer the same.
    assert [a.equations for a in solve(program, Query(query.goal, query.var_names))] == expected
    assert [a.equations for a in solve(program, query.goal)] == [[]]
    assert walks == [(query.goal,), (query.goal,)]


def test_index_dereferences_an_alias_chain(indexed):
    program, _ = indexed
    store = BindStore()
    X, Y, Z = Var(1000), Var(1001), Var(1002)
    assert unify(X, Y, store) and unify(Y, Z, store) and unify(Z, Compound("a"), store)
    goal = Atom("k", (X, Var(1003)))
    key = lookup_key(goal, store.resolve)
    assert _labels(program.index.candidates(goal, key, store.resolve)) == ["var", "const", "const2", "var2"]
    query = "?- X = Y, Y = Z, Z = a, k(X, B)."
    assert _column(program, query, "B") == ["var", "const", "const2", "var2"]


def test_index_on_a_cyclic_first_argument(indexed):
    program, _ = indexed
    assert _column(program, "?- L = [1|L], k(L, B).", "B") == ["var", "list", "var2"]
    assert _column(program, "?- L = [2|L], k(L, B).", "B") == ["var", "var2"]
    assert _column(program, "?- L = [1|L], k(L, B).", "L") == ["[1|L]"] * 3


def test_index_cofacts_last_in_bounded_stratum_only(indexed):
    program, _ = indexed
    for extended, expected in ((False, ["var", "const", "const2", "var2"]),
                               (True, ["var", "const", "const2", "var2", "cofact"])):
        store = BindStore()
        B = Var(1000)
        goal = (Atom("k", (Compound("a"), B)),)
        runs = run_goals(program, goal, store, counts=LfpCounts() if extended else None)
        assert [render_term(store.resolve(B)) for _ in runs] == expected
    store = BindStore()
    goal = Atom("k", (Compound("a"), Var(1000)))
    key = lookup_key(goal, store.resolve)
    assert _labels(program.extended_index.candidates(goal, key, store.resolve))[-1] == "cofact"
    assert "cofact" not in _labels(program.index.candidates(goal, key, store.resolve))


# Head arguments for the random groups: variables, constants, integers,
# compounds and lists, drawn per position, so they interleave in every column.
_HEAD_ARGS = st.sampled_from([
    Var(0), Var(1), Compound("a"), Compound("b"), Int(0), Int(1), Compound("f", (Var(0),)),
    Compound("f", (Compound("a"),)), Compound("g", (Var(1), Var(0))), Compound("[]"),
    list_term([Int(1)], Var(1)), list_term([Int(0), Int(1)]),
])
# A goal argument: unbound (None) or one of these terms, reached through an
# alias chain of 0-3 variables.
_GOAL_ARGS = st.tuples(
    st.one_of(st.none(), st.sampled_from([Compound("a"), Compound("b"), Compound("c"), Int(0), Int(1),
                                          Int(2), Compound("f", (Var(9),)), Compound("g", (Int(0), Int(1))),
                                          Compound("[]"), list_term([Int(1)])])),
    st.integers(0, 3),
)


def _goal(store: BindStore, source: VarSource, predicate: str, args) -> Atom:
    """An atom over ``args``; an argument with links is a chain of that many fresh aliases."""
    out = []
    for term, links in args:
        if not links:
            out.append(source.fresh() if term is None else term)
            continue
        chain = [source.fresh() for _ in range(links)]
        for older, newer in zip(chain, chain[1:]):
            assert unify(older, newer, store)
        if term is not None:
            assert unify(chain[-1], term, store)
        out.append(chain[0])
    return Atom(predicate, tuple(out))


@settings(max_examples=150, deadline=None)
@given(
    heads=st.lists(st.tuples(_HEAD_ARGS, _HEAD_ARGS), max_size=20),
    cofacts=st.lists(st.tuples(_HEAD_ARGS, _HEAD_ARGS), max_size=3),
    goals=st.lists(st.tuples(st.sampled_from(["k", "k", "k", "m"]), st.tuples(_GOAL_ARGS, _GOAL_ARGS)),
                   min_size=1, max_size=6),
)
def test_index_picks_what_a_scan_picks(heads, cofacts, goals):
    # Each clause's body names its place, so equal heads stay apart.
    clauses = tuple(Clause(Atom("k", head), (atom("at", i),)) for i, head in enumerate(heads))
    program = Program(clauses + (Clause(atom("m", "a")),), tuple(Atom("k", args) for args in cofacts))
    store, source = BindStore(), VarSource(1000)
    for predicate, args in goals:
        goal = _goal(store, source, predicate, args)
        for index, sequence in ((program.index, program.clauses),
                                (program.extended_index, program.extended())):
            expected = reference_candidates(sequence, goal, store.resolve)
            key = lookup_key(goal, store.resolve)
            # The first call builds the position's table; the second reads it.
            assert list(index.candidates(goal, key, store.resolve)) == expected
            assert list(index.candidates(goal, key, store.resolve)) == expected


def test_program_is_immutable(indexed):
    program, _ = indexed
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.clauses = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.cofacts = ()
