"""Resolution engine: builtins, both strata, modes, budgets, backtracking."""

from __future__ import annotations

import dataclasses

import pytest

from cologic import (
    Atom,
    BindStore,
    Compound,
    EngineConfig,
    EvaluationError,
    Goal,
    InstantiationError,
    Int,
    LfpCounts,
    Program,
    Query,
    Resolution,
    ResourceLimitError,
    Var,
    VarSource,
    eval_builtin,
    hyp_lookup,
    is_builtin,
    list_term,
    parse_program,
    parse_query,
    rational_equal,
    render_term,
    solve,
    unify,
)
from helpers import PQ_EXAMPLE, RUNNING_EXAMPLE, ask, ask_all, atom, succeeds


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
    assert store.is_unbound(x.id)
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


def test_true_fail():
    store = BindStore()
    assert eval_builtin(Atom("true"), store)
    assert not eval_builtin(Atom("fail"), store)


# hypothesis lookup


def test_hyp_lookup_unifies_under_current_store():
    store = BindStore()
    L, M, M2 = Var(0), Var(1), Var(2)
    unify(L, list_term([Int(1), Int(2)], tail=L), store)
    unify(M2, M, store)
    hyp = Atom("max", (L, M))
    found = hyp_lookup(Atom("max", (L, M2)), (hyp,), store)
    assert found == [hyp]
    assert store.is_unbound(M.id)  # trial rolled back


def test_hyp_lookup_filters_predicate_and_orders_recent_first():
    store = BindStore()
    assert hyp_lookup(atom("member", 3, 1), (), store) == []
    hyps = (atom("p", 0), atom("q", 0))
    assert hyp_lookup(Atom("p", (Var(5),)), hyps, store) == [atom("p", 0)]
    two = (Atom("p", (Var(1),)), Atom("p", (Var(2),)))
    assert hyp_lookup(Atom("p", (Var(5),)), two, store) == [two[1], two[0]]


# bounded SLD stratum


def test_lfp_empty_goal_succeeds_without_binding(running):
    res = Resolution(running)
    assert sum(1 for _ in res.solve_lfp((), LfpCounts())) == 1
    assert res.store.mark() == 0


def test_lfp_pq_cofact_usable_anywhere(pq):
    # p(0) is provable outright (the co-fact acts as a fact of the
    # enriched program); p(1) dies against the revisit limit.
    res = Resolution(pq)
    assert any(True for _ in res.solve_lfp((atom("p", 0),), LfpCounts()))
    res = Resolution(pq)
    assert not any(True for _ in res.solve_lfp((atom("p", 1),), LfpCounts()))


def test_lfp_running_example_mid_derivation(running):
    # Goal max(L, M2) with L = [1,2|L] and M2 = M succeeds binding M2 to 2.
    res = Resolution(running)
    L, M, M2 = Var(1000), Var(1001), Var(1002)
    assert unify(L, list_term([Int(1), Int(2)], tail=L), res.store)
    assert unify(M2, M, res.store)
    goal = (Atom("max", (L, M2)),)
    success = next(iter(res.solve_lfp(goal, LfpCounts())), "fail")
    assert success is None
    assert rational_equal(M2, Int(2), res.store)
    assert rational_equal(M, Int(2), res.store)


def test_lfp_revisit_limit_configurable():
    # chain p(N) :- p(N+1)-ish depth via distinct atoms is unaffected;
    # self-recursion dies at the limit.
    loop = parse_program("p :- p.")
    res = Resolution(loop, EngineConfig(lfp_revisit_limit=5))
    assert not any(True for _ in res.solve_lfp((Atom("p"),), LfpCounts()))


# hypothesis stratum


def test_co_empty_goal(running):
    res = Resolution(running)
    assert sum(1 for _ in res.solve_co((), ())) == 1


def test_co_hyp_triggers_bounded_proof(running):
    # Under hypothesis max(L, M), the revisited goal max(L, M2) (with
    # M2 = M) succeeds through the enriched-program proof, yielding M2 = 2.
    res = Resolution(running)
    L, M, M2 = Var(1000), Var(1001), Var(1002)
    assert unify(L, list_term([Int(1), Int(2)], tail=L), res.store)
    assert unify(M2, M, res.store)
    hyp = Atom("max", (L, M))
    goal = (Atom("max", (L, M2)),)
    success = next(iter(res.solve_co(goal, (hyp,))), "fail")
    assert success is None
    assert rational_equal(M2, Int(2), res.store)


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
    source = VarSource(max(query.var_names) + 1)
    res = Resolution(running, var_source=source)
    eq = query.goal.atoms[0]
    assert eq.predicate == "="
    count = 0
    for _ in res.solve_co(query.goal.atoms, ()):
        before = res.store.mark()
        assert unify(eq.args[0], eq.args[1], res.store)
        assert res.store.mark() == before
        count += 1
    assert count == 3  # three solution-equivalent derivations of the answer


def test_budget_signal_is_distinct_from_failure():
    loop = parse_program("p :- p.")
    with pytest.raises(ResourceLimitError):
        list(solve(loop, parse_query("p."), EngineConfig(hyp_cut=False, step_budget=500)))
    # same query, enough budget to fail honestly under the cut
    assert ask(loop, "p.", step_budget=500) is None


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


def test_coinductive_mode_matches_manual_universal_cofacts(running):
    from cologic import with_universal_cofacts

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


def test_resolution_var_source_clears_query_ids(running):
    # Fresh renamings must never collide with query variable ids.
    query = parse_query("?- L = [1,2|L], max(L, M).")
    source = VarSource(max(query.var_names) + 1)
    res = Resolution(running, var_source=source)
    assert res.vars.next_id > max(query.var_names)


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

    from cologic import generated_semantics, herbrand_base, universe_for
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
    from cologic import generated_semantics, herbrand_base, universe_for
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
# compound and a list in first position. The padding clauses push the group
# past the size at which the index stops scanning and builds position tables.
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
    goal = Atom("k", (Var(1000), Compound("const")))
    assert _labels(program.index.candidates(goal, False, BindStore().resolve)) == ["const"]
    assert _column(program, "?- k(A, const).", "A") == ["a"]
    assert _column(program, "?- k(A, var2).", "A") == ["A"]  # left unbound


def test_index_dereferences_an_alias_chain(indexed):
    program, _ = indexed
    store = BindStore()
    X, Y, Z = Var(1000), Var(1001), Var(1002)
    assert unify(X, Y, store) and unify(Y, Z, store) and unify(Z, Compound("a"), store)
    goal = Atom("k", (X, Var(1003)))
    assert _labels(program.index.candidates(goal, False, store.resolve)) == [
        "var", "const", "const2", "var2"]
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
        res = Resolution(program)
        B = Var(1000)
        goal = (Atom("k", (Compound("a"), B)),)
        if extended:
            runs = res.solve_lfp(goal, LfpCounts())
        else:
            runs = res.solve_co(goal, ())
        assert [render_term(res.store.resolve(B)) for _ in runs] == expected
    store = BindStore()
    goal = Atom("k", (Compound("a"), Var(1000)))
    assert _labels(program.index.candidates(goal, True, store.resolve))[-1] == "cofact"
    assert "cofact" not in _labels(program.index.candidates(goal, False, store.resolve))


def test_program_is_immutable(indexed):
    program, _ = indexed
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.clauses = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.cofacts = ()
