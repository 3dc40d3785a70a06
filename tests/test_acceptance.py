"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the informational completeness ratio.
"""

from __future__ import annotations

import random
import time

from cologic import (
    Compound,
    EngineConfig,
    Goal,
    Int,
    Program,
    Query,
    Var,
    bounded_coinduction_check,
    coind_semantics,
    generated_semantics,
    ind_semantics,
    list_term,
    parse_program,
    parse_query,
    solve,
    universe_for,
)
from cologic.oracle import herbrand_base
from cologic.terms import with_universal_cofacts
from cologic.unify import BindStore, extract_answer, unify
from corpus import corpus, small_hb_corpus
from helpers import (
    PQ_EXAMPLE,
    RUNNING_EXAMPLE,
    answers_equivalent_on,
    atom,
    expected_answer,
    rational_equal,
    succeeds,
    variant_equal,
)

CORPUS_SEED = 20250809


def _report(number: int, description: str, budget_seconds: float, work) -> None:
    start = time.perf_counter()
    try:
        work()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS in {elapsed:.2f}s")


def test_acceptance_1_pq_fixed_points():
    def work():
        program = parse_program(PQ_EXAMPLE)
        universe = universe_for(program)
        p0, p1 = atom("p", 0), atom("p", 1)
        ind_ext = ind_semantics(program.extended(), universe)
        coind = coind_semantics(program.clauses, universe)
        gen = generated_semantics(program, universe)
        assert ind_ext == frozenset({p0})
        assert coind == frozenset({p0, p1})
        assert gen == frozenset()
        assert coind & ind_ext == frozenset({p0})
        assert coind & ind_ext != gen

    _report(1, "pq fixed points", 1.0, work)


def test_acceptance_2_derivation_reproduction():
    program = parse_program(RUNNING_EXAMPLE)

    def work_positive():
        expected = expected_answer(
            {
                "L": list_term([Int(1), Int(2)], tail=Var(0)),  # Var(0) names L
                "M": Int(2),
            }
        )
        answers = list(solve(program, parse_query("?- L = [1,2|L], max(L, M).")))
        assert len(answers) >= 1
        for answer in answers:
            assert answers_equivalent_on(answer, expected, ["L", "M"])
        # exactly one answer modulo solution equivalence
        distinct = [answers[0]]
        for answer in answers[1:]:
            if not any(answers_equivalent_on(answer, d, ["L", "M"]) for d in distinct):
                distinct.append(answer)
        assert len(distinct) == 1

    def work_negative():
        answers = list(solve(program, parse_query("?- L = [1,2|L], max(L, 4).")))
        assert answers == []

    _report(2, "rational max derivation: one answer M=2", 1.0, work_positive)
    _report(2, "rational max with wrong bound: no answers", 1.0, work_negative)


def test_acceptance_3_behavior_matrix():
    def work():
        program = parse_program(RUNNING_EXAMPLE)
        cyclic = "L = [1,2|L], "
        assert succeeds(program, f"?- {cyclic}all_pos(L).")
        assert succeeds(program, f"?- {cyclic}member(2, L).")
        assert not succeeds(program, f"?- {cyclic}member(3, L).")
        assert succeeds(program, f"?- {cyclic}member(3, L).", mode="coinductive")
        assert not succeeds(program, f"?- {cyclic}all_pos(L).", mode="inductive")
        assert succeeds(program, f"?- {cyclic}member(2, L).", mode="inductive")

    _report(3, "running-example behavior matrix (6 assertions)", 1.0, work)


def test_acceptance_4_special_case_collapse():
    def work():
        programs = corpus(seed=CORPUS_SEED, count=50)
        for program in programs:
            bare = Program(program.clauses, ())
            universe = universe_for(program)
            assert generated_semantics(bare, universe) == ind_semantics(
                bare.clauses, universe
            )
            universal = with_universal_cofacts(bare)
            assert generated_semantics(universal, universe) == coind_semantics(
                bare.clauses, universe
            )

    _report(4, "collapse to inductive/coinductive on 50 random programs", 10.0, work)


def test_acceptance_5_engine_soundness_desk_scale():
    ratio_line = []

    def work():
        from cologic import ResourceLimitError

        programs = corpus(seed=CORPUS_SEED, count=50)
        # mode=cofacts, default policy; the budget only guards against
        # finite-but-exponential backtracking products (3-atom recursive
        # bodies can multiply alternatives under the revisit bound). An
        # aborted search proves nothing, so soundness is unaffected; any
        # aborts are surfaced in the informational line.
        config = EngineConfig(step_budget=500_000)
        proved = 0
        provable = 0
        aborted = 0
        unsound = []
        for program in programs:
            universe = universe_for(program)
            gen = generated_semantics(program, universe)
            base = herbrand_base(program.extended(), universe)
            provable += len(gen)
            for ground_atom in sorted(base, key=str):
                try:
                    answer = next(
                        iter(solve(program, Query(Goal((ground_atom,)), {}), config)),
                        None,
                    )
                except ResourceLimitError:
                    aborted += 1
                    continue
                if answer is not None:
                    if ground_atom not in gen:
                        unsound.append((program, ground_atom))
                    else:
                        proved += 1
        assert not unsound, f"unsound answers: {unsound[:3]}"
        pct = 100.0 * proved / provable if provable else 100.0
        ratio_line.append(
            f"  completeness (informational): {proved}/{provable} generated atoms"
            f" proved ({pct:.1f}%), {aborted} searches budget-aborted"
        )

    _report(5, "engine soundness vs generated semantics, 50 programs", 60.0, work)
    print(ratio_line[0])


def test_acceptance_6_bounded_coinduction_checker():
    def work():
        for program in small_hb_corpus(seed=CORPUS_SEED + 1, count=10):
            universe = universe_for(program)
            base = sorted(herbrand_base(program.extended(), universe), key=str)
            assert len(base) <= 8
            gen = generated_semantics(program, universe)
            for mask in range(1 << len(base)):
                goal_set = frozenset(
                    a for i, a in enumerate(base) if mask & (1 << i)
                )
                report = bounded_coinduction_check(goal_set, program, universe)
                if report.passed:
                    assert goal_set <= gen, (program, sorted(goal_set, key=str))

    _report(6, "checker-pass implies membership, exhaustive subsets", 60.0, work)


# --- criterion 7: randomized unification property suite ---------------------

_FUNCTORS = (("f", 1), ("g", 2), (".", 2))
CASES = 1000


def _random_term(rng: random.Random, n_vars: int, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if roll < 0.18:
            return Int(rng.randint(0, 3))
        return Var(rng.randrange(n_vars))
    name, arity = rng.choice(_FUNCTORS)
    return Compound(name, tuple(_random_term(rng, n_vars, depth - 1) for _ in range(arity)))


def _base_bindings(rng: random.Random, n_vars: int) -> list[tuple[Var, object]]:
    return [
        (Var(rng.randrange(n_vars)), _random_term(rng, n_vars, rng.randint(1, 3)))
        for _ in range(rng.randint(0, 5))
    ]


def _build_store(bindings) -> BindStore:
    store = BindStore()
    for v, t in bindings:
        unify(v, t, store)  # clashes allowed; they roll back
    return store


def _store_fingerprint(store: BindStore, n_vars: int):
    equations, names = extract_answer([(f"v{i}", i) for i in range(n_vars)], store)
    return equations, names


def test_acceptance_7_unification_property_suite():
    n_vars = 6
    joint = Compound("$all", tuple(Var(i) for i in range(n_vars)))

    def work():
        rng = random.Random(CORPUS_SEED + 2)
        for case in range(CASES):
            bindings = _base_bindings(rng, n_vars)
            s = _random_term(rng, n_vars, rng.randint(1, 3))
            t = _random_term(rng, n_vars, rng.randint(1, 3))

            # idempotence: a successful unification re-runs without trailing
            store = _build_store(bindings)
            if unify(s, t, store):
                before = store.mark()
                assert unify(s, t, store), case
                assert store.mark() == before, case

            # symmetry: success agrees and all variables end up equivalent
            store_a, store_b = _build_store(bindings), _build_store(bindings)
            ok_ab = unify(s, t, store_a)
            ok_ba = unify(t, s, store_b)
            assert ok_ab == ok_ba, case
            if ok_ab:
                assert variant_equal(joint, store_a, joint, store_b), case

            # monotone failure: a clash stays a clash on any extension
            store = _build_store(bindings)
            if not unify(s, t, store):
                for _ in range(3):
                    unify(
                        Var(rng.randrange(n_vars)),
                        _random_term(rng, n_vars, 2),
                        store,
                    )
                assert not unify(s, t, store), case

            # rational_equal laws: reflexive, symmetric, transitive
            store = _build_store(bindings)
            u = _random_term(rng, n_vars, 2)
            v = _random_term(rng, n_vars, 2)
            w = rng.choice([u, v, _random_term(rng, n_vars, 2)])
            assert rational_equal(u, u, store), case
            assert rational_equal(u, v, store) == rational_equal(v, u, store), case
            if rational_equal(u, v, store) and rational_equal(v, w, store):
                assert rational_equal(u, w, store), case

            # rollback fidelity: state after rollback is observably identical
            store = _build_store(bindings)
            fingerprint = _store_fingerprint(store, n_vars)
            token = store.mark()
            for _ in range(rng.randint(1, 4)):
                unify(Var(rng.randrange(n_vars)), _random_term(rng, n_vars, 2), store)
            store.rollback(token)
            assert store.mark() == token, case
            assert _store_fingerprint(store, n_vars) == fingerprint, case

    _report(7, f"unification property suite, {CASES} cases x 5 properties", 30.0, work)
