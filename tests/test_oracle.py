"""Declarative-semantics oracle: fixed points, lattice laws, the checker."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cologic import (
    BoundedCoinductionReport,
    Clause,
    Compound,
    GroundUniverse,
    Int,
    Program,
    UnsupportedProgramError,
    bounded_coinduction_check,
    coind_semantics,
    generated_semantics,
    ind_semantics,
    parse_program,
    universe_for,
)
from cologic import oracle, terms
from cologic.cli import oracle_report
from cologic.oracle import ground_instances, herbrand_base, op_step
from cologic.terms import with_universal_cofacts
from corpus import corpus
from helpers import PQ_EXAMPLE, atom, substitute, term_vars


@pytest.fixture(scope="module")
def pq():
    return parse_program(PQ_EXAMPLE)


@pytest.fixture(scope="module")
def pq_universe(pq):
    return universe_for(pq)


def test_universe_harvests_constants(pq, pq_universe):
    assert set(pq_universe.constants) == {Int(0), Int(1)}
    q = parse_program("p(X) :- q(X).")
    assert universe_for(q).constants == (Compound("a"),)  # dummy injected
    mixed = parse_program("p(b).  q(X) :- r(X, 1).")
    assert set(universe_for(mixed).constants) == {Compound("b"), Int(1)}


def test_ground_instances_examples():
    u = GroundUniverse((Int(0), Int(1)))
    clause = parse_program("p(X) :- q(X).").clauses[0]
    got = ground_instances([clause], u)
    assert got == frozenset(
        {
            Clause(atom("p", 0), (atom("q", 0),)),
            Clause(atom("p", 1), (atom("q", 1),)),
        }
    )
    ground_clause = Clause(atom("p", 0), (atom("p", 0), atom("p", 1)))
    assert ground_instances([ground_clause], u) == frozenset({ground_clause})
    two_vars = parse_program("p(X, Y).").clauses[0]
    three = GroundUniverse((Int(0), Int(1), Int(2)))
    assert len(ground_instances([two_vars], three)) == 9


def test_non_datalog_rejected():
    with pytest.raises(UnsupportedProgramError, match="function symbol"):
        ground_instances(parse_program("p(f(X)).").clauses, GroundUniverse((Int(0),)))
    with pytest.raises(UnsupportedProgramError, match="builtin"):
        ind_semantics(parse_program("p(X) :- X > 0.").clauses, GroundUniverse((Int(0),)))
    with pytest.raises(UnsupportedProgramError, match="p\\(\\[0\\]\\)"):
        # message names the offending clause
        ind_semantics(parse_program("p([0]).").clauses, GroundUniverse((Int(0),)))


def test_long_list_report_is_unsupported():
    # Collecting the universe's constants walks the 1,500-deep list spine.
    program = parse_program("p([" + ", ".join(map(str, range(1500))) + "]).")
    with pytest.raises(UnsupportedProgramError, match="function symbol \\./2"):
        oracle_report(program)


def test_oversized_grounding_is_refused(monkeypatch):
    # 101 constants, so the 3-variable clause alone has 101**3 = 1,030,301 instances.
    text = "".join(f"c({i}).\n" for i in range(101)) + "t(X, Y, Z) :- c(X), c(Y), c(Z).\n"
    program = parse_program(text)
    maker_of = oracle._maker_of
    made = []

    def refuse(*args):
        raise AssertionError("instantiated before the size check")

    def refusing_maker_of(clause):
        found = maker_of(clause)
        made.append(clause)
        return found and (found[0], refuse, found[2])

    monkeypatch.setattr(oracle, "_maker_of", refusing_maker_of)
    assert oracle.MAX_GROUND_INSTANCES == 1_000_000
    with pytest.raises(UnsupportedProgramError, match="1,030,402 clause instances.* 1,000,000"):
        ground_instances(program.clauses, universe_for(program))
    assert program.clauses[-1] in made  # the refusing maker was in place


def test_one_report_instantiates_each_clause_once(monkeypatch):
    # A clause's template is compiled on its first grounding and kept on
    # the clause, so one report compiles each distinct clause once, and a
    # second report of the same program compiles nothing.
    seen: Counter = Counter()
    compile_clause = terms._compile_clause

    def counting_compile(x):
        seen[x] += 1
        return compile_clause(x)

    monkeypatch.setattr(terms, "_compile_clause", counting_compile)
    for program in [parse_program(PQ_EXAMPLE), *corpus(seed=28, count=20)]:
        seen.clear()
        oracle_report(program)
        assert seen == Counter(set(program.extended()))
        seen.clear()
        oracle_report(program)
        assert seen == Counter()


def test_one_report_runs_the_least_model_once(monkeypatch):
    # op_step gets the ground instances of the clauses it iterates over, so
    # the calls on those of P plus its co-facts are the Ind(P⊔C) iterations.
    calls: Counter = Counter()

    def counting_op_step(ground, interp):
        calls[ground] += 1
        return op_step(ground, interp)

    programs = [parse_program(PQ_EXAMPLE), *corpus(seed=28, count=20)]
    checked = 0
    for program in programs:
        extended = ground_instances(program.extended(), universe_for(program))
        if extended == ground_instances(program.clauses, universe_for(program)):
            continue  # then CoInd(P) and Gen(P,C) iterate over the same instances
        monkeypatch.setattr(oracle, "op_step", counting_op_step)
        calls.clear()
        ind_semantics(program.extended(), universe_for(program))
        once = calls[extended]
        calls.clear()
        oracle_report(program)
        assert calls[extended] == once > 0
        monkeypatch.undo()
        checked += 1
    assert checked >= 2


def test_one_report_unites_each_clause_sequence_once(monkeypatch):
    # CoInd(P) and Gen(P,C) both ground P's clauses: the second call returns
    # the union the first one built, as does any later call on equal clauses.
    results: dict[tuple, list] = {}
    ground = oracle.ground_instances

    def keeping_ground(clauses, universe):
        got = ground(clauses, universe)
        results.setdefault(tuple(clauses), []).append(got)  # kept alive, so identity is meaningful
        return got

    monkeypatch.setattr(oracle, "ground_instances", keeping_ground)
    for program in [parse_program(PQ_EXAMPLE), *corpus(seed=28, count=20)]:
        results.clear()
        oracle_report(program)
        assert len(results[tuple(program.clauses)]) >= 2  # still called by both semantics
        for unions in results.values():
            assert all(union is unions[0] for union in unions)


def _instances_by_substitution(clauses, constants) -> frozenset[Clause]:
    """Ground instances by substituting every combination into every clause."""
    out = set()
    for clause in clauses:
        var_ids = sorted(term_vars(clause))
        for combo in itertools.product(constants, repeat=len(var_ids)):
            out.add(substitute(clause, dict(zip(var_ids, combo))))
    return frozenset(out)


_SHARED_PROGRAMS = corpus(seed=29, count=30)
_CLAUSE_SETS = {
    "extended": lambda p: p.extended(),
    "clauses": lambda p: p.clauses,
    "cofacts": lambda p: tuple(Clause(a) for a in p.cofacts),
}
_SEMANTICS = {
    "ind": lambda p, u: ind_semantics(p.extended(), u),
    "coind": lambda p, u: coind_semantics(p.clauses, u),
    "gen": generated_semantics,
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SHARED_PROGRAMS), st.permutations(sorted(_CLAUSE_SETS.keys() | _SEMANTICS.keys())))
def test_shared_universe_matches_fresh_universes(program, order):
    constants = universe_for(program).constants
    shared = GroundUniverse(constants)
    for name in order:
        if name in _CLAUSE_SETS:
            clauses = _CLAUSE_SETS[name](program)
            expected = _instances_by_substitution(clauses, constants)
            assert ground_instances(clauses, GroundUniverse(constants)) == expected
            assert ground_instances(clauses, shared) == expected
        else:
            semantics = _SEMANTICS[name]
            assert semantics(program, shared) == semantics(program, GroundUniverse(constants))
    # After every call, the clauses' instances still hold no co-fact instance.
    assert ground_instances(program.clauses, shared) == _instances_by_substitution(
        program.clauses, constants
    )
    fresh = GroundUniverse(constants)
    assert shared == fresh and hash(shared) == hash(fresh) and repr(shared) == repr(fresh)


def test_op_step_examples(pq, pq_universe):
    ground = ground_instances(pq.clauses, pq_universe)
    both = frozenset({atom("p", 0), atom("p", 1)})
    assert op_step(ground, both) == both
    assert op_step(ground, frozenset()) == frozenset()
    facts_only = parse_program("p(0).  q(X) :- p(X), p(1).")
    g2 = ground_instances(facts_only.clauses, universe_for(facts_only))
    assert op_step(g2, frozenset()) == frozenset({atom("p", 0)})


def test_op_step_monotone_on_random_inputs():
    rng = random.Random(11)
    for program in corpus(seed=5, count=15):
        u = universe_for(program)
        ground = ground_instances(program.extended(), u)
        base = sorted(herbrand_base(program.extended(), u), key=str)
        for _ in range(5):
            small = frozenset(a for a in base if rng.random() < 0.4)
            extra = frozenset(a for a in base if rng.random() < 0.4)
            large = small | extra
            assert op_step(ground, small) <= op_step(ground, large)


def test_ind_semantics_examples(pq, pq_universe):
    assert ind_semantics(pq.extended(), pq_universe) == frozenset({atom("p", 0)})
    assert ind_semantics(pq.clauses, pq_universe) == frozenset()
    fact = parse_program("f(a).")
    assert ind_semantics(fact.clauses, universe_for(fact)) == frozenset({atom("f", "a")})


def test_coind_semantics_examples(pq, pq_universe):
    assert coind_semantics(pq.clauses, pq_universe) == frozenset(
        {atom("p", 0), atom("p", 1)}
    )
    fact = parse_program("f(a).")
    two = GroundUniverse((Compound("a"), Compound("b")))
    assert coind_semantics(fact.clauses, two) == frozenset({atom("f", "a")})
    self_loop = parse_program("p(X) :- p(X).")
    assert coind_semantics(self_loop.clauses, GroundUniverse((Int(0),))) == frozenset(
        {atom("p", 0)}
    )


def test_generated_semantics_examples(pq, pq_universe):
    assert generated_semantics(pq, pq_universe) == frozenset()
    # intersection differs from the generated semantics on this program
    coind = coind_semantics(pq.clauses, pq_universe)
    ind_ext = ind_semantics(pq.extended(), pq_universe)
    assert coind & ind_ext == frozenset({atom("p", 0)})
    assert generated_semantics(pq, pq_universe) != coind & ind_ext


def test_generated_collapses_without_cofacts():
    for program in corpus(seed=21, count=10):
        bare = Program(program.clauses, ())
        u = universe_for(bare)
        assert generated_semantics(bare, u) == ind_semantics(bare.clauses, u)


def test_generated_collapses_with_universal_cofacts():
    for program in corpus(seed=22, count=10):
        bare = Program(program.clauses, ())
        universal = with_universal_cofacts(bare)
        u = universe_for(bare)
        assert generated_semantics(universal, u) == coind_semantics(bare.clauses, u)


def test_lattice_chain_on_random_programs():
    for program in corpus(seed=23, count=25):
        u = universe_for(program)
        ind = ind_semantics(program.clauses, u)
        gen = generated_semantics(program, u)
        coind = coind_semantics(program.clauses, u)
        ind_ext = ind_semantics(program.extended(), u)
        assert ind <= gen <= coind
        assert gen <= ind_ext


def test_generated_is_a_fixed_point_of_op():
    # Consistency (gen <= op(gen)) is guaranteed by construction; equality
    # is checked empirically and any counterexample is reported, not failed.
    unequal = []
    for program in corpus(seed=24, count=25):
        u = universe_for(program)
        gen = generated_semantics(program, u)
        stepped = op_step(ground_instances(program.clauses, u), gen)
        assert gen <= stepped
        if stepped != gen:
            unequal.append((program, gen, stepped))
    if unequal:  # pragma: no cover - never observed; logged per the open question
        print(f"NOTE: Op fixed-point equality failed on {len(unequal)} programs")
    assert True


def test_iterations_stabilize_within_base_size():
    # Independent route: re-run the iterations by hand and count steps.
    for program in corpus(seed=25, count=10):
        u = universe_for(program)
        clauses = program.extended()
        ground = ground_instances(clauses, u)
        base = herbrand_base(clauses, u)
        current, steps = frozenset(), 0
        while True:
            nxt = op_step(ground, current)
            if nxt == current:
                break
            current, steps = nxt, steps + 1
        assert steps <= len(base)
        assert current == ind_semantics(clauses, u)
        current, steps = base, 0
        while True:
            nxt = op_step(ground, current)
            if nxt == current:
                break
            current, steps = nxt, steps + 1
        assert steps <= len(base)
        assert current == coind_semantics(clauses, u)


def test_bounded_check_pq_witnesses(pq, pq_universe):
    report = bounded_coinduction_check({atom("p", 0)}, pq, pq_universe)
    assert report.bounded and report.boundedness_witness is None
    assert not report.consistent
    assert report.consistency_witness == atom("p", 0)
    assert not report.passed
    assert "consistency: fail" in str(report)


@pytest.mark.parametrize("bounded, consistent, text", [
    (True, True, "boundedness: pass; consistency: pass"),
    (False, True, "boundedness: fail (witness q(1)); consistency: pass"),
    (True, False, "boundedness: pass; consistency: fail (witness p(0))"),
    (False, False, "boundedness: fail (witness q(1)); consistency: fail (witness p(0))"),
])
def test_bounded_check_report_text(bounded, consistent, text):
    report = BoundedCoinductionReport(
        bounded, None if bounded else atom("q", 1), consistent, None if consistent else atom("p", 0))
    assert str(report) == text


def test_bounded_check_empty_goal_vacuous(pq, pq_universe):
    report = bounded_coinduction_check(frozenset(), pq, pq_universe)
    assert report.passed


def test_bounded_check_accepts_generated_semantics():
    for program in corpus(seed=26, count=15):
        u = universe_for(program)
        gen = generated_semantics(program, u)
        assert bounded_coinduction_check(gen, program, u).passed


def test_bounded_check_boundedness_witness():
    program = parse_program("p(0).")
    u = universe_for(program)
    report = bounded_coinduction_check({atom("q", 0)}, program, u)
    assert not report.bounded and report.boundedness_witness == atom("q", 0)
