"""Brute-force declarative semantics on the finite-Herbrand fragment.

Everything here is restricted to programs whose terms are constants or
variables (no function symbols, no builtins), so the ground atom space is
finite and every fixed point is directly computable by naive iteration:

* ``ind_semantics``: the least model, iterating the one-step operator up
  from the empty interpretation;
* ``coind_semantics``: the greatest consistent interpretation, iterating
  down from the full ground atom base;
* ``generated_semantics``: the co-fact semantics, i.e. the largest
  consistent interpretation inside the least model of the program
  enriched by its co-facts;
* ``bounded_coinduction_check``: the executable proof principle; a goal
  set inside that least model and supported by the one-step operator is
  inside the generated semantics.

This module is the ground truth that the search engine is tested against.
It grounds clauses through the runner that renames them
(:func:`ground_instances`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import UnsupportedProgramError
from .terms import (
    BUILTIN_SIGNATURES,
    Atom,
    Clause,
    Compound,
    Goal,
    Program,
    Term,
    Var,
    _maker_of,
    clause_predicates,
    render_atom,
    render_clause,
    render_term,
)

_DUMMY_CONSTANT: Term = Compound("a")

#: The most clause instances one :func:`ground_instances` call may build.
MAX_GROUND_INSTANCES = 1_000_000


@dataclass(frozen=True)
class GroundUniverse:
    """The finite set of constants that ground instantiation draws from.

    Also holds each clause's ground instances once they are built, so every
    semantics computed over one universe instantiates a clause only once;
    the union of the instances of each clause sequence, so semantics over
    the same clauses share one set; and the least model of each clause
    sequence once it is computed, so the bound of
    :func:`generated_semantics` reuses an :func:`ind_semantics` already
    taken. All depend only on the clauses and the constants, so threads
    that build them concurrently build equal values.
    """

    constants: tuple[Term, ...]
    _instances: dict[Clause, frozenset[Clause]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _ground: dict[tuple[Clause, ...], frozenset[Clause]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _least: dict[tuple[Clause, ...], frozenset[Atom]] = field(
        default_factory=dict, compare=False, repr=False
    )


def universe_for(program: Program, *goals: Goal) -> GroundUniverse:
    """Constants harvested from the program and the given goals.

    Injects a single dummy constant when nothing at all is found, so the
    universe is never empty.
    """
    stack: list[Term] = []
    for clause in program.clauses:
        for atom in (clause.head, *clause.body):
            stack.extend(atom.args)
    for cofact in program.cofacts:
        stack.extend(cofact.args)
    for goal in goals:
        for atom in goal.atoms:
            stack.extend(atom.args)
    consts: set[Term] = set()
    while stack:
        t = stack.pop()
        if isinstance(t, Compound) and t.args:
            stack.extend(t.args)
        elif not isinstance(t, Var):
            consts.add(t)
    if not consts:
        consts.add(_DUMMY_CONSTANT)
    return GroundUniverse(tuple(sorted(consts, key=render_term)))


def _require_datalog(clauses: Iterable[Clause]) -> None:
    for clause in clauses:
        for atom in (clause.head, *clause.body):
            if (atom.predicate, atom.arity) in BUILTIN_SIGNATURES:
                raise UnsupportedProgramError(
                    f"builtin {atom.predicate}/{atom.arity} in clause"
                    f" `{render_clause(clause)}`; the oracle handles pure clauses only"
                )
            for t in atom.args:
                if isinstance(t, Compound) and t.args:
                    raise UnsupportedProgramError(
                        f"function symbol {t.functor}/{len(t.args)} in clause"
                        f" `{render_clause(clause)}`; the oracle handles constants only"
                    )


def ground_instances(
    clauses: Sequence[Clause], universe: GroundUniverse
) -> frozenset[Clause]:
    """All instantiations of the clauses' variables by universe constants.

    Each combination of constants fills the variable slots of the runner
    that renames the clause (:func:`cologic.terms._maker_of`), built once
    per clause. A ground clause's runner has no slots: its single
    instance is an equal clause. Instances are built once per clause and
    universe, and kept on the universe; only clauses not grounded yet are
    validated. The union is built once per clause sequence and kept there
    too.
    Raises :class:`UnsupportedProgramError`, before building anything, when
    the given clauses have more than ``MAX_GROUND_INSTANCES`` instances in
    all.
    """
    key = tuple(clauses)
    union = universe._ground.get(key)
    if union is not None:
        return union
    built = universe._instances
    new = [c for c in dict.fromkeys(clauses) if c not in built]
    _require_datalog(new)
    todo = {c: _maker_of(c) for c in new}
    # Distinct combinations give distinct instances, so a clause with k
    # variables has len(universe.constants) ** k of them, built or not.
    n = len(universe.constants)
    size = sum(n ** todo[c][0] if c in todo else len(built[c]) for c in clauses)
    if size > MAX_GROUND_INSTANCES:
        raise UnsupportedProgramError(
            f"grounding needs {size:,} clause instances, more than the oracle's"
            f" limit of {MAX_GROUND_INSTANCES:,}"
        )
    for c, (k, make, constants, _) in todo.items():
        built[c] = frozenset([make(combo, constants) for combo in itertools.product(universe.constants, repeat=k)])
    union = universe._ground[key] = frozenset().union(*(built[c] for c in clauses))
    return union


def op_step(ground_clauses: Iterable[Clause], interp: frozenset[Atom]) -> frozenset[Atom]:
    """One-step inference: heads of ground clauses whose bodies the interpretation satisfies."""
    return frozenset(c.head for c in ground_clauses if interp.issuperset(c.body))


def herbrand_base(clauses: Sequence[Clause], universe: GroundUniverse) -> frozenset[Atom]:
    """Every ground atom over the clauses' predicates and the universe."""
    return frozenset(
        Atom(name, combo)
        for name, arity in clause_predicates(clauses)
        for combo in itertools.product(universe.constants, repeat=arity)
    )


def _fixpoint(step, current: frozenset[Atom]) -> frozenset[Atom]:
    """Apply ``step`` from ``current`` until the interpretation stops changing."""
    while True:
        nxt = step(current)
        if nxt == current:
            return current
        current = nxt


def ind_semantics(clauses: Sequence[Clause], universe: GroundUniverse) -> frozenset[Atom]:
    """Least model: iterate the one-step operator up from the empty set.

    Computed once per clause sequence and universe, and kept on the universe.
    """
    key = tuple(clauses)
    least = universe._least.get(key)
    if least is None:
        ground = ground_instances(clauses, universe)
        least = universe._least[key] = _fixpoint(lambda interp: op_step(ground, interp), frozenset())
    return least


def coind_semantics(clauses: Sequence[Clause], universe: GroundUniverse) -> frozenset[Atom]:
    """Greatest consistent interpretation: iterate down from the full atom base."""
    ground = ground_instances(clauses, universe)
    return _fixpoint(lambda interp: op_step(ground, interp), herbrand_base(clauses, universe))


def generated_semantics(program: Program, universe: GroundUniverse) -> frozenset[Atom]:
    """The co-fact semantics: largest consistent interpretation inside the bound.

    The bound is the least model of the program enriched by its co-facts
    as facts; consistency is with respect to the program's own clauses.
    """
    bound = ind_semantics(program.extended(), universe)
    ground = ground_instances(program.clauses, universe)
    return _fixpoint(lambda interp: interp & op_step(ground, interp), bound)


@dataclass(frozen=True)
class BoundedCoinductionReport:
    bounded: bool
    boundedness_witness: Atom | None
    consistent: bool
    consistency_witness: Atom | None

    @property
    def passed(self) -> bool:
        return self.bounded and self.consistent

    def __str__(self) -> str:
        checks = (("boundedness", self.bounded, self.boundedness_witness),
                  ("consistency", self.consistent, self.consistency_witness))
        return "; ".join(f"{name}: pass" if ok else f"{name}: fail (witness {render_atom(witness)})"
                         for name, ok, witness in checks)


def bounded_coinduction_check(
    goal_set: Iterable[Atom], program: Program, universe: GroundUniverse
) -> BoundedCoinductionReport:
    """Check a goal set for boundedness and consistency.

    When both pass, the goal set is contained in the generated semantics;
    each failing condition reports a witness atom.
    """
    goals = frozenset(goal_set)
    bound = ind_semantics(program.extended(), universe)
    unbounded = goals - bound
    ground = ground_instances(program.clauses, universe)
    unsupported = goals - op_step(ground, goals)
    return BoundedCoinductionReport(
        bounded=not unbounded,
        boundedness_witness=min(unbounded, key=render_atom, default=None),
        consistent=not unsupported,
        consistency_witness=min(unsupported, key=render_atom, default=None),
    )
