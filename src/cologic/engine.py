"""Co-SLD resolution where revisited goals must pass a bounded finiteness check.

``solve`` enumerates answers depth-first, leftmost atom first, clauses in
program order. Each non-builtin atom is resolved in two strata:

* Hypothesis stratum (:meth:`Resolution.solve_co`): the atoms selected
  along the current branch are carried as *coinductive hypotheses*. A
  goal atom that unifies with a hypothesis does not simply succeed (as in
  plain coinductive resolution); instead a standard SLD resolution of
  that atom is triggered in the program enriched by its co-facts. With
  ``hyp_cut`` (the default) an atom that unifies with some hypothesis
  never falls through to ordinary clause resolution, which curbs
  divergence at the price of missing some answers.

* Bounded SLD stratum (:meth:`Resolution.solve_lfp`): ordinary SLD over
  the clauses plus the co-facts as plain facts, except that an atom whose
  unifiable-atom class was already processed ``lfp_revisit_limit`` times
  on this branch fails outright, with no backtracking into its
  alternatives.

Builtins (``=``, comparisons, ``is`` arithmetic, ...) are evaluated
directly in both strata and never enter the hypothesis set or the
revisit counts.

Both strata select clauses through the program's clause index
(:class:`cologic.terms.ClauseIndex`): on the predicate and arity, then on
the first argument the goal has bound, keeping every clause whose head has
a variable or the same principal symbol there. Every skipped clause is one
whose head unification would clash, and program order is kept, so answers
and their order are those of a scan over every clause. The index
is built on a program's first query and kept, which is safe because
:class:`~cologic.terms.Program` is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import EvaluationError, InstantiationError, ResourceLimitError
from .terms import (
    BUILTIN_SIGNATURES,
    Atom,
    Compound,
    Goal,
    Int,
    Program,
    Query,
    Term,
    Var,
    VarSource,
    fresh_rename,
    max_var_id,
    render_term,
    with_universal_cofacts,
)
from .unify import BindStore, extract_answer, unify, unify_atoms

MODES = ("cofacts", "inductive", "coinductive")


@dataclass
class EngineConfig:
    """Search policy knobs.

    ``mode`` selects the semantics: ``cofacts`` is the native behavior;
    ``inductive`` runs the whole goal through bounded SLD over the bare
    clauses (co-facts ignored); ``coinductive`` adds a universal co-fact
    for every predicate before running as ``cofacts``.
    """

    mode: str = "cofacts"
    lfp_revisit_limit: int = 2
    hyp_cut: bool = True
    step_budget: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, not {self.mode!r}")
        if self.lfp_revisit_limit < 1:
            raise ValueError("lfp_revisit_limit must be >= 1")
        if self.step_budget is not None and self.step_budget < 0:
            raise ValueError("step_budget must be None or >= 0")


@dataclass
class Answer:
    """One solution: a satisfiable equation set over the query variables.

    ``equations`` pairs display names with finite terms; cyclic bindings
    use named back-references, so the set is self-contained (see
    :func:`cologic.unify.extract_answer`). ``names`` maps every variable
    id occurring in the right-hand sides to its display name.
    """

    equations: list[tuple[str, Term]]
    names: dict[int, str] = field(default_factory=dict)


def is_builtin(atom: Atom) -> bool:
    return (atom.predicate, atom.arity) in BUILTIN_SIGNATURES


_ARITH_FUNCTORS = ("+", "-", "*", "//", "max", "min")


def eval_arith(t: Term, store: BindStore) -> int:
    """Fully evaluate a term to an integer under the store."""
    t = store.resolve(t)
    if isinstance(t, Int):
        return t.value
    if isinstance(t, Var):
        raise InstantiationError("unbound variable in arithmetic")
    if t.functor in _ARITH_FUNCTORS and len(t.args) == 2:
        a = eval_arith(t.args[0], store)
        b = eval_arith(t.args[1], store)
        if t.functor == "+":
            return a + b
        if t.functor == "-":
            return a - b
        if t.functor == "*":
            return a * b
        if t.functor == "//":
            if b == 0:
                raise EvaluationError("division by zero")
            return a // b
        if t.functor == "max":
            return max(a, b)
        return min(a, b)
    raise InstantiationError(f"cannot evaluate {render_term(t)} as an integer")


def eval_builtin(atom: Atom, store: BindStore) -> bool:
    """Evaluate a whitelisted builtin atom; bindings from ``=``/``is`` persist.

    Raises :class:`InstantiationError` when an arithmetic argument does
    not resolve to an integer; that is reported to the user, never turned
    into silent failure.
    """
    name = atom.predicate
    if name == "true":
        return True
    if name == "fail":
        return False
    left, right = atom.args
    if name == "=":
        return unify(left, right, store)
    if name == "\\=":
        start = store.mark()
        unifiable = unify(left, right, store)
        store.rollback(start)
        return not unifiable
    if name == "is":
        return unify(left, Int(eval_arith(right, store)), store)
    a = eval_arith(left, store)
    b = eval_arith(right, store)
    if name == "<":
        return a < b
    if name == ">":
        return a > b
    if name == ">=":
        return a >= b
    if name == "=<":
        return a <= b
    if name == "=:=":
        return a == b
    return a != b  # =\=


def hyp_lookup(atom: Atom, hyps: Sequence[Atom], store: BindStore) -> list[Atom]:
    """Hypotheses whose trial unification with ``atom`` succeeds, most recent first.

    Trials are rolled back; nothing stays bound.
    """
    out = []
    for h in reversed(hyps):
        if h.predicate != atom.predicate or h.arity != atom.arity:
            continue
        start = store.mark()
        if unify_atoms(atom, h, store):
            out.append(h)
        store.rollback(start)
    return out


@dataclass(frozen=True)
class LfpCounts:
    """Per-branch visit counts for the bounded SLD stratum.

    Keys are snapshot copies of goal atoms (fresh variables, bindings
    frozen at insertion, so later search cannot disturb them); lookup is
    trial unification against the first matching key, rolled back.
    """

    entries: tuple[tuple[Atom, int], ...] = ()

    def lookup(self, atom: Atom, store: BindStore) -> int | None:
        """Index of the first key unifiable with ``atom``, or None."""
        for i, (key, _) in enumerate(self.entries):
            if key.predicate != atom.predicate or key.arity != atom.arity:
                continue
            start = store.mark()
            ok = unify_atoms(atom, key, store)
            store.rollback(start)
            if ok:
                return i
        return None

    def count_at(self, index: int) -> int:
        return self.entries[index][1]

    def incremented(self, index: int) -> "LfpCounts":
        key, count = self.entries[index]
        entries = list(self.entries)
        entries[index] = (key, count + 1)
        return LfpCounts(tuple(entries))

    def inserted(self, key: Atom) -> "LfpCounts":
        return LfpCounts(self.entries + ((key, 1),))


class Resolution:
    """Depth-first search state for one query over a fixed program.

    Holds the binding store, the fresh-variable supply, and the remaining
    step budget. Not shareable across threads; build one per query.
    """

    def __init__(
        self,
        program: Program,
        config: EngineConfig | None = None,
        store: BindStore | None = None,
        var_source: VarSource | None = None,
    ):
        self.config = config or EngineConfig()
        if self.config.mode == "coinductive":
            program = with_universal_cofacts(program)
        self.program = program
        self.store = store if store is not None else BindStore()
        self.vars = var_source or VarSource(program.index.max_var_id + 1)
        self._lfp_extended = self.config.mode != "inductive"
        self._steps_left = self.config.step_budget

    def _tick(self) -> None:
        if self._steps_left is None:
            return
        if self._steps_left == 0:
            raise ResourceLimitError(
                f"step budget of {self.config.step_budget} exhausted"
            )
        self._steps_left -= 1

    # hypothesis stratum

    def solve_co(self, atoms: tuple[Atom, ...], hyps: tuple[Atom, ...] = ()) -> Iterator[None]:
        """Resolve a goal under coinductive hypotheses; yields once per solution.

        The store holds the solution's bindings at each yield; resuming
        the iterator backtracks.
        """
        if not atoms:
            yield
            return
        first, rest = atoms[0], atoms[1:]
        for _ in self._co_atom(first, hyps):
            yield from self.solve_co(rest, hyps)

    def _co_atom(self, atom: Atom, hyps: tuple[Atom, ...]) -> Iterator[None]:
        self._tick()
        if is_builtin(atom):
            start = self.store.mark()
            if eval_builtin(atom, self.store):
                yield
            self.store.rollback(start)
            return
        candidates = hyp_lookup(atom, hyps, self.store)
        for hyp in candidates:
            start = self.store.mark()
            if unify_atoms(atom, hyp, self.store):
                # Revisited goal: demand a bounded standard proof in the
                # co-fact-enriched program, under the hypothesis bindings.
                yield from self.solve_lfp((atom,), LfpCounts())
            self.store.rollback(start)
        if candidates and self.config.hyp_cut:
            return
        for clause in self.program.index.candidates(atom, False, self.store.resolve):
            start = self.store.mark()
            renamed = fresh_rename(clause, self.vars)
            if unify_atoms(atom, renamed.head, self.store):
                yield from self.solve_co(renamed.body, hyps + (atom,))
            self.store.rollback(start)

    # bounded SLD stratum

    def solve_lfp(self, atoms: tuple[Atom, ...], counts: LfpCounts) -> Iterator[None]:
        """Standard SLD over clauses + co-facts-as-facts, bounded by revisit counts."""
        if not atoms:
            yield
            return
        first, rest = atoms[0], atoms[1:]
        for _ in self._lfp_atom(first, counts):
            # Siblings see the counts from before this atom was processed.
            yield from self.solve_lfp(rest, counts)

    def _lfp_atom(self, atom: Atom, counts: LfpCounts) -> Iterator[None]:
        self._tick()
        if is_builtin(atom):
            start = self.store.mark()
            if eval_builtin(atom, self.store):
                yield
            self.store.rollback(start)
            return
        index = counts.lookup(atom, self.store)
        if index is not None:
            if counts.count_at(index) >= self.config.lfp_revisit_limit:
                return  # fail the atom outright, alternatives included
            counts = counts.incremented(index)
        else:
            counts = counts.inserted(self._snapshot_atom(atom))
        candidates = self.program.index.candidates(atom, self._lfp_extended, self.store.resolve)
        for clause in candidates:
            start = self.store.mark()
            renamed = fresh_rename(clause, self.vars)
            if unify_atoms(atom, renamed.head, self.store):
                yield from self.solve_lfp(renamed.body, counts)
            self.store.rollback(start)

    def _snapshot_atom(self, atom: Atom) -> Atom:
        """Copy an atom under its current bindings, with fresh variables.

        Cyclic bindings are reproduced through the store (the fresh
        variables are bound below any later choice point, so the copy
        survives exactly as long as the counts that hold it).
        """
        mapping: dict[int, Var] = {}

        def copy(t: Term) -> Term:
            if isinstance(t, Var):
                rep = self.store.find(t.id)
                hit = mapping.get(rep)
                if hit is not None:
                    return hit
                resolved = self.store.resolve(t)
                fresh = mapping[rep] = self.vars.fresh()
                if not isinstance(resolved, Var):
                    unify(fresh, copy(resolved), self.store)
                return fresh
            if isinstance(t, Int):
                return t
            return Compound(t.functor, tuple(copy(a) for a in t.args))

        return Atom(atom.predicate, tuple(copy(t) for t in atom.args))


def solve(
    program: Program, query: Query | Goal, config: EngineConfig | None = None
) -> Iterator[Answer]:
    """Lazily enumerate answers for a query against a program.

    Unknown predicates simply fail. Exhausting a configured step budget
    raises :class:`ResourceLimitError`; builtin misuse raises
    :class:`InstantiationError`. Both are distinct from running out of
    answers.
    """
    config = config or EngineConfig()
    if isinstance(query, Goal):
        goal, var_names = query, {}
    else:
        goal, var_names = query.goal, query.var_names
    source = VarSource(max(program.index.max_var_id, max_var_id(goal)) + 1)
    resolution = Resolution(program, config, var_source=source)
    ordered_vars = [(name, vid) for vid, name in var_names.items()]
    if config.mode == "inductive":
        successes = resolution.solve_lfp(goal.atoms, LfpCounts())
    else:
        successes = resolution.solve_co(goal.atoms, ())
    for _ in successes:
        equations, names = extract_answer(ordered_vars, resolution.store)
        yield Answer(equations, names)
