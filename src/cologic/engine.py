"""Co-SLD resolution where revisited goals must pass a bounded finiteness check.

``solve`` enumerates answers depth-first, leftmost atom first, clauses in
program order. It is the only entry point: it picks the mode's clause
indexes and first context, then runs :func:`_run`, one loop for both strata.
The loop keeps a goal list, linked as ``(atom, context, rest)``, and a
stack of choice points that each hold a trail mark (as in the WAM:
Ait-Kaci 1991, *Warren's Abstract Machine: A Tutorial Reconstruction*).
Each step selects the first goal and charges the step budget. Builtins
(``=``, comparisons, ``is`` arithmetic, ...) are evaluated at one site and
never enter the hypothesis set or the revisit counts. For any other atom,
the goal's context picks the stratum:

* Hypothesis stratum (context: a chain of ``(atom, key, older)`` tuples,
  ``None`` when empty): the atoms selected along the current branch are
  carried as *coinductive hypotheses*. A goal atom that unifies with a
  hypothesis does not simply succeed (as in plain coinductive
  resolution); instead a standard SLD resolution of that atom is
  triggered in the program enriched by its co-facts. With ``hyp_cut``
  (the default) an atom that unifies with some hypothesis never falls
  through to ordinary clause resolution, which curbs divergence at the
  price of missing some answers.

* Bounded SLD stratum (context: :class:`LfpCounts`): ordinary SLD over
  the clauses plus the co-facts as plain facts, except that an atom whose
  unifiable-atom class was already processed ``lfp_revisit_limit`` times
  on this branch fails outright, with no backtracking into its
  alternatives.

A bounded goal whose bindings reach no unbound variable (closed) succeeds
at most once, as under ISO Prolog's ``once/1``: every proof of it binds
only variables the proof itself created, so a second solution would repeat
the first answer. Its choice point puts a cut marker after the chosen
clause's body; reaching the marker deletes that choice point and every one
above it, and is not a step. A goal gets the marker when its lookup key is
complete (:func:`cologic.terms.key_is_complete`: the key spells a flat
closed atom, so the test reads the key the step has anyway) or when it is
a hypothesis hit's atom, at the root of the hit's bounded proof, and every
argument is closed. Goals of the hypothesis stratum are never cut: their
proofs can bind their ancestors' variables through hits.

A hit's proof starts from empty revisit counts, so its outcome, success
or failure, depends on the atom alone. The outcome for each flat closed
atom is kept in a per-query table keyed by its complete key (a first
step towards tabling: Tamaki & Sato 1986, *OLD resolution with
tabulation*): a later hit on the same atom takes the proof's first step
and then continues or fails without the rest of the proof. The proof
records a failure when it starts, which its cut marker overwrites with a
success; in between only bounded goals run, and they take no hits. A
budget stop raises out of :func:`_run` with the table unread. With
``hyp_cut`` no two hypotheses on a branch unify: a goal with hits is never
pushed, and one without unifies with none on its branch, nor under later
bindings. Without it, a flat closed goal takes only the first hit on a
hypothesis equal to it (a twin), and its clause bodies see the goal in
place of every twin. The cut, the table and the twins drop only duplicate
answers and change where a step budget ends; every distinct answer keeps
its first-occurrence order.

The loop does not recurse per selected goal, so branch depth is not
limited by Python's recursion limit; the parser, clause renaming
(:func:`cologic.terms.fresh_rename`) and revisit-count snapshots walk
terms with their own stacks too, and so do answer extraction
(:func:`cologic.unify.extract_answer`), printing
(:func:`cologic.terms.render_term`) and :func:`eval_arith`.

Nothing is copied that later search cannot change. Renaming shares a
clause's ground subterms, and a revisit-count snapshot shares each goal
argument whose bindings reach no unbound variable, so a revisit trial on
a cyclic list meets the very same node and stops at once. The snapshot
learns that an argument is closed by crossing variables, not term nodes:
each compound keeps the record of the variables written in it
(:func:`cologic.terms.var_record`), so a closed list or cycle costs the
classes it reaches, however long it is, and a bounded step over it does
not walk it.

Both lookups are keyed (path indexing that reads the first argument first,
as in tabling tries: Ramakrishnan et al. 1999, *Efficient access
mechanisms for tabled logic programs*). Every hypothesis and every
revisit-count entry is keyed when it is pushed, with the key
(:func:`cologic.terms.lookup_key`) the step computed for its own
lookup, and a lookup trial-unifies only the entries whose key fits the
goal's, in the order of a scan. Keying under the bindings of the push
is sound: every goal that sees the context runs at or above that choice
point's trail mark, so its bindings only extend the ones the keys were
taken under. Contexts stay persistent: a hypothesis tuple or an
:class:`LfpCounts` value is never changed once built.

A mode is a pair of clause sets: hypothesis steps resolve with the program
P, bounded proofs with P plus a co-fact set C as facts, where C is the
program's co-facts (``cofacts``) or every atom (``coinductive``). An
``inductive`` query starts in the bounded stratum over P alone, so it takes
no hypothesis step. Each set is a :class:`cologic.terms.ClauseIndex`, which selects on the
predicate and arity, then on the first argument the goal has bound,
keeping every clause whose head has a variable or the same principal
symbol there; a bound first argument's symbol is read from the step's
lookup key, so the step walks the goal's arguments once. When the key
holds two argument symbols or more, the choice point keeps it, and each
candidate's head is checked against it just before renaming
(:func:`cologic.terms.key_excludes`, multi-argument indexing on demand:
Santos Costa, Sagonas & Lopes 2007, *Demand-driven indexing of Prolog
clauses*). A clause it rules out is not renamed, but takes the ids its
renaming would have taken, so every later id stays the same. Every
skipped clause would clash in head unification, and program order is
kept, so answers and their order are those of a scan.
An index is built on the first query that needs it and kept, which is
safe because :class:`~cologic.terms.Program` is immutable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Optional, Sequence

from .errors import EvaluationError, InstantiationError, ResourceLimitError
from .terms import (
    BUILTIN_SIGNATURES,
    Atom,
    ClauseIndex,
    Compound,
    Goal,
    Int,
    Program,
    Query,
    Term,
    Var,
    VarSource,
    fresh_rename,
    key_excludes,
    key_is_complete,
    lookup_key,
    max_var_id,
    render_term,
    var_record,
)
from .unify import BindStore, extract_answer, unify, unify_atoms

MODES = ("cofacts", "inductive", "coinductive")


@dataclass(frozen=True)
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
    return (atom.predicate, len(atom.args)) in BUILTIN_SIGNATURES


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "//": operator.floordiv, "max": max, "min": min}
_COMPARE = {"<": operator.lt, ">": operator.gt, ">=": operator.ge,
            "=<": operator.le, "=:=": operator.eq, "=\\=": operator.ne}


def eval_arith(t: Term, store: BindStore) -> int:
    """Fully evaluate a term to an integer under the store.

    Postfix, left operand first, on its own stack, so any depth works. A
    class met again while its value is still open makes the term cyclic.
    """
    t = store.resolve(t)
    if t.__class__ is Int:  # the common cases need no stack
        return t.value
    if t.__class__ is Compound and len(t.args) == 2:
        a, b = map(store.resolve, t.args)
        op = _ARITH.get(t.functor)
        if op is not None and a.__class__ is Int and b.__class__ is Int:
            if op is operator.floordiv and b.value == 0:
                raise EvaluationError("division by zero")
            return op(a.value, b.value)
    values: list[int] = []
    done: dict[int, int | None] = {}  # class -> value of its binding, None while open
    todo: list = [t]
    while todo:
        t = todo.pop()
        if t.__class__ is Var:
            bound = store.resolve(t)
            if bound.__class__ is Compound:
                rep = store.find(t.id)
                if rep in done:
                    if done[rep] is None:
                        raise InstantiationError("cyclic term in arithmetic")
                    values.append(done[rep])
                    continue
                done[rep] = None
                todo.append(rep)
            t = bound
        if t.__class__ is Int:
            values.append(t.value)
        elif t.__class__ is Var:
            raise InstantiationError("unbound variable in arithmetic")
        elif t.__class__ is int:  # class ``t``'s binding is evaluated
            done[t] = values[-1]
        elif t.__class__ is Compound:
            op = _ARITH.get(t.functor)
            if op is None or len(t.args) != 2:
                raise InstantiationError(f"cannot evaluate {render_term(t)} as an integer")
            todo += (op, t.args[1], t.args[0])
        else:  # an operator, both of its operands evaluated
            b = values.pop()
            if t is operator.floordiv and b == 0:
                raise EvaluationError("division by zero")
            values[-1] = t(values[-1], b)
    return values[0]


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
    return _COMPARE[name](eval_arith(left, store), eval_arith(right, store))


def keys_fit(a: tuple, b: tuple) -> bool:
    """True iff two lookup keys agree on their common prefix."""
    if len(a) > len(b):
        a, b = b, a
    return a == b[:len(a)]


def hyp_lookup(atom: Atom, hyps: _Hyps, store: BindStore, key: tuple) -> list[Atom]:
    """Hypotheses whose trial unification with ``atom`` succeeds, most recent first.

    Only the hypotheses whose key fits ``key``, the goal's
    :func:`lookup_key`, are tried. Trials are rolled back; nothing stays
    bound.
    """
    n = len(key)
    out = []
    while hyps is not None:
        h, k, hyps = hyps
        if k == key or (len(k) != n and keys_fit(k, key)):
            start = store.mark()
            if unify_atoms(atom, h, store):
                out.append(h)
            store.rollback(start)
    return out


class LfpCounts:
    """Per-branch visit counts for the bounded SLD stratum.

    Entries are ``(snapshot, key, count)``: a snapshot of a goal atom
    (closed arguments shared, the others copied with fresh variables, so
    later search cannot disturb it; see :func:`_snapshot_atom`)
    and the :func:`lookup_key` it was inserted with. Lookup is trial
    unification against the first entry whose key fits the goal's, rolled
    back. A value is never changed once built: a step builds a new one.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Atom, tuple, int], ...] = ()) -> None:
        self.entries = entries

    def lookup(self, atom: Atom, store: BindStore, key: tuple) -> int | None:
        """Index of the first entry unifiable with ``atom``, whose key is ``key``, or None."""
        n = len(key)
        for i, (snapshot, k, _) in enumerate(self.entries):
            if k == key or (len(k) != n and keys_fit(k, key)):
                start = store.mark()
                ok = unify_atoms(atom, snapshot, store)
                store.rollback(start)
                if ok:
                    return i
        return None

    def visited(self, atom: Atom, store: BindStore, key: tuple, source: VarSource,
                limit: int) -> LfpCounts | None:
        """The counts after a bounded step on ``atom``, or None when its class is at ``limit``.

        ``key`` is the goal's :func:`lookup_key`; one key per step serves
        both the lookup and the entry a first visit adds. A first visit
        appends a snapshot of the atom (fresh variables from ``source``)
        with count 1. A revisit raises the first unifiable entry's count
        by one; that entry keeps its own key.
        """
        entries = self.entries
        found = self.lookup(atom, store, key)
        if found is None:
            return LfpCounts(entries + ((_snapshot_atom(atom, store, source), key, 1),))
        snapshot, entry_key, count = entries[found]
        if count >= limit:
            return None
        return LfpCounts(entries[:found] + ((snapshot, entry_key, count + 1),) + entries[found + 1:])


# The empty counts every hit's bounded proof starts from. The hit's atom is
# the only goal that runs under this very object, so it marks that goal: its
# proof's outcome depends on the atom alone, since it starts from no counts.
_HIT_COUNTS = LfpCounts()

# A goal list: None when empty, else ``(atom, context, rest)``, or a cut
# marker ``(key, height, rest)``, told apart by the integer in the context
# slot: it deletes the choice points from ``height`` up and, unless ``key``
# is None, records that the hit's proof of the atom with that complete key
# succeeded.
_Goals = Optional[tuple]
# A hypothesis context: None when empty, else ``(atom, key, older)``, most
# recent first, each hypothesis with the :func:`lookup_key` it was pushed
# with. Bindings only grow while a context is in use, so a key may fall
# short of its atom's current key but never contradicts it.
_Hyps = Optional[tuple]


def _goal_list(atoms: Sequence[Atom], context, rest: _Goals) -> _Goals:
    """Push ``atoms``, leftmost first, in front of ``rest``, all under ``context``."""
    for atom in reversed(atoms):
        rest = (atom, context, rest)
    return rest


def _run(
    index: ClauseIndex, bounded_index: ClauseIndex, config: EngineConfig, store: BindStore,
    source: VarSource, goals: _Goals,
) -> Iterator[None]:
    """Depth-first search over a goal list; yields once per solution.

    Each goal carries its stratum's context: a hypothesis chain (``None``
    when empty), or the :class:`LfpCounts` of a bounded proof. A choice
    point holds the trail mark, the atom, the goals after it, the context
    of the clause bodies it will push, and its untried alternatives:
    hypothesis hits (atoms) and clauses, from ``index`` in the hypothesis
    stratum and ``bounded_index`` in bounded proofs. Clauses are renamed
    with variables from ``source``, unless the key the choice point keeps
    rules their head out. The store holds a solution's bindings
    at each yield; exhausting the search rolls it back to where it started.
    Closed bounded goals end in a cut marker, and the proofs of flat closed
    hit atoms consult and fill the query's outcome table (see the module
    docstring).
    """
    resolve, hyp_cut = store.resolve, config.hyp_cut
    # Without a budget the count starts below zero and never reaches it.
    steps_left = -1 if config.step_budget is None else config.step_budget
    revisit_limit = config.lfp_revisit_limit
    base = store.mark()
    # (trail mark, atom, rest, body context, alternatives, key for key_excludes or None)
    choices: list[tuple[int, Atom, _Goals, object, Iterator, tuple | None]] = []
    # complete lookup key of a hit's atom -> whether its bounded proof succeeded;
    # False from the proof's first step until its cut marker
    proved: dict[tuple, bool] = {}
    while True:
        if goals is None:
            yield
        else:
            atom, context, rest = goals
            if context.__class__ is int:
                # A cut marker: the proof above it succeeded, so drop its other solutions.
                del choices[context:]
                if atom is not None:
                    proved[atom] = True
                goals = rest
                continue
            if steps_left == 0:
                raise ResourceLimitError(f"step budget of {config.step_budget} exhausted")
            steps_left -= 1
            if is_builtin(atom):
                if eval_builtin(atom, store):
                    goals = rest
                    continue
            else:
                key = lookup_key(atom, resolve)
                probe = key if len(key) > 3 else None
                if isinstance(context, LfpCounts):
                    flat = key_is_complete(key)
                    tabled = flat and context is _HIT_COUNTS  # a hit's proof of a flat closed atom
                    if tabled and key in proved:
                        if proved[key]:
                            goals = rest
                            continue
                    else:
                        if tabled:
                            proved[key] = False
                        counts = context.visited(atom, store, key, source, revisit_limit)
                        # At the revisit limit the atom fails outright, alternatives included.
                        if counts is not None:
                            if flat or (context is _HIT_COUNTS
                                        and all(map(operator.is_, counts.entries[0][0].args, atom.args))):
                                # Closed (a hit's snapshot shares exactly its closed arguments):
                                # every later solution is a duplicate.
                                rest = (key if tabled else None, len(choices), rest)
                            clauses = iter(bounded_index.candidates(atom, key, resolve))
                            choices.append((store.mark(), atom, rest, counts, clauses, probe))
                else:
                    hits = hyp_lookup(atom, context, store, key)
                    if hits and hyp_cut:
                        choices.append((store.mark(), atom, rest, None, iter(hits), None))
                    else:
                        older = context
                        if hits and key_is_complete(key):
                            hits, older = _drop_twins(hits, key, context, resolve)
                        clauses = chain(hits, index.candidates(atom, key, resolve))
                        choices.append((store.mark(), atom, rest, (atom, key, older), clauses, probe))
        # Backtrack to the newest choice point with an alternative that applies.
        while True:
            if not choices:
                store.rollback(base)
                return
            mark, atom, rest, body_context, alternatives, probe = choices[-1]
            alternative = next(alternatives, None)
            if alternative is None:
                choices.pop()
                continue
            store.rollback(mark)
            if isinstance(alternative, Atom):
                # Revisited goal: demand a bounded standard proof in the
                # co-fact-enriched program, under the hypothesis bindings.
                if unify_atoms(atom, alternative, store):
                    goals = (atom, _HIT_COUNTS, rest)
                    break
            elif probe is None or not key_excludes(probe, alternative, source):
                renamed = fresh_rename(alternative, source)
                if unify_atoms(atom, renamed.head, store):
                    # Siblings keep their own context; only the body sees this one.
                    goals = _goal_list(renamed.body, body_context, rest)
                    break


def _drop_twins(hits: list[Atom], key: tuple, context: _Hyps, resolve) -> tuple[list[Atom], _Hyps]:
    """``hits`` with only the first of its twins, and ``context`` with none of them.

    A twin is a hypothesis whose key, under the current bindings, is the
    goal's complete ``key``: the goal's own flat closed atom. It binds
    nothing, so a later twin's hit would only replay the first one's
    proof. The goal, once pushed, stands for every twin, so the context
    its clause bodies see drops them; a later hit on the goal comes before
    theirs and makes the same bindings. Runs only without ``hyp_cut``:
    with it a goal has at most one twin (see the module docstring).
    """
    kept, twins = [], []
    for h in hits:
        if lookup_key(h, resolve) == key:
            twins.append(h)
            if len(twins) > 1:
                continue
        kept.append(h)
    # hyp_lookup gives one hit per entry: drop that many entries holding a twin.
    left, ids, entries = len(twins), set(map(id, twins)), []
    while left:
        entry = context
        context = entry[2]
        if id(entry[0]) in ids:
            left -= 1
        else:
            entries.append(entry)
    for h, k, _ in reversed(entries):
        context = (h, k, context)
    return kept, context


def _snapshot_atom(atom: Atom, store: BindStore, source: VarSource) -> Atom:
    """Copy an atom under its current bindings, with fresh variables from ``source``.

    An argument whose bindings reach no unbound variable (closed; see
    :func:`_closed_reach`) is kept as is: its bindings are older than the
    choice point that will hold the snapshot, so any backtrack that undoes
    them drops the snapshot too, and a revisit trial on it stops at once on
    ``_unify_inplace``'s ``s is t`` test. Other arguments are copied, so
    :func:`_run` tells a closed hit atom by its snapshot's arguments alone.
    Cyclic bindings are reproduced through the store (the fresh
    variables are bound below any later choice point, so the copy
    survives exactly as long as the counts that hold it). The walk keeps
    its own stack: fresh variables are taken in preorder, and each is
    bound once its binding's skeleton has been copied; a compound with no
    variable is kept, not copied. Every class reached, in a closed
    argument too, takes one fresh variable, so the identifiers taken
    later do not depend on what is shared.
    """
    # class representative -> its copy, or the original variable when closed
    mapping: dict[int, Term] = {}
    args = []
    for arg in atom.args:
        bound = store.resolve(arg) if arg.__class__ is Var else arg
        if bound.__class__ is Int or (bound.__class__ is Compound and not bound.args):
            # Closed, reaching at most the class of ``arg`` itself.
            if bound is not arg:
                rep = store.find(arg.id)
                if rep not in mapping:
                    source.take(1)
                    mapping[rep] = Var(rep)
            args.append(arg)
            continue
        reached = _closed_reach(arg, store, mapping)
        if reached is not None:
            source.take(len(reached))
            for rep in reached:
                mapping[rep] = Var(rep)
            args.append(arg)
        else:
            args.append(_copy(arg, mapping, store, source))
    return Atom(atom.predicate, tuple(args))


def _copy(term: Term, mapping: dict[int, Term], store: BindStore, source: VarSource) -> Term:
    """Copy one term under the store, extending ``mapping`` (see :func:`_snapshot_atom`)."""
    done: list[Term] = []  # copied terms, awaiting their parent
    # ("copy", term) | ("build", compound: pop its copied arguments) | ("bind", fresh var)
    todo: list[tuple[str, object]] = [("copy", term)]
    while todo:
        op, x = todo.pop()
        if op == "copy":
            if isinstance(x, Var):
                rep = store.find(x.id)
                hit = mapping.get(rep)
                if hit is not None:
                    done.append(hit)
                    continue
                fresh = mapping[rep] = source.fresh()
                resolved = store.resolve(x)
                if isinstance(resolved, Var):
                    done.append(fresh)
                else:
                    todo += (("bind", fresh), ("copy", resolved))
            elif isinstance(x, Compound) and var_record(x):
                todo.append(("build", x))
                todo.extend(("copy", a) for a in reversed(x.args))
            else:
                done.append(x)
        elif op == "build":
            n = len(x.args)
            args = tuple(done[-n:])
            del done[-n:]
            done.append(Compound(x.functor, args))
        else:
            unify(x, done[-1], store)
            done[-1] = x
    return done[0]


def _closed_reach(term: Term, store: BindStore, mapping: dict[int, Term]) -> list[int] | None:
    """The classes ``term`` reaches that ``mapping`` lacks; None if it reaches an unbound one.

    Crosses variables, not term nodes: a compound stands for its variable
    record (:func:`cologic.terms.var_record`), and a bound class for the
    record of its binding. Each class is met once, and the walk stops at
    the first unbound one. A closed list or cycle thus costs the classes
    it reaches, however many cells it has.
    """
    reached: list[int] = []
    seen: set[int] = set()
    todo = [term]
    while todo:
        t = todo.pop()
        if t.__class__ is tuple:
            todo += t
            continue
        if t.__class__ is Var:
            rep = store.find(t.id)
            if rep in seen:
                continue
            seen.add(rep)
            t = store.resolve(t)
            if t.__class__ is Var:
                return None
            if rep not in mapping:
                reached.append(rep)
        if t.__class__ is Compound:
            todo += var_record(t)
    return reached


def solve(
    program: Program, query: Query | Goal, config: EngineConfig | None = None
) -> Iterator[Answer]:
    """Lazily enumerate answers for a query against a program.

    Fresh variables start above the program's and the query's. The first
    fresh id comes from the parser: a parsed query carries the next id it
    would have given out (``Query.next_var_id``). Only a bare goal or a
    query built without that id is walked for its largest variable id.

    Unknown predicates simply fail. Exhausting a configured step budget
    raises :class:`ResourceLimitError`; builtin misuse raises
    :class:`InstantiationError`. Both are distinct from running out of
    answers.
    """
    config = config or EngineConfig()
    if isinstance(query, Goal):
        goal, var_names, next_id = query, {}, None
    else:
        goal, var_names, next_id = query.goal, query.var_names, query.next_var_id
    if next_id is None:
        next_id = max_var_id(goal) + 1
    source = VarSource(max(program.next_var_id, next_id))
    if config.mode == "cofacts":
        index, bounded_index, context = program.index, program.extended_index, None
    elif config.mode == "inductive":
        index, bounded_index, context = program.index, program.index, LfpCounts()
    else:  # the universal program has P's clauses, so only its extended index is new
        index, bounded_index, context = program.index, program.universal.extended_index, None
    store = BindStore()
    ordered_vars = [(name, vid) for vid, name in var_names.items()]
    goals = _goal_list(goal.atoms, context, None)
    for _ in _run(index, bounded_index, config, store, source, goals):
        equations, names = extract_answer(ordered_vars, store)
        yield Answer(equations, names)
