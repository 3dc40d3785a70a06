"""Shared test utilities: independent oracles, answer comparison, engine runs.

The comparison helpers deliberately avoid the code paths they check:
alpha-equivalence goes through canonical renumbering (not unification),
rational-tree equality through bisimulation (`rational_equal` in one
store, `variant_equal` across two, as when answers are rebuilt in fresh
stores), and `unfold` gives a bounded tree-expansion oracle for cyclic
equality. The `reference_*` functions are the plain recursive forms of
walks the package runs on explicit stacks, `reference_candidates` the
clause scan that the index's tables replaced, `reference_tokenize` the
tokenizer with one regex group per token class and an offset per token,
and `ReferenceBindStore` with `reference_unify`/`reference_unify_atoms`
the two-table store and unifier that the one-table store replaced,
`reference_closed_reach` the closedness walk over term nodes that the
walk over variable records replaced, and `reference_snapshot_atom` a
revisit-count snapshot by plain recursion, all kept as differential
oracles.
`run_goals` runs the engine's search loop from a chosen store and
context, which `solve` never starts from.
"""

from __future__ import annotations

import operator
import re
from typing import Sequence

from cologic import (
    Answer,
    Atom,
    Clause,
    Compound,
    EngineConfig,
    Goal,
    Int,
    ParseError,
    Program,
    Query,
    Term,
    Var,
    parse_query,
    solve,
)
from cologic import engine
from cologic.engine import LfpCounts
from cologic.errors import CologicError, EvaluationError, InstantiationError, InternalError
from cologic.terms import CONS, NIL, VarSource, lookup_key, max_var_id
from cologic.unify import BindStore, unify

RUNNING_EXAMPLE = """
all_pos([]).
all_pos([N|L]) :- N > 0, all_pos(L).
cofact(all_pos(_)).

member(X, [X|_]).
member(X, [Y|L]) :- X \\= Y, member(X, L).

max([N], N).
max([N|L], M2) :- max(L, M), M2 is max(N, M).
cofact(max([N|_], N)).
"""

PQ_EXAMPLE = """
p(0) :- p(0), p(1).
p(1) :- p(0), p(1).
cofact(p(0)).
"""


def substitute(x, mapping: dict[int, Term]):
    """Apply a variable-id substitution to a term, atom, or clause."""
    if isinstance(x, Var):
        return mapping.get(x.id, x)
    if isinstance(x, Int):
        return x
    if isinstance(x, Compound):
        return Compound(x.functor, tuple(substitute(a, mapping) for a in x.args))
    if isinstance(x, Atom):
        return Atom(x.predicate, tuple(substitute(a, mapping) for a in x.args))
    if isinstance(x, Clause):
        return Clause(substitute(x.head, mapping), tuple(substitute(b, mapping) for b in x.body))
    raise TypeError(f"cannot substitute into {type(x).__name__}")


def term_vars(x) -> set[int]:
    """The set of variable identifiers occurring in a term, atom, clause, or goal."""
    out: set[int] = set()
    stack = [x]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Var:
            out.add(t.id)
        elif cls is Compound or cls is Atom:
            stack.extend(t.args)
        elif cls is Clause:
            stack.append(t.head)
            stack.extend(t.body)
        elif cls is Goal:
            stack.extend(t.atoms)
    return out


def reference_rename(clause: Clause, source: VarSource) -> Clause:
    """Rename a clause by plain recursion: the reference for :func:`cologic.terms.fresh_rename`.

    Each distinct variable gets the next fresh identifier at its first
    occurrence, in preorder over the head and then the body.
    """
    mapping: dict[int, Var] = {}

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            hit = mapping.get(t.id)
            if hit is None:
                hit = mapping[t.id] = source.fresh()
            return hit
        if isinstance(t, Compound) and t.args:
            return Compound(t.functor, tuple(go(a) for a in t.args))
        return t

    def go_atom(a: Atom) -> Atom:
        return Atom(a.predicate, tuple(go(t) for t in a.args))

    return Clause(go_atom(clause.head), tuple(go_atom(b) for b in clause.body))


def reference_render_term(t: Term, names: dict[int, str] | None = None) -> str:
    """Print a term by plain recursion: the reference for :func:`cologic.terms.render_term`."""
    if isinstance(t, Var):
        if names and t.id in names:
            return names[t.id]
        return f"_G{t.id}"
    if isinstance(t, Int):
        try:
            return str(t.value)
        except ValueError:  # more digits than the interpreter converts
            raise CologicError(f"integer too large to print ({t.value.bit_length()} bits)") from None
    if t.functor == NIL and not t.args:
        return "[]"
    if t.functor == CONS and len(t.args) == 2:
        items = []
        cur: Term = t
        while isinstance(cur, Compound) and cur.functor == CONS and len(cur.args) == 2:
            items.append(reference_render_term(cur.args[0], names))
            cur = cur.args[1]
        if isinstance(cur, Compound) and cur.functor == NIL and not cur.args:
            return "[" + ", ".join(items) + "]"
        return "[" + ", ".join(items) + "|" + reference_render_term(cur, names) + "]"
    if t.functor in ("+", "-", "*", "//") and len(t.args) == 2:
        left, right = (reference_render_term(a, names) for a in t.args)
        return f"({left}{t.functor}{right})"
    if not t.args:
        return t.functor
    return t.functor + "(" + ", ".join(reference_render_term(a, names) for a in t.args) + ")"


_REFERENCE_TOKEN = re.compile(
    r"[ \t\r\n]+|%[^\n]*|(\d+)|(\w+)"
    r"|(=:=|=\\=|:-|\?-|=<|>=|\\=|//|[-=<>+*()\[\],|.])|(.)"
)


def reference_tokenize(text: str, origin: str = "<string>") -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, offset), one regex group per class: the reference for the parser's ``_tokenize``.

    Raises :class:`ParseError` at the first unexpected character.
    """
    tokens: list[tuple[str, str, int]] = []
    for match in _REFERENCE_TOKEN.finditer(text):
        group = match.lastindex
        if group is None:
            continue
        word = match[group]
        if group == 3:
            tokens.append((word, word, match.start()))
        elif group == 1:
            tokens.append(("int", word, match.start()))
        elif group == 2 and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("var" if word[0] == "_" or word[0].isupper() else "name", word, match.start()))
        else:
            line, column = reference_line_column(text, match.start())
            raise ParseError(f"unexpected character {word[0]!r}", line, column, origin)
    end = text.find("%", text.rfind("\n") + 1)
    tokens.append(("eof", "", len(text) if end < 0 else end))
    return tokens


def reference_line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - (text.rfind("\n", 0, offset) + 1) + 1


def _reference_principal(t: Term):
    if isinstance(t, Compound):
        return (t.functor, len(t.args))
    if isinstance(t, Int):
        return t.value
    return None


def reference_candidates(clauses: Sequence[Clause], atom: Atom, resolve) -> list[Clause]:
    """Select by scanning: the reference for :meth:`cologic.terms.ClauseIndex.candidates`.

    Of the clauses with ``atom``'s predicate and arity, keeps those whose
    head has a variable or the goal's principal symbol at the first
    argument that ``resolve`` shows bound, in sequence order.
    """
    group = [c for c in clauses if (c.head.predicate, c.head.arity) == (atom.predicate, atom.arity)]
    for position, arg in enumerate(atom.args):
        symbol = _reference_principal(resolve(arg))
        if symbol is not None:
            return [c for c in group if _reference_principal(c.head.args[position]) in (None, symbol)]
    return group



class ReferenceBindStore:
    """The two-table store: the reference for :class:`cologic.unify.BindStore`.

    A union-find over variable identifiers plus a binding table from class
    representatives to non-variable terms; its trail records the table
    written with each key. All mutation goes through the trail, so rolling
    back to a mark restores observable behavior exactly.
    """

    __slots__ = ("_parent", "_bindings", "_trail")

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._bindings: dict[int, Term] = {}
        # (the table written, the key added to it), oldest first
        self._trail: list[tuple[dict, int]] = []

    def mark(self) -> int:
        """Take a choice-point token: the current trail position."""
        return len(self._trail)

    def rollback(self, token: int) -> None:
        """Undo every binding event made after ``mark`` returned ``token``."""
        if not 0 <= token <= len(self._trail):
            raise InternalError(
                f"stale rollback token {token} (trail length {len(self._trail)})"
            )
        trail = self._trail
        while len(trail) > token:
            table, vid = trail.pop()
            del table[vid]

    def find(self, var_id: int) -> int:
        """Class representative of a variable (no path compression: undo stays exact)."""
        parent = self._parent
        while var_id in parent:
            var_id = parent[var_id]
        return var_id

    def resolve(self, t: Term) -> Term:
        """One-level dereference: the binding of ``t``'s class, or its representative.

        Never recurses into the result, so it cannot loop on cyclic
        bindings; callers peel the structure lazily. A non-variable is
        returned at once.
        """
        if t.__class__ is not Var:
            return t
        vid = t.id
        parent = self._parent
        while vid in parent:
            vid = parent[vid]
        bound = self._bindings.get(vid)
        if bound is not None:
            return bound
        # An unbound representative is returned as is: building a new
        # Var would cost more than the rest of the call.
        return t if vid == t.id else Var(vid)


def _reference_unify_inplace(stack: list[tuple[Term, Term]], store: ReferenceBindStore) -> bool:
    """Extend the store to solve every pair on ``stack``; no cleanup on clash (caller rolls back).

    Pairs are solved from the top of the stack down, each one depth-first.
    Dispatch is on the exact class. Identical nodes stop at once, before
    any functor is compared, and the visited-pair set is only built when
    a pair of compounds with arguments is first taken apart.
    """
    resolve = store.resolve
    parent, bindings, trail = store._parent, store._bindings, store._trail
    seen: set[tuple[int, int]] | None = None
    while stack:
        s, t = stack.pop()
        if s.__class__ is Var:
            s = resolve(s)
        if t.__class__ is Var:
            t = resolve(t)
        if s is t:
            continue
        # The store only ever gains entries here, each recorded on the
        # trail, so undo is deletion (ReferenceBindStore.rollback).
        if s.__class__ is Var:
            if t.__class__ is Var:
                if s.id != t.id:
                    parent[s.id] = t.id
                    trail.append((parent, s.id))
            else:
                bindings[s.id] = t
                trail.append((bindings, s.id))
            continue
        if t.__class__ is Var:
            bindings[t.id] = s
            trail.append((bindings, t.id))
            continue
        if s.__class__ is Int or t.__class__ is Int:
            if s.__class__ is t.__class__ and s.value == t.value:
                continue
            return False
        args = s.args
        if s.functor != t.functor or len(args) != len(t.args):
            return False
        if not args:
            continue
        key = (id(s), id(t))
        if seen is None:
            seen = {key}
        elif key in seen:
            # Already unifying this pair of graph nodes further up the
            # stack; assuming success here is what makes cyclic bindings
            # terminate (any genuine mismatch surfaces at finite depth).
            continue
        else:
            seen.add(key)
        # Reversed, so the first argument pops first: a clash in a list's
        # head is found before its whole tail is walked.
        stack.extend(zip(reversed(args), reversed(t.args)))
    return True


def reference_unify(s: Term, t: Term, store: ReferenceBindStore) -> bool:
    """The two-table unifier: the reference for :func:`cologic.unify.unify`.

    On success the store is the least extension solving ``s = t``; on
    clash (the only failure: distinct functors/arities or unequal
    integers) the store is rolled back to its state at entry.
    """
    start = store.mark()
    if _reference_unify_inplace([(s, t)], store):
        return True
    store.rollback(start)
    return False


def reference_unify_atoms(a: Atom, b: Atom, store: ReferenceBindStore) -> bool:
    """As :func:`reference_unify`, additionally requiring equal predicate and arity.

    A predicate/arity mismatch clashes without touching the store.
    """
    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return False
    start = store.mark()
    if _reference_unify_inplace(list(zip(reversed(a.args), reversed(b.args))), store):
        return True
    store.rollback(start)
    return False


def reference_closed_reach(term: Term, store: BindStore, mapping: dict[int, Term]) -> list[int] | None:
    """Walk term nodes: the reference for :func:`cologic.engine._closed_reach`.

    The classes ``term`` reaches that ``mapping`` lacks, in preorder, or
    None if it reaches an unbound one. Walks the term and the bindings of
    the classes it meets, each class once.
    """
    reached: list[int] = []
    seen: set[int] = set()
    todo = [term]
    while todo:
        t = todo.pop()
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
            todo.extend(reversed(t.args))
    return reached


def reference_snapshot_atom(atom: Atom, store: BindStore, source: VarSource) -> Atom:
    """Snapshot by plain recursion: the reference for :func:`cologic.engine._snapshot_atom`.

    A closed argument is kept and takes one fresh id per class it reaches
    that no earlier argument reached. Any other argument is copied node by
    node: each class gets a fresh variable at its first occurrence, in
    preorder, bound to the copy of its binding.
    """
    mapping: dict[int, Term] = {}

    def copy(t: Term) -> Term:
        if isinstance(t, Var):
            rep = store.find(t.id)
            if rep in mapping:
                return mapping[rep]
            fresh = mapping[rep] = source.fresh()
            bound = store.resolve(t)
            if not isinstance(bound, Var):
                assert unify(fresh, copy(bound), store)
            return fresh
        if isinstance(t, Compound) and t.args:
            return Compound(t.functor, tuple(copy(a) for a in t.args))
        return t

    args = []
    for arg in atom.args:
        reached = reference_closed_reach(arg, store, mapping)
        if reached is None:
            args.append(copy(arg))
        else:
            source.take(len(reached))
            mapping.update((rep, Var(rep)) for rep in reached)
            args.append(arg)
    return Atom(atom.predicate, tuple(args))


_REFERENCE_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                    "//": operator.floordiv, "max": max, "min": min}


def reference_eval_arith(t: Term, store: BindStore) -> int:
    """Evaluate by plain recursion: the reference for :func:`cologic.engine.eval_arith`.

    Overflows Python's stack on a cyclic term, where the engine raises.
    """
    t = store.resolve(t)
    if isinstance(t, Int):
        return t.value
    if isinstance(t, Var):
        raise InstantiationError("unbound variable in arithmetic")
    op = _REFERENCE_ARITH.get(t.functor)
    if op is not None and len(t.args) == 2:
        a = reference_eval_arith(t.args[0], store)
        b = reference_eval_arith(t.args[1], store)
        if op is operator.floordiv and b == 0:
            raise EvaluationError("division by zero")
        return op(a, b)
    raise InstantiationError(f"cannot evaluate {reference_render_term(t)} as an integer")


def reference_extract_answer(
    query_vars: Sequence[tuple[str, int]], store: BindStore
) -> tuple[list[tuple[str, Term]], dict[int, str]]:
    """Read back an answer by plain recursion: the reference for :func:`cologic.unify.extract_answer`.

    ``discover`` finds the cyclic classes with path sets, and ``expand``
    carries the path and the root class it expands from.
    """
    rep_name: dict[int, str] = {}
    for name, vid in query_vars:
        rep_name.setdefault(store.find(vid), name)
    aux_queue: list[int] = []
    taken = {name for name, _ in query_vars}
    counters = {"_G": 0, "_R": 0}

    def fresh_display(prefix: str) -> str:
        while True:
            counters[prefix] += 1
            name = f"{prefix}{counters[prefix]}"
            if name not in taken:
                taken.add(name)
                return name

    cyclic: set[int] = set()
    explored: set[int] = set()

    def discover(t: Term, path: frozenset[int]) -> None:
        if isinstance(t, Var):
            rep = store.find(t.id)
            if rep in path:
                cyclic.add(rep)
                return
            if rep in explored:
                return
            explored.add(rep)
            resolved = store.resolve(t)
            if not isinstance(resolved, Var):
                discover(resolved, path | {rep})
        elif isinstance(t, Compound):
            for a in t.args:
                discover(a, path)

    for _, vid in query_vars:
        discover(Var(vid), frozenset())

    def back_reference(rep: int) -> Var:
        if rep not in rep_name:
            rep_name[rep] = fresh_display("_R")
            aux_queue.append(rep)
        return Var(rep)

    def expand(t: Term, path: frozenset[int], root_rep: int) -> Term:
        if isinstance(t, Var):
            rep = store.find(t.id)
            resolved = store.resolve(t)
            if isinstance(resolved, Var):
                if rep not in rep_name:
                    rep_name[rep] = fresh_display("_G")
                return Var(rep)
            if rep in path or (rep in cyclic and rep != root_rep):
                return back_reference(rep)
            if rep in rep_name and rep != root_rep:
                return Var(rep)
            return expand(resolved, path | {rep}, root_rep)
        if isinstance(t, Int):
            return t
        return Compound(t.functor, tuple(expand(a, path, root_rep) for a in t.args))

    equations: list[tuple[str, Term]] = []
    for name, vid in query_vars:
        rep = store.find(vid)
        if rep_name.get(rep) != name:
            equations.append((name, Var(rep)))
            continue
        equations.append((name, expand(Var(vid), frozenset(), rep)))
    while aux_queue:
        rep = aux_queue.pop(0)
        equations.append((rep_name[rep], expand(store.resolve(Var(rep)), frozenset({rep}), rep)))
    return equations, dict(rep_name)


def canon_clause(clause: Clause) -> Clause:
    """Renumber variables 0,1,... in first-occurrence order (head, then body)."""
    return reference_rename(clause, VarSource(0))


def alpha_equal_clause(a: Clause, b: Clause) -> bool:
    return canon_clause(a) == canon_clause(b)


def alpha_equal_program(a: Program, b: Program) -> bool:
    if len(a.clauses) != len(b.clauses) or len(a.cofacts) != len(b.cofacts):
        return False
    if not all(alpha_equal_clause(x, y) for x, y in zip(a.clauses, b.clauses)):
        return False
    return all(
        alpha_equal_clause(Clause(x), Clause(y)) for x, y in zip(a.cofacts, b.cofacts)
    )


def is_unbound(store: BindStore, var_id: int) -> bool:
    return isinstance(store.resolve(Var(var_id)), Var)


def rational_equal(s: Term, t: Term, store: BindStore) -> bool:
    """True iff ``s`` and ``t`` denote the same rational tree under the store.

    Bisimulation over the term graph with a visited-pair set; unbound
    variables are rigid (equal only to their own class). Never binds.
    """
    stack = [(s, t)]
    seen: set[tuple[int, int]] = set()
    while stack:
        s, t = stack.pop()
        s = store.resolve(s)
        t = store.resolve(t)
        if isinstance(s, Var) or isinstance(t, Var):
            if isinstance(s, Var) and isinstance(t, Var) and s.id == t.id:
                continue
            return False
        if isinstance(s, Int) or isinstance(t, Int):
            if isinstance(s, Int) and isinstance(t, Int) and s.value == t.value:
                continue
            return False
        if s.functor != t.functor or len(s.args) != len(t.args):
            return False
        if s is t:
            continue
        key = (id(s), id(t))
        if key in seen:
            continue
        seen.add(key)
        stack.extend(zip(reversed(s.args), reversed(t.args)))
    return True


def variant_equal(s: Term, store_s: BindStore, t: Term, store_t: BindStore) -> bool:
    """Rational-tree equality across two stores, up to renaming of unbound classes.

    Unbound classes must correspond one-to-one between the sides; bound
    structure is compared by bisimulation as in :func:`rational_equal`.
    Useful for comparing answers produced by independent resolutions.
    """
    stack = [(s, t)]
    seen: set[tuple[int, int]] = set()
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    while stack:
        s, t = stack.pop()
        s = store_s.resolve(s)
        t = store_t.resolve(t)
        if isinstance(s, Var) or isinstance(t, Var):
            if not (isinstance(s, Var) and isinstance(t, Var)):
                return False
            if fwd.setdefault(s.id, t.id) != t.id or bwd.setdefault(t.id, s.id) != s.id:
                return False
            continue
        if isinstance(s, Int) or isinstance(t, Int):
            if isinstance(s, Int) and isinstance(t, Int) and s.value == t.value:
                continue
            return False
        if s.functor != t.functor or len(s.args) != len(t.args):
            return False
        key = (id(s), id(t))
        if key in seen:
            continue
        seen.add(key)
        stack.extend(zip(reversed(s.args), reversed(t.args)))
    return True


def answer_store(answer: Answer) -> tuple[BindStore, dict[str, Var]]:
    """Reconstruct an answer's equation set in a fresh store.

    Returns the store and a name -> variable map; unifying each equation
    re-creates the (possibly cyclic) bindings it describes.
    """
    store = BindStore()
    names = set(answer.names.values()) | {name for name, _ in answer.equations}
    var_of = {name: Var(i) for i, name in enumerate(sorted(names))}
    id_map = {vid: var_of[name] for vid, name in answer.names.items()}
    for name, rhs in answer.equations:
        assert unify(var_of[name], substitute(rhs, id_map), store)
    return store, var_of


def answers_equivalent_on(a: Answer, b: Answer, names: list[str]) -> bool:
    """Solution equivalence of two answers, restricted to the given variables."""
    store_a, vars_a = answer_store(a)
    store_b, vars_b = answer_store(b)
    if any(n not in vars_a or n not in vars_b for n in names):
        return False
    tuple_a = Compound("$answ", tuple(vars_a[n] for n in names))
    tuple_b = Compound("$answ", tuple(vars_b[n] for n in names))
    return variant_equal(tuple_a, store_a, tuple_b, store_b)


_DEPTH_CUT = Compound("$cut")


def unfold(t: Term, store: BindStore, depth: int) -> Term:
    """Expand a term graph to a finite tree, truncating below ``depth``.

    Independent oracle for rational equality: two terms denoting the same
    rational tree unfold identically at every depth.
    """
    t = store.resolve(t)
    if depth == 0:
        return _DEPTH_CUT
    if isinstance(t, Compound) and t.args:
        return Compound(t.functor, tuple(unfold(a, store, depth - 1) for a in t.args))
    return t


def expected_answer(bindings: dict[str, Term]) -> Answer:
    """Hand-build an Answer from name -> finite term with name back-references.

    Variables inside the terms are ``Var(i)`` where ``i`` indexes the
    sorted names, mirroring what ``answer_store`` reconstructs.
    """
    names = sorted(bindings)
    id_of = {name: i for i, name in enumerate(names)}
    return Answer(
        equations=[(name, bindings[name]) for name in names],
        names={id_of[name]: name for name in names},
    )


def ask(program: Program, text: str, mode: str = "cofacts", **cfg) -> Answer | None:
    """First answer of a textual query, or None."""
    return next(iter(solve(program, parse_query(text), EngineConfig(mode=mode, **cfg))), None)


def ask_all(program: Program, text: str, mode: str = "cofacts", limit: int = 64, **cfg) -> list[Answer]:
    out = []
    for answer in solve(program, parse_query(text), EngineConfig(mode=mode, **cfg)):
        out.append(answer)
        if len(out) >= limit:
            break
    return out


def succeeds(program: Program, text: str, mode: str = "cofacts", **cfg) -> bool:
    return ask(program, text, mode, **cfg) is not None


def ground_query(atom: Atom) -> Query:
    return Query(Goal((atom,)), {})


def atom(pred: str, *args) -> Atom:
    """Ground-atom shorthand: ints become Int terms, strings become constants."""
    terms: list[Term] = []
    for a in args:
        if isinstance(a, int):
            terms.append(Int(a))
        elif isinstance(a, str):
            terms.append(Compound(a))
        else:
            terms.append(a)
    return Atom(pred, tuple(terms))


def hyps(atoms, store: BindStore) -> tuple | None:
    """A hypothesis context holding ``atoms`` (oldest first), each keyed as a push keys it."""
    context = None
    for a in atoms:
        context = (a, lookup_key(a, store.resolve), context)
    return context


def run_goals(
    program: Program,
    atoms: tuple[Atom, ...],
    store: BindStore,
    hypotheses: tuple[Atom, ...] = (),
    counts: LfpCounts | None = None,
    config: EngineConfig = EngineConfig(),
):
    """Run the engine's search loop over ``atoms`` on ``store``; yields once per solution.

    The goals run in the bounded stratum under ``counts`` when it is given,
    else in the hypothesis stratum under ``hyps(hypotheses, store)``.
    Whatever ``config.mode`` says, the clause sets are those of ``cofacts``
    mode: ``program.index`` for hypothesis steps and
    ``program.extended_index`` for bounded proofs. Fresh variables start
    above every variable of the program, the goals and the hypotheses.
    """
    context = hyps(hypotheses, store) if counts is None else counts
    source = VarSource(max(program.next_var_id, max_var_id(*atoms, *hypotheses) + 1))
    goals = engine._goal_list(atoms, context, None)
    return engine._run(program.index, program.extended_index, config, store, source, goals)
