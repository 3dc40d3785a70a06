"""Solved-form equation stores over rational trees.

A :class:`BindStore` is a union-find over variable identifiers plus a
binding table from class representatives to non-variable terms, with a
chronological trail so choice points roll back exactly. Unification is
occurs-check free: ``X = f(X)`` succeeds, binding ``X`` to the rational
tree ``f(f(...))``. An in-progress pair memo makes unification and
equality checks terminate on cyclic structure.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalError
from .terms import Atom, Compound, Int, Term, Var


class BindStore:
    """Mutable binding state for one resolution.

    Confined to a single query; distinct stores may run in parallel. All
    mutation goes through the trail, so rolling back to a mark restores
    observable behavior exactly.
    """

    __slots__ = ("_parent", "_bindings", "_trail")

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._bindings: dict[int, Term] = {}
        self._trail: list[tuple[str, int]] = []

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
            kind, vid = trail.pop()
            if kind == "p":
                del self._parent[vid]
            else:
                del self._bindings[vid]

    def find(self, var_id: int) -> int:
        """Class representative of a variable (no path compression: undo stays exact)."""
        parent = self._parent
        while var_id in parent:
            var_id = parent[var_id]
        return var_id

    def resolve(self, t: Term) -> Term:
        """One-level dereference: the binding of ``t``'s class, or its representative.

        Never recurses into the result, so it cannot loop on cyclic
        bindings; callers peel the structure lazily.
        """
        if isinstance(t, Var):
            rep = self.find(t.id)
            bound = self._bindings.get(rep)
            return Var(rep) if bound is None else bound
        return t

    def is_unbound(self, var_id: int) -> bool:
        return self.find(var_id) not in self._bindings

    # Internal mutators: only ever add entries, so undo is deletion.
    def _union(self, rep_a: int, rep_b: int) -> None:
        self._parent[rep_a] = rep_b
        self._trail.append(("p", rep_a))

    def _bind(self, rep: int, term: Term) -> None:
        self._bindings[rep] = term
        self._trail.append(("b", rep))


def _unify_inplace(s: Term, t: Term, store: BindStore) -> bool:
    """Extend the store to solve ``s = t``; no cleanup on clash (caller rolls back)."""
    stack = [(s, t)]
    seen: set[tuple[int, int]] = set()
    while stack:
        s, t = stack.pop()
        s = store.resolve(s)
        t = store.resolve(t)
        if isinstance(s, Var):
            if isinstance(t, Var):
                if s.id != t.id:
                    store._union(s.id, t.id)
            else:
                store._bind(s.id, t)
            continue
        if isinstance(t, Var):
            store._bind(t.id, s)
            continue
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
            # Already unifying this pair of graph nodes further up the
            # stack; assuming success here is what makes cyclic bindings
            # terminate (any genuine mismatch surfaces at finite depth).
            continue
        seen.add(key)
        # Reversed, so the first argument pops first: a clash in a list's
        # head is found before its whole tail is walked.
        stack.extend(zip(reversed(s.args), reversed(t.args)))
    return True


def unify(s: Term, t: Term, store: BindStore) -> bool:
    """Unify two terms over rational trees.

    On success the store is the least extension solving ``s = t``; on
    clash (the only failure: distinct functors/arities or unequal
    integers) the store is rolled back to its state at entry.
    """
    start = store.mark()
    if _unify_inplace(s, t, store):
        return True
    store.rollback(start)
    return False


def unify_atoms(a: Atom, b: Atom, store: BindStore) -> bool:
    """As :func:`unify`, additionally requiring equal predicate and arity.

    A predicate/arity mismatch clashes without touching the store.
    """
    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return False
    start = store.mark()
    for s, t in zip(a.args, b.args):
        if not _unify_inplace(s, t, store):
            store.rollback(start)
            return False
    return True


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


def extract_answer(
    query_vars: Sequence[tuple[str, int]], store: BindStore
) -> tuple[list[tuple[str, Term]], dict[int, str]]:
    """Read back a minimal syntactic equation set over the query variables.

    Returns ``(equations, names)`` where each equation pairs a display
    name with a finite term; cycles are broken by named back-references
    (the query variable's own name when the cycle runs through one,
    ``_R1``-style fresh names otherwise, each of which gets its own
    equation). Unbound query variables are reported as themselves;
    other unbound classes show up as ``_G``-named variables. ``names``
    maps every variable id appearing on a right-hand side to its display
    name, so the equations are self-contained.
    """
    rep_name: dict[int, str] = {}
    for name, vid in query_vars:
        rep_name.setdefault(store.find(vid), name)
    aux_queue: list[int] = []
    taken = {name for name, _ in query_vars}
    counters = {"_G": 0, "_R": 0}

    def fresh_display(prefix: str) -> str:
        # Dodge user variables that happen to be spelled _G1/_R1 etc.
        while True:
            counters[prefix] += 1
            name = f"{prefix}{counters[prefix]}"
            if name not in taken:
                taken.add(name)
                return name

    # Pre-pass: find the classes some binding path loops back through, so
    # the expansion can reference them by name on first touch instead of
    # inlining one needless unfolding.
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
            if isinstance(resolved, Var):  # unbound class
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
            # Aliases an earlier query variable: reference it by name.
            equations.append((name, Var(rep)))
            continue
        equations.append((name, expand(Var(vid), frozenset(), rep)))
    while aux_queue:
        rep = aux_queue.pop(0)
        equations.append((rep_name[rep], expand(store.resolve(Var(rep)), frozenset({rep}), rep)))
    return equations, dict(rep_name)
