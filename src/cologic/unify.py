"""Solved-form equation stores over rational trees.

A :class:`BindStore` keeps one table from variable identifiers to terms:
a variable maps to another variable on its way to its class's
representative, or the representative maps to its non-variable binding.
A chronological trail of the identifiers written lets choice points roll
back exactly. Unification is occurs-check free: ``X = f(X)`` succeeds,
binding ``X`` to the rational tree ``f(f(...))``. An in-progress pair
memo makes unification terminate on cyclic structure, and a clash
restores the store to its state at entry.

Unification runs once per head and per lookup trial, so it takes fast
paths: it dispatches on a term's exact class, dereferences only
variables, stops on identical nodes before comparing functors, writes the
store's table directly, and builds its pair memo only once it takes
apart a pair of compounds with arguments. :func:`unify_atoms` solves all
argument pairs on one stack.
"""

from __future__ import annotations

from operator import is_not
from typing import Sequence

from .errors import InternalError
from .terms import Atom, Compound, Int, Term, Var


class BindStore:
    """Mutable binding state for one resolution.

    Confined to a single query; distinct stores may run in parallel. Every
    entry of the table is added once and recorded on the trail, so rolling
    back to a mark deletes entries and restores observable behavior
    exactly. An unbound representative has no entry.
    """

    __slots__ = ("_table", "_trail")

    def __init__(self) -> None:
        # variable id -> the next variable towards its representative, or
        # the representative's non-variable binding
        self._table: dict[int, Term] = {}
        self._trail: list[int] = []  # the ids written, oldest first

    def mark(self) -> int:
        """Take a choice-point token: the current trail position."""
        return len(self._trail)

    def rollback(self, token: int) -> None:
        """Undo every binding event made after ``mark`` returned ``token``."""
        if not 0 <= token <= len(self._trail):
            raise InternalError(
                f"stale rollback token {token} (trail length {len(self._trail)})"
            )
        table, trail = self._table, self._trail
        while len(trail) > token:
            del table[trail.pop()]

    def find(self, var_id: int) -> int:
        """Class representative of a variable (no path compression: undo stays exact)."""
        table = self._table
        t = table.get(var_id)
        while t.__class__ is Var:
            var_id = t.id
            t = table.get(var_id)
        return var_id

    def resolve(self, t: Term) -> Term:
        """One-level dereference: the binding of ``t``'s class, or its representative.

        Never recurses into the result, so it cannot loop on cyclic
        bindings; callers peel the structure lazily. A non-variable is
        returned at once.
        """
        table = self._table
        while t.__class__ is Var:
            bound = table.get(t.id)
            if bound is None:
                return t
            t = bound
        return t


def _unify_inplace(stack: list[tuple[Term, Term]], store: BindStore) -> bool:
    """Extend the store to solve every pair on ``stack``; on a clash, restore it and fail.

    Pairs are solved from the top of the stack down, each one depth-first.
    Dispatch is on the exact class. Identical nodes stop at once, before
    any functor is compared, and the visited-pair set is only built when
    a pair of compounds with arguments is first taken apart.
    """
    resolve = store.resolve
    table, trail = store._table, store._trail
    start = len(trail)
    seen: set[tuple[int, int]] | None = None
    while stack:
        s, t = stack.pop()
        if s.__class__ is Var:
            s = resolve(s)
        if t.__class__ is Var:
            t = resolve(t)
        if s is t:
            continue
        # The table only ever gains entries here, each recorded on the
        # trail, so undo is deletion (BindStore.rollback).
        if s.__class__ is Var:
            if t.__class__ is not Var or s.id != t.id:
                table[s.id] = t
                trail.append(s.id)
            continue
        if t.__class__ is Var:
            table[t.id] = s
            trail.append(t.id)
            continue
        if s.__class__ is Int or t.__class__ is Int:
            if s.__class__ is t.__class__ and s.value == t.value:
                continue
            break
        args = s.args
        if s.functor != t.functor or len(args) != len(t.args):
            break
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
    else:  # no clash broke out of the loop
        return True
    store.rollback(start)
    return False


def unify(s: Term, t: Term, store: BindStore) -> bool:
    """Unify two terms over rational trees.

    On success the store is the least extension solving ``s = t``; on
    clash (the only failure: distinct functors/arities or unequal
    integers) the store is rolled back to its state at entry.
    """
    return _unify_inplace([(s, t)], store)


def unify_atoms(a: Atom, b: Atom, store: BindStore) -> bool:
    """As :func:`unify`, additionally requiring equal predicate and arity.

    A predicate/arity mismatch clashes without touching the store.
    """
    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return False
    return _unify_inplace(list(zip(reversed(a.args), reversed(b.args))), store)


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
    name, so the equations are self-contained. Both walks keep their own
    stacks, so any depth and any cycle length work.
    """
    if not query_vars:  # a ground query's answer is the empty equation set
        return [], {}
    rep_name: dict[int, str] = {}
    for name, vid in query_vars:
        rep_name.setdefault(store.find(vid), name)
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

    # Pre-pass, a coloured depth-first search over the binding graph: a
    # class met again while it is still on the path (grey) is cyclic, and
    # every cycle holds one. An int on the stack ends its class's visit.
    cyclic: set[int] = set()
    explored: set[int] = set()
    grey: set[int] = set()
    todo: list = [Var(vid) for _, vid in reversed(query_vars)]
    while todo:
        t = todo.pop()
        if t.__class__ is int:
            grey.discard(t)
        elif t.__class__ is Var:
            rep = store.find(t.id)
            if rep in grey:
                cyclic.add(rep)
            elif rep not in explored:
                explored.add(rep)
                bound = store.resolve(t)
                if bound.__class__ is not Var:
                    grey.add(rep)
                    todo += (rep, bound)
        elif t.__class__ is Compound:
            todo += reversed(t.args)

    aux_queue: list[int] = []

    def expand(t: Term) -> Term:
        # Inlines the binding of every class that is neither cyclic nor
        # named. Preorder, left to right, so fresh names follow reading
        # order; a ``(compound,)`` entry takes its arguments from the last
        # results, and rebuilds the compound only if one of them changed.
        out: list[Term] = []
        pending: list = [t]
        while pending:
            t = pending.pop()
            if t.__class__ is tuple:
                t = t[0]
                n = len(t.args)
                args = out[-n:]
                del out[-n:]
                out.append(Compound(t.functor, tuple(args)) if any(map(is_not, args, t.args)) else t)
            elif t.__class__ is Var:
                rep = store.find(t.id)
                bound = store.resolve(t)
                if bound.__class__ is Var:  # unbound class
                    if rep not in rep_name:
                        rep_name[rep] = fresh_display("_G")
                    out.append(Var(rep))
                elif rep in cyclic or rep in rep_name:
                    if rep not in rep_name:
                        rep_name[rep] = fresh_display("_R")
                        aux_queue.append(rep)
                    out.append(Var(rep))
                else:
                    pending.append(bound)
            elif t.__class__ is Compound and t.args:
                pending.append((t,))
                pending += reversed(t.args)
            else:
                out.append(t)
        return out[0]

    equations: list[tuple[str, Term]] = []
    for name, vid in query_vars:
        rep = store.find(vid)
        # An alias of an earlier query variable references it by name.
        equations.append((name, Var(rep) if rep_name[rep] != name else expand(store.resolve(Var(rep)))))
    for rep in aux_queue:  # expand appends to aux_queue while this loop runs
        equations.append((rep_name[rep], expand(store.resolve(Var(rep)))))
    return equations, dict(rep_name)
