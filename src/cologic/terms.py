"""Finite syntactic terms, atoms, clauses, programs, and fresh renaming.

Terms are always finite trees here. Rational (cyclic) structure never lives
inside a ``Term`` value; it is represented by bindings in a
:class:`cologic.unify.BindStore`. Everything in this module is immutable
after construction and safe to share across threads. The one exception,
a program's :class:`ClauseIndex`, fills in its parts on first use; each
part depends only on the program, so threads that build one concurrently
build equal ones.

Lists are sugar: ``[]`` is the constant ``Compound("[]")`` and ``[H|T]`` is
``Compound(".", (H, T))``. The parser desugars and the renderer resugars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

NIL = "[]"
CONS = "."

#: Predicates evaluated directly by the engine rather than by clause search.
BUILTIN_SIGNATURES = frozenset(
    {
        ("=", 2),
        ("\\=", 2),
        ("<", 2),
        (">", 2),
        (">=", 2),
        ("=<", 2),
        ("=:=", 2),
        ("=\\=", 2),
        ("is", 2),
        ("true", 0),
        ("fail", 0),
    }
)


@dataclass(frozen=True)
class Var:
    """A variable, identified by an integer assigned at parse/rename time.

    Source names live in a side table (``Program.var_names`` or
    ``Query.var_names``), not on the variable itself.
    """

    id: int

    def __str__(self) -> str:
        return f"_G{self.id}"


@dataclass(frozen=True)
class Int:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        return render_term(self)


Term = Union[Var, Int, Compound]


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        return render_atom(self)


@dataclass(frozen=True)
class Clause:
    """``head :- body``; an empty body makes this a fact."""

    head: Atom
    body: tuple[Atom, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    def __str__(self) -> str:
        return render_clause(self)


@dataclass(frozen=True)
class Goal:
    """An ordered sequence of atoms; the empty sequence is the trivial goal."""

    atoms: tuple[Atom, ...] = ()


@dataclass(frozen=True)
class Program:
    """Ordered clauses plus the distinguished co-fact set.

    Co-facts syntactically resemble facts but are kept apart: ordinary
    clause search never uses them, only the bounded finiteness check does
    (see :mod:`cologic.engine`). ``var_names`` maps variable ids back to
    their source spelling, for printing only.

    Immutable, so the clause index built on first use stays valid for the
    program's lifetime.
    """

    clauses: tuple[Clause, ...] = ()
    cofacts: tuple[Atom, ...] = ()
    var_names: dict[int, str] = field(default_factory=dict)

    def extended(self) -> tuple[Clause, ...]:
        """The clause list enriched by the co-facts as plain facts (appended last)."""
        return self.clauses + tuple(Clause(a) for a in self.cofacts)

    @cached_property
    def index(self) -> ClauseIndex:
        """The program's clause index, built on first use and then kept."""
        return ClauseIndex(self)

    def predicates(self) -> set[tuple[str, int]]:
        """All (name, arity) pairs occurring in clause heads, bodies, or co-facts."""
        preds: set[tuple[str, int]] = set()
        for clause in self.clauses:
            preds.add((clause.head.predicate, clause.head.arity))
            for atom in clause.body:
                preds.add((atom.predicate, atom.arity))
        for atom in self.cofacts:
            preds.add((atom.predicate, atom.arity))
        return preds


def _principal(t: Term):
    """A term's principal symbol: ``(functor, arity)``, an integer, or None for a variable."""
    if isinstance(t, Compound):
        return (t.functor, len(t.args))
    if isinstance(t, Int):
        return t.value
    return None


# A group of at most this many clauses is filtered by scanning it; larger
# groups get a table per argument position, built on first use. Small
# programs then keep no tables at all.
_SCAN_LIMIT = 8


class ClauseIndex:
    """Candidate clauses for a goal atom, in program order.

    Clauses are grouped by predicate and arity, once as the bare clauses
    and once with the co-facts appended as facts. Within a group the
    selection looks at the first argument position where the goal is bound
    and keeps the clauses whose head has a variable or the goal's principal
    symbol there; every other clause would clash in head unification. Also
    holds the program's :func:`max_var_id`.
    """

    __slots__ = ("max_var_id", "_groups", "_tables")

    def __init__(self, program: Program):
        self.max_var_id = max_var_id(program)
        bare: dict[tuple[str, int], list[Clause]] = {}
        for clause in program.clauses:
            bare.setdefault((clause.head.predicate, clause.head.arity), []).append(clause)
        facts: dict[tuple[str, int], list[Clause]] = {}
        for atom in program.cofacts:
            facts.setdefault((atom.predicate, atom.arity), []).append(Clause(atom))
        # (bare, extended) per predicate; one tuple serves both when the
        # predicate has no co-facts.
        self._groups: dict[tuple[str, int], tuple[tuple[Clause, ...], tuple[Clause, ...]]] = {}
        for key in bare.keys() | facts.keys():
            clauses = tuple(bare.get(key, ()))
            self._groups[key] = (clauses, clauses + tuple(facts[key]) if key in facts else clauses)
        # (predicate, arity, extended, position) -> (principal symbol ->
        # positions of the clauses with it, positions of the clauses with a variable)
        self._tables: dict[tuple, tuple[dict, tuple[int, ...]]] = {}

    def candidates(
        self, atom: Atom, extended: bool, resolve: Callable[[Term], Term]
    ) -> Sequence[Clause]:
        """The clauses whose head may unify with ``atom``, in program order.

        ``extended`` selects the clauses plus the co-facts as facts;
        ``resolve`` dereferences a goal argument one level (see
        :meth:`cologic.unify.BindStore.resolve`).
        """
        group = self._groups.get((atom.predicate, len(atom.args)))
        if group is None:
            return ()
        clauses = group[extended]
        for position, arg in enumerate(atom.args):
            symbol = _principal(resolve(arg))
            if symbol is not None:
                break
        else:
            return clauses
        if len(clauses) <= _SCAN_LIMIT:
            return [c for c in clauses if _principal(c.head.args[position]) in (None, symbol)]
        key = (atom.predicate, len(atom.args), extended, position)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _position_table(clauses, position)
        by_symbol, unkeyed = table
        keyed = by_symbol.get(symbol, ())
        picks = sorted(keyed + unkeyed) if keyed and unkeyed else keyed or unkeyed
        return [clauses[i] for i in picks]


def _position_table(clauses: Sequence[Clause], position: int) -> tuple[dict, tuple[int, ...]]:
    by_symbol: dict = {}
    unkeyed = []
    for i, clause in enumerate(clauses):
        symbol = _principal(clause.head.args[position])
        if symbol is None:
            unkeyed.append(i)
        else:
            by_symbol.setdefault(symbol, []).append(i)
    return {s: tuple(ids) for s, ids in by_symbol.items()}, tuple(unkeyed)


@dataclass
class Query:
    """A goal plus the name table of its variables, for answer reporting."""

    goal: Goal
    var_names: dict[int, str] = field(default_factory=dict)


class VarSource:
    """Supplies fresh variables; identifiers never repeat within one source."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> Var:
        v = Var(self._next)
        self._next += 1
        return v

    @property
    def next_id(self) -> int:
        return self._next


def fresh_rename(clause: Clause, source: VarSource) -> Clause:
    """Rename every variable of ``clause`` to a fresh one from ``source``.

    The result shares no variables with anything renamed earlier from the
    same source, erases to the same skeleton, and maps variables
    injectively.
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


def term_vars(x) -> set[int]:
    """The set of variable identifiers occurring in a term, atom, clause, or goal."""
    out: set[int] = set()
    stack = [x]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t.id)
        elif isinstance(t, Compound):
            stack.extend(t.args)
        elif isinstance(t, Atom):
            stack.extend(t.args)
        elif isinstance(t, Clause):
            stack.append(t.head)
            stack.extend(t.body)
        elif isinstance(t, Goal):
            stack.extend(t.atoms)
    return out


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


def max_var_id(*items) -> int:
    """Largest variable id occurring in the given items; -1 if there are none.

    Accepts terms, atoms, clauses, goals, and programs.
    """
    best = -1
    for item in items:
        if isinstance(item, Program):
            for clause in item.clauses:
                vs = term_vars(clause)
                if vs:
                    best = max(best, max(vs))
            for cofact in item.cofacts:
                vs = term_vars(cofact)
                if vs:
                    best = max(best, max(vs))
        else:
            vs = term_vars(item)
            if vs:
                best = max(best, max(vs))
    return best


def with_universal_cofacts(program: Program) -> Program:
    """Adjoin a co-fact ``q(_, ..., _)`` for every predicate of the program.

    Ground instances of the resulting co-fact set cover the whole ground
    atom space, which turns co-fact semantics into plain coinductive
    semantics.
    """
    source = VarSource(max_var_id(program) + 1)
    extra = tuple(
        Atom(name, tuple(source.fresh() for _ in range(arity)))
        for name, arity in sorted(program.predicates())
    )
    return Program(program.clauses, program.cofacts + extra, dict(program.var_names))


def list_term(items: Iterable[Term], tail: Term = Compound(NIL)) -> Term:
    """Build the cons/nil desugaring of ``[i1, ..., in | tail]``."""
    out = tail
    for item in reversed(tuple(items)):
        out = Compound(CONS, (item, out))
    return out


_INFIX_PREDICATES = ("=", "\\=", "<", ">", ">=", "=<", "=:=", "=\\=", "is")
_INFIX_FUNCTORS = ("+", "-", "*", "//")


def render_term(t: Term, names: dict[int, str] | None = None) -> str:
    if isinstance(t, Var):
        if names and t.id in names:
            return names[t.id]
        return f"_G{t.id}"
    if isinstance(t, Int):
        return str(t.value)
    if t.functor == NIL and not t.args:
        return "[]"
    if t.functor == CONS and len(t.args) == 2:
        items = []
        cur: Term = t
        while isinstance(cur, Compound) and cur.functor == CONS and len(cur.args) == 2:
            items.append(render_term(cur.args[0], names))
            cur = cur.args[1]
        if isinstance(cur, Compound) and cur.functor == NIL and not cur.args:
            return "[" + ", ".join(items) + "]"
        return "[" + ", ".join(items) + "|" + render_term(cur, names) + "]"
    if t.functor in _INFIX_FUNCTORS and len(t.args) == 2:
        left, right = (render_term(a, names) for a in t.args)
        return f"({left}{t.functor}{right})"
    if not t.args:
        return t.functor
    return t.functor + "(" + ", ".join(render_term(a, names) for a in t.args) + ")"


def render_atom(a: Atom, names: dict[int, str] | None = None) -> str:
    if a.predicate in _INFIX_PREDICATES and a.arity == 2:
        left, right = (render_term(t, names) for t in a.args)
        return f"{left} {a.predicate} {right}"
    if not a.args:
        return a.predicate
    return a.predicate + "(" + ", ".join(render_term(t, names) for t in a.args) + ")"


def render_clause(c: Clause, names: dict[int, str] | None = None) -> str:
    head = render_atom(c.head, names)
    if not c.body:
        return head + "."
    return head + " :- " + ", ".join(render_atom(b, names) for b in c.body) + "."


def render_program(p: Program) -> str:
    lines = [render_clause(c, p.var_names) for c in p.clauses]
    lines.extend(f"cofact({render_atom(a, p.var_names)})." for a in p.cofacts)
    return "\n".join(lines)
