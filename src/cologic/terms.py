"""Finite syntactic terms, atoms, clauses, programs, and fresh renaming.

Terms are always finite trees here. Rational (cyclic) structure never lives
inside a ``Term`` value; it is represented by bindings in a
:class:`cologic.unify.BindStore`. Everything in this module is immutable
after construction and safe to share across threads. The exceptions are
filled in on first use: a program's co-fact-extended clauses, clause
indexes, variable range and universal-co-fact program, a clause's one
record of runner and head pattern (:func:`_maker_of`), and a compound's
variable record (:func:`var_record`), which lets a walk cross from
variable to variable instead of node to node. Each depends only on its
owner, so threads that build one concurrently build equal ones. A clause
compiles in one walk into one postfix program; a short program with
variables becomes a maker, generated code compiled once per clause shape
into a cache shared by every program, and a long or ground one is run as
it is. Two threads that build the same maker source concurrently store
equal functions, and either one serves. Renamings take their variables
from one table of ``Var(i)`` shared by every query; a thread that grows
it publishes a whole new table, so entry i is ``Var(i)`` in every table.

Lists are sugar: ``[]`` is the constant ``Compound("[]")`` and ``[H|T]`` is
``Compound(".", (H, T))``. The parser desugars and the renderer resugars.

``Var``, ``Int``, ``Compound``, ``Atom`` and ``Clause`` are hand-written
``__slots__`` classes, because every resolution step builds and reads
them: they have no ``__dict__``, and a constructor writes its slots
through their member descriptors. They behave as frozen dataclasses:
assignment raises :class:`dataclasses.FrozenInstanceError`, equality holds
within one class only, the ``repr`` is the dataclass one, and the hash is
that of the field tuple. ``Compound``, ``Atom`` and ``Clause`` keep their
hash in a slot once computed. ``Compound`` equality, the first hash of a
compound and the first variable record keep their own stacks, and so
does :func:`render_term` (and with it ``str``), so any nesting depth
works; only ``repr`` still recurses.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import CologicError

NIL = "[]"
CONS = "."

# The binary builtins, which the parser reads and the renderer writes infix.
_INFIX_PREDICATES = ("=", "\\=", "<", ">", ">=", "=<", "=:=", "=\\=", "is")

#: Predicates evaluated directly by the engine rather than by clause search.
BUILTIN_SIGNATURES = frozenset(
    [(name, 2) for name in _INFIX_PREDICATES] + [("true", 0), ("fail", 0)])


class _Record:
    """Base of the slotted term classes: immutable records with dataclass-style repr.

    Each subclass lists its fields in ``_fields`` and sets them once, in
    ``__init__``, through the member descriptors of its slots; assignment
    and deletion afterwards raise :class:`dataclasses.FrozenInstanceError`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self._fields])


class Var(_Record):
    """A variable, identified by an integer assigned at parse/rename time.

    Source names live in a side table (``Program.var_names`` or
    ``Query.var_names``), not on the variable itself.
    """

    __slots__ = ("id",)
    _fields = ("id",)
    id: int

    def __init__(self, id: int) -> None:
        _set_var_id(self, id)

    def __eq__(self, other):
        if other.__class__ is Var:
            return self.id == other.id
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id,))

    def __str__(self) -> str:
        return f"_G{self.id}"


class Int(_Record):
    __slots__ = ("value",)
    _fields = ("value",)
    value: int

    def __init__(self, value: int) -> None:
        _set_int_value(self, value)

    def __eq__(self, other):
        if other.__class__ is Int:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __str__(self) -> str:
        return str(self.value)


class Compound(_Record):
    """``functor(args...)``; a constant has no arguments.

    Equality and the first hash walk the term with their own stacks, so
    neither is limited by term depth. The hash is ``hash((functor, args))``
    and is kept in a slot once computed. ``_vars`` holds the compound's
    variable record (see :func:`var_record`); it is left unset until a
    walk first asks for it.
    """

    __slots__ = ("functor", "args", "_hash", "_vars")
    _fields = ("functor", "args")
    functor: str
    args: tuple[Term, ...]

    def __init__(self, functor: str, args: tuple[Term, ...] = ()) -> None:
        _set_functor(self, functor)
        _set_compound_args(self, args)
        _set_compound_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is not Compound:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            s, t = todo.pop()
            if s is t:
                continue
            if s.functor != t.functor or len(s.args) != len(t.args):
                return False
            for a, b in zip(s.args, t.args):
                if a.__class__ is Compound and b.__class__ is Compound:
                    todo.append((a, b))
                elif a != b:
                    return False
        return True

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = _fill_hashes(self)
        return h

    def __str__(self) -> str:
        return render_term(self)


Term = Var | Int | Compound

_set_var_id = Var.id.__set__
_set_int_value = Int.value.__set__
_set_functor = Compound.functor.__set__
_set_compound_args = Compound.args.__set__
_set_compound_hash = Compound._hash.__set__
_set_compound_vars = Compound._vars.__set__


def _fill_hashes(root: Compound) -> int:
    """Cache the hash of ``root`` and of every compound below it lacking one, in postorder."""
    todo = [root]
    while todo:
        t = todo[-1]
        missing = False
        for a in t.args:
            if a.__class__ is Compound and a._hash is None:
                todo.append(a)
                missing = True
        if not missing:
            todo.pop()
            # Every compound argument now has its hash, so this does not recurse.
            _set_compound_hash(t, hash((t.functor, t.args)))
    return root._hash


def var_record(t: Compound) -> tuple:
    """The variable record of ``t``, filled on first use (see :func:`_fill_vars`)."""
    try:
        return t._vars
    except AttributeError:
        return _fill_vars(t)


def _fill_vars(root: Compound) -> tuple:
    """The variable record of ``root``, kept on it and on every compound below it lacking one.

    The record holds the variables that occur in the compound as written,
    whatever they are bound to, so no binding or backtrack changes it. It
    is ``()`` for a ground compound; the record of its one argument that
    holds variables, when there is just one and it is a compound, so the
    cells of a list's spine share one object; and otherwise a tuple of
    its variable arguments and its compound arguments' nonempty records,
    in argument order. Records are filled bottom-up on one stack, each
    compound's from its arguments' records, so a list ``[X1, ..., Xn]``
    takes memory linear in n.
    """
    todo = [root]
    while todo:
        t = todo[-1]
        parts: list = []
        missing = False
        for a in t.args:
            if a.__class__ is Var:
                parts.append(a)
            elif a.__class__ is Compound and a.args:
                try:
                    record = a._vars
                except AttributeError:
                    todo.append(a)
                    missing = True
                    continue
                if record:
                    parts.append(record)
        if not missing:
            todo.pop()
            if len(parts) == 1 and parts[0].__class__ is tuple:
                _set_compound_vars(t, parts[0])
            else:
                _set_compound_vars(t, tuple(parts))
    return root._vars


class Atom(_Record):
    __slots__ = ("predicate", "args", "_hash")
    _fields = ("predicate", "args")
    predicate: str
    args: tuple[Term, ...]

    def __init__(self, predicate: str, args: tuple[Term, ...] = ()) -> None:
        _set_predicate(self, predicate)
        _set_atom_args(self, args)
        _set_atom_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is Atom:
            return self.predicate == other.predicate and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.predicate, self.args))
            _set_atom_hash(self, h)
        return h

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        return render_atom(self)


_set_predicate = Atom.predicate.__set__
_set_atom_args = Atom.args.__set__
_set_atom_hash = Atom._hash.__set__


class Clause(_Record):
    """``head :- body``; an empty body makes this a fact.

    ``_template`` holds the clause's record of runner and head pattern
    (see :func:`_maker_of`); it is left unset until the clause's first
    renaming, grounding or head check.
    """

    __slots__ = ("head", "body", "_hash", "_template")
    _fields = ("head", "body")
    head: Atom
    body: tuple[Atom, ...]

    def __init__(self, head: Atom, body: tuple[Atom, ...] = ()) -> None:
        _set_head(self, head)
        _set_body(self, body)
        _set_clause_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is Clause:
            return self.head == other.head and self.body == other.body
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.head, self.body))
            _set_clause_hash(self, h)
        return h

    @property
    def is_fact(self) -> bool:
        return not self.body

    def __str__(self) -> str:
        return render_clause(self)


_set_head = Clause.head.__set__
_set_body = Clause.body.__set__
_set_clause_hash = Clause._hash.__set__
_set_template = Clause._template.__set__


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

    Immutable, so what is built from it on first use stays valid for the
    program's lifetime.
    """

    clauses: tuple[Clause, ...] = ()
    cofacts: tuple[Atom, ...] = ()
    var_names: dict[int, str] = field(default_factory=dict)

    def extended(self) -> tuple[Clause, ...]:
        """The clause list enriched by the co-facts as plain facts (appended last).

        Built on first use and then kept, so the clause indexes, the
        oracle and every later call share its co-fact clauses.
        """
        return self._extended

    @cached_property
    def _extended(self) -> tuple[Clause, ...]:
        return self.clauses + tuple(Clause(a) for a in self.cofacts)

    @cached_property
    def index(self) -> ClauseIndex:
        """The index of the program's clauses, built on first use and then kept."""
        return ClauseIndex(self.clauses)

    @cached_property
    def extended_index(self) -> ClauseIndex:
        """The index of :meth:`extended`, built on first use and then kept."""
        return ClauseIndex(self.extended())

    @cached_property
    def next_var_id(self) -> int:
        """One above every variable id of the clauses and co-facts, computed on first use."""
        return max_var_id(*self.clauses, *self.cofacts) + 1

    @cached_property
    def universal(self) -> Program:
        """:func:`with_universal_cofacts` of this program, built on first use and then kept."""
        return with_universal_cofacts(self)

    def predicates(self) -> set[tuple[str, int]]:
        """All (name, arity) pairs occurring in clause heads, bodies, or co-facts."""
        return clause_predicates(self.extended())


def _principal(t: Term):
    """A term's principal symbol: ``(functor, arity)``, an integer, or None for a variable."""
    if t.__class__ is Compound:
        return (t.functor, len(t.args))
    if t.__class__ is Int:
        return t.value
    return None


# A key holds this many argument symbols after the predicate and arity.
_KEY_SYMBOLS = 3


def lookup_key(atom: Atom, resolve: Callable[[Term], Term]) -> tuple:
    """The atom's lookup key: predicate, arity, then up to three argument symbols.

    The principal symbols are read in preorder over the arguments, first
    argument first, each dereferenced one level through ``resolve``; the
    key stops at the first unbound variable, so ``key[2]`` is the first
    argument's symbol when it is bound. Two atoms can unify only if their
    keys agree on their common prefix (:func:`cologic.engine.keys_fit`):
    before the first variable in either, both preorders visit the same
    positions.
    """
    args = atom.args
    key = [atom.predicate, len(args)]
    todo = [*args[::-1]]
    room = _KEY_SYMBOLS
    while todo and room:
        t = todo.pop()
        if t.__class__ is Var:
            t = resolve(t)
        symbol = _principal(t)
        if symbol is None:
            break
        key.append(symbol)
        room -= 1
        if t.__class__ is Compound:
            todo += t.args[::-1]
    return tuple(key)


def key_excludes(key: tuple, clause: Clause, source: VarSource) -> bool:
    """True iff ``key`` rules out ``clause``'s head; the ids its renaming would take are then taken.

    ``key`` is a goal's :func:`lookup_key` with at least two argument
    symbols. The clause's head pattern, read from its record (see
    :func:`_maker_of`), holds its arguments' first nodes in preorder, as
    many as a key has symbols: a node's principal symbol, or the variable
    itself. The walk reads the pattern and the key in step. A symbol must
    equal the key's. A variable takes one whole goal subterm, whose extent
    the key's arities give, and a variable met twice must meet equal
    principal symbols. When the key runs out, the clause is allowed. A
    ruled-out clause would clash in head unification; it takes its ids
    from ``source`` as :func:`fresh_rename` would, so later ids stay the
    same: none for a ground clause.
    """
    n, _, _, nodes = _maker_of(clause)
    if nodes is None:
        return False
    seen: dict[int, object] = {}
    i, end = 2, len(key)
    for node in nodes:
        if i == end:
            return False
        symbol = key[i]
        i += 1
        if node.__class__ is Var:
            if seen.setdefault(node.id, symbol) != symbol:
                break
            need = symbol[1] if symbol.__class__ is tuple else 0
            while need:  # skip the rest of the subterm the variable takes
                if i == end:
                    return False
                symbol = key[i]
                i += 1
                need += symbol[1] - 1 if symbol.__class__ is tuple else -1
        elif node != symbol:
            break
    else:
        return False
    source.take(n)
    return True


def _head_pattern(clause: Clause) -> tuple | None:
    """The head pattern of :func:`key_excludes`, or None when a key can exclude nothing new.

    The clause index has matched the first node already, so a pattern
    with no symbol after it and no repeated variable is None.
    """
    nodes: list = []
    todo = [*clause.head.args[::-1]]
    while todo and len(nodes) < _KEY_SYMBOLS:
        t = todo.pop()
        nodes.append(t if t.__class__ is Var else _principal(t))
        if t.__class__ is Compound:
            todo += t.args[::-1]
    ids = [node.id for node in nodes if node.__class__ is Var]
    if len(set(ids)) == len(ids) and all(node.__class__ is Var for node in nodes[1:]):
        return None
    return tuple(nodes)


def key_is_complete(key: tuple) -> bool:
    """True iff ``key`` holds a symbol for each argument and each is an integer or a constant.

    The key then spells the whole atom: its atom is closed and flat, and
    two atoms with equal complete keys are equal.
    """
    if len(key) != key[1] + 2:
        return False
    for symbol in key[2:]:
        if symbol.__class__ is not int and symbol[1]:  # a functor with arguments
            return False
    return True


class ClauseIndex:
    """Candidate clauses for a goal atom, in the order of a clause sequence.

    Clauses are grouped by predicate and arity. Within a group the
    selection looks at the first argument position where the goal is bound
    and keeps the clauses whose head has a variable or the goal's principal
    symbol there; every other clause would clash in head unification. Each
    position's table is built once, by the first goal bound there.
    """

    __slots__ = ("_groups",)

    def __init__(self, clauses: Iterable[Clause]):
        groups: dict[tuple[str, int], list[Clause]] = {}
        for clause in clauses:
            groups.setdefault((clause.head.predicate, clause.head.arity), []).append(clause)
        # (predicate, arity) -> (its clauses, position -> (principal symbol ->
        # the clauses with it or a variable there, the clauses with a variable there))
        self._groups: dict[tuple[str, int], tuple[tuple[Clause, ...], dict]] = {
            key: (tuple(group), {}) for key, group in groups.items()}

    def candidates(self, atom: Atom, key: tuple, resolve: Callable[[Term], Term]) -> Sequence[Clause]:
        """The clauses whose head may unify with ``atom``, in sequence order.

        ``key`` is the atom's :func:`lookup_key`, which holds a bound first
        argument's principal symbol. Otherwise the later arguments are
        dereferenced one level through ``resolve`` (see
        :meth:`cologic.unify.BindStore.resolve`).
        """
        group = self._groups.get((atom.predicate, len(atom.args)))
        if group is None:
            return ()
        clauses, tables = group
        if len(key) > 2:
            position, symbol = 0, key[2]
        else:
            for position, arg in enumerate(atom.args[1:], 1):
                symbol = _principal(resolve(arg))
                if symbol is not None:
                    break
            else:
                return clauses
        table = tables.get(position)
        if table is None:
            table = tables[position] = _position_table(clauses, position)
        by_symbol, unkeyed = table
        return by_symbol.get(symbol, unkeyed)


def _position_table(clauses: Sequence[Clause], position: int) -> tuple[dict, tuple[Clause, ...]]:
    by_symbol: dict = {}
    unkeyed: list[Clause] = []
    for clause in clauses:
        symbol = _principal(clause.head.args[position])
        if symbol is None:
            unkeyed.append(clause)
            for picks in by_symbol.values():
                picks.append(clause)
        elif symbol in by_symbol:
            by_symbol[symbol].append(clause)
        else:
            by_symbol[symbol] = [*unkeyed, clause]
    return {s: tuple(picks) for s, picks in by_symbol.items()}, tuple(unkeyed)


@dataclass
class Query:
    """A goal plus the name table of its variables, for answer reporting.

    ``next_var_id``, when set, is above every variable id in the goal; the
    parser sets it to the next id it would have given out. It is left out
    of the ``repr`` and of equality.
    """

    goal: Goal
    var_names: dict[int, str] = field(default_factory=dict)
    next_var_id: int | None = field(default=None, repr=False, compare=False)


# Var(i) at index i, shared by every query: renaming and VarSource.fresh
# take their variables from here, so after the first query reaches an id
# no renaming builds its variable again (equality is by id, so an entry
# and a constructed Var(i) are interchangeable). The table grows by
# doubling, to at most twice the largest id used, and stops at
# _VAR_TABLE_LIMIT ids; larger ids are built per use. At the limit it
# holds 16,384 entries of about 76 bytes (a 40-byte Var, its 28-byte id
# and a tuple slot): about 1.2 MB.
_VAR_TABLE_LIMIT = 1 << 14
_var_table: tuple[Var, ...] = ()


def _fresh_vars(first: int, n: int) -> tuple[Var, ...]:
    """``(Var(first), ..., Var(first + n - 1))``, from the shared table where it reaches."""
    global _var_table
    table = _var_table
    end = first + n
    if end > len(table):
        if end > _VAR_TABLE_LIMIT:
            return tuple(map(Var, range(first, end)))
        # Built whole and published in one assignment: a thread growing it
        # at the same time publishes a table whose entry i is Var(i) too.
        size = min(max(end, 2 * len(table), 64), _VAR_TABLE_LIMIT)
        table = _var_table = table + tuple(map(Var, range(len(table), size)))
    return table[first:end]


class VarSource:
    """Supplies fresh variables; identifiers never repeat within one source."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> Var:
        first = self._next
        self._next = first + 1
        return _fresh_vars(first, 1)[0]

    def take(self, n: int) -> int:
        """Reserve the next ``n`` identifiers in one step; returns the first."""
        first = self._next
        self._next += n
        return first

    @property
    def next_id(self) -> int:
        return self._next


def fresh_rename(clause: Clause, source: VarSource) -> Clause:
    """Rename every variable of ``clause`` to a fresh one from ``source``.

    The result shares no variables with anything renamed earlier from the
    same source, erases to the same skeleton, and maps variables
    injectively. The k-th distinct variable, counted in preorder over the
    head and then the body, gets the k-th fresh identifier. Ground
    subterms and ground atoms are shared with ``clause``, and a ground
    clause, whose record has no variable slot, is returned itself. The
    clause's runner (see :func:`_maker_of`) builds the copy in one call
    from the fresh variables, which come from the table all queries share.
    """
    n, make, constants, _ = _maker_of(clause)
    if not n:
        return clause
    return make(_fresh_vars(source.take(n), n), constants)


def _maker_of(clause: Clause) -> tuple:
    """The clause's record ``(n, make, constants, pattern)``.

    ``make(v, constants)`` builds the clause's instance whose n variable
    slots hold ``v``: a maker compiled from the clause's postfix program,
    or :func:`_build` running a long one or a ground clause's, for which
    n is 0 (see :func:`_compile_clause`). ``pattern`` is the clause's
    :func:`_head_pattern`. The record is built on the clause's first
    renaming, grounding or head check and then kept in
    ``Clause._template``.
    """
    try:
        return clause._template
    except AttributeError:
        template = _compile_clause(clause)
        _set_template(clause, template)
        return template


# A clause whose postfix program is longer than this is run by _build, not
# compiled into a maker: Python's parser refuses more than 200 nested
# parentheses, and compiling generated code costs about 35 us a node.
_INLINE_LIMIT = 32

# Maker source -> its function: clauses of one shape share one code object.
_MAKERS: dict[str, Callable] = {}


def _compile_clause(clause: Clause) -> tuple:
    """The record ``(n, make, constants, pattern)`` of a clause (see :func:`_maker_of`).

    One walk over the head and then the body atoms, in postorder on one
    stack, emits the clause's postfix program: a number pushes that
    variable slot (n slots, numbered in preorder), ``(Compound, functor,
    k)`` and ``(Atom, predicate, k)`` pop k arguments and push what they
    build, and anything else is a ground term or ground atom pushed as is.
    A finished compound or atom whose arguments each emitted only
    themselves is ground, and it replaces their entries. The program
    leaves the head and the body atoms on the stack.

    A program of at most ``_INLINE_LIMIT`` operations becomes one
    straight-line maker such as ``Clause(Atom(c[1], (v[0], Compound(c[0],
    (v[1],)),)), ())``: ``v`` holds the slot values and ``c`` the
    program's predicates, functors, ground terms and ground atoms, so the
    source holds no program text and every clause of one shape shares it.
    A longer program is run by :func:`_build`, with the program as its
    constants, so a wide clause or a long list costs neither a nested
    expression that Python's parser refuses nor a long compile. So is a
    ground clause's program, which is just its atoms.
    :func:`fresh_rename` calls ``make`` with fresh variables, and
    :func:`cologic.oracle.ground_instances` with constants.
    """
    numbers: dict[int, int] = {}
    code: list = []
    todo: list = [*reversed(clause.body), clause.head]
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is Var:
            code.append(numbers.setdefault(x.id, len(numbers)))
        elif cls is tuple:  # a compound or atom, all its arguments emitted
            x, start = x
            k = len(x.args)
            if len(code) - start == k and all(map(operator.is_, code[start:], x.args)):
                del code[start:]
                code.append(x)
            else:
                code.append((Compound, x.functor, k) if x.__class__ is Compound else (Atom, x.predicate, k))
        elif cls is Int or not x.args:
            code.append(x)
        else:
            todo.append((x, len(code)))
            todo += x.args[::-1]
    pattern = _head_pattern(clause)
    if not numbers or len(code) > _INLINE_LIMIT:
        return len(numbers), _build, tuple(code), pattern
    constants: list = []
    stack: list[str] = []
    for op in code:
        if type(op) is int:
            stack.append(f"v[{op}]")
        elif type(op) is tuple:
            cls, name, k = op
            args = ", ".join(stack[-k:])
            del stack[-k:]
            constants.append(name)
            stack.append(f"{cls.__name__}(c[{len(constants) - 1}], ({args},))")
        else:
            constants.append(op)
            stack.append(f"c[{len(constants) - 1}]")
    head, *body = stack
    body = f"({', '.join(body)},)" if body else "()"
    source = f"lambda v, c: Clause({head}, {body})"
    make = _MAKERS.get(source)
    if make is None:
        make = _MAKERS[source] = eval(source, {"Clause": Clause, "Atom": Atom, "Compound": Compound})
    return len(numbers), make, tuple(constants), pattern


def _build(variables: Sequence[Term], code: tuple) -> Clause:
    """Run a clause's postfix program (see :func:`_compile_clause`) with ``variables`` in its slots."""
    stack: list = []
    for op in code:
        if type(op) is int:
            stack.append(variables[op])
        elif type(op) is tuple:
            cls, name, k = op
            args = tuple(stack[-k:])
            del stack[-k:]
            stack.append(cls(name, args))
        else:
            stack.append(op)
    return Clause(stack[0], tuple(stack[1:]))


def max_var_id(*items) -> int:
    """Largest variable id occurring in the given items; -1 if there are none.

    Accepts terms, atoms, clauses and goals.
    """
    best = -1
    stack = list(items)
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Var:
            if t.id > best:
                best = t.id
        elif cls is Compound or cls is Atom:
            stack.extend(t.args)
        elif cls is Clause:
            stack.append(t.head)
            stack.extend(t.body)
        elif cls is Goal:
            stack.extend(t.atoms)
    return best


def clause_predicates(clauses: Iterable[Clause]) -> set[tuple[str, int]]:
    """All (name, arity) pairs occurring in the clauses' heads and bodies."""
    return {(atom.predicate, atom.arity) for clause in clauses for atom in (clause.head, *clause.body)}


def with_universal_cofacts(program: Program) -> Program:
    """Adjoin a co-fact ``q(_, ..., _)`` for every non-builtin predicate of the program.

    Ground instances of the resulting co-fact set cover the whole ground
    atom space, which turns co-fact semantics into plain coinductive
    semantics. Builtins get none, as no clause lookup ever reaches them.
    """
    source = VarSource(program.next_var_id)
    extra = tuple(
        Atom(name, tuple(source.fresh() for _ in range(arity)))
        for name, arity in sorted(program.predicates() - BUILTIN_SIGNATURES)
    )
    return Program(program.clauses, program.cofacts + extra, dict(program.var_names))


def list_term(items: Iterable[Term], tail: Term = Compound(NIL)) -> Term:
    """Build the cons/nil desugaring of ``[i1, ..., in | tail]``."""
    out = tail
    for item in reversed(tuple(items)):
        out = Compound(CONS, (item, out))
    return out


_INFIX_FUNCTORS = ("+", "-", "*", "//")


def render_term(t: Term, names: dict[int, str] | None = None) -> str:
    """Text of a term; literal text and subterms share one stack, so any depth works."""
    out: list[str] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if t.__class__ is str:
            out.append(t)
        elif t.__class__ is Var:
            out.append(names[t.id] if names and t.id in names else f"_G{t.id}")
        elif t.__class__ is Int:
            try:
                out.append(str(t.value))
            except ValueError:  # more digits than the interpreter converts
                raise CologicError(f"integer too large to print ({t.value.bit_length()} bits)") from None
        elif not t.args:
            out.append(t.functor)
        elif t.functor in _INFIX_FUNCTORS and len(t.args) == 2:
            todo += (")", t.args[1], t.functor, t.args[0], "(")
        else:
            if t.functor == CONS and len(t.args) == 2:
                opening, items = "[", []
                while t.__class__ is Compound and t.functor == CONS and len(t.args) == 2:
                    items.append(t.args[0])
                    t = t.args[1]
                closing = ["]"] if t.__class__ is Compound and t.functor == NIL and not t.args else ["|", t, "]"]
            else:
                opening, items, closing = t.functor + "(", t.args, [")"]
            parts = [x for item in items for x in (", ", item)]
            parts[0] = opening
            todo += reversed(parts + closing)
    return "".join(out)


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
