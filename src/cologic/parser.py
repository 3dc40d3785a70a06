"""Surface-syntax parser for programs with co-facts and for queries.

The grammar is a minimal Prolog subset::

    program   ::= entry*
    entry     ::= atom ('.' | ':-' body '.')
    body      ::= atom (',' atom)*
    atom      ::= term (INFIX term)?          INFIX in = \\= < > >= =< =:= =\\= is
    term      ::= mult (('+' | '-') mult)*    left associative
    mult      ::= prim (('*' | '//') prim)*
    prim      ::= INT | '-' INT | VAR | NAME ('(' term (',' term)* ')')?
                | '(' term ')' | list
    list      ::= '[' ']' | '[' term (',' term)* ('|' term)? ']'

Lowercase-initial identifiers are functors/predicates, uppercase or
underscore-initial are variables, ``_`` alone is anonymous (each occurrence
fresh). ``%`` starts a comment to end of line. An entry ``cofact(A).``
declares ``A`` as a co-fact and must have no body.

The text is scanned once, by one ``findall`` over one regular expression;
each token's kind comes from a table of punctuation marks or from its
first character. Tokens keep no offsets: a :class:`ParseError` finds its
token's offset with a second scan of the same pattern. Every unexpected
character is reported before any syntax error. Terms are read by one
loop over an explicit stack, so nesting depth is bounded by memory, not
by Python's recursion limit.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .terms import (
    NIL,
    Atom,
    Clause,
    Compound,
    Goal,
    Int,
    Program,
    Query,
    Term,
    Var,
    VarSource,
    _INFIX_PREDICATES,
    list_term,
)

# One scan finds every token. Blanks and comments match with the group empty;
# a token is a decimal integer, a word, a punctuation mark (longest first) or
# any other character.
_TOKEN = re.compile(
    r"[ \t\r\n]+|%[^\n]*"
    r"|(\d+|\w+|=:=|=\\=|:-|\?-|=<|>=|\\=|//|[-=<>+*()\[\],|.]|.)"
)
# A punctuation mark's kind is the mark itself.
_MARKS = {mark: mark for mark in ("=:=", "=\\=", ":-", "?-", "=<", ">=", "\\=", "//", *"-=<>+*()[],|.")}


def _kind(first: str) -> str | None:
    """The kind of any other token, by its first character: None for an unexpected one."""
    if first.isdecimal():
        return "int"
    if first.isalpha():
        return "var" if first.isupper() else "name"
    return "var" if first == "_" else None


def _error(message: str, text: str, index: int, origin: str) -> ParseError:
    """A ParseError at the ``index``-th token of ``text``, located by a second scan."""
    starts = [match.start() for match in _TOKEN.finditer(text) if match.lastindex]
    # End of input sits at the start of a comment that ends the text, not
    # after it, so an error found there points at the comment.
    end = text.find("%", text.rfind("\n") + 1)
    offset = (starts + [len(text) if end < 0 else end])[index]
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1, origin)


def _tokenize(text: str, origin: str) -> list[tuple[str, str]]:
    """Tokens as (kind, text) pairs, ending with an "eof" token.

    ``kind`` is "int", "name", "var" or the punctuation mark itself. A
    token's offset is found again only for an error message.
    """
    tokens: list[tuple[str, str]] = []
    append, marks = tokens.append, _MARKS
    for word in filter(None, _TOKEN.findall(text)):
        kind = marks.get(word) or _kind(word[0])
        if kind is None:
            raise _error(f"unexpected character {word[0]!r}", text, len(tokens), origin)
        append((kind, word))
    append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text: str, origin: str, var_source: VarSource):
        self.text = text
        self.tokens = _tokenize(text, origin)
        self.pos = 0
        self.origin = origin
        self.vars = var_source
        self.var_names: dict[int, str] = {}
        # var name -> Var, scoped to the current clause or query
        self.scope: dict[str, Var] = {}

    def fail(self, message: str, index: int | None = None):
        """Raise a ParseError at token ``index``, by default the current one."""
        raise _error(message, self.text, self.pos if index is None else index, self.origin)

    def fail_expected(self, what: str, index: int):
        self.fail(f"expected {what} but found {self.tokens[index][1] or 'end of input'!r}", index)

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def expect(self, kind: str) -> None:
        if not self.at(kind):
            self.fail_expected(repr(kind), self.pos)
        self.pos += 1

    # term parsing

    def term(self) -> Term:
        """Read one term: a loop that alternates reading a primary and closing it.

        The frame being read lives in locals: its kind ("top", "call", "(",
        "[" for a list body, "|" for a list tail), the call's functor, the
        arguments or list items read so far, and the pending ``*``/``//``
        and ``+``/``-`` operands, folded left to right. Opening a bracket
        saves the frame on ``stack``; closing one restores it.
        """
        tokens, pos, scope, fresh = self.tokens, self.pos, self.scope, self.vars.fresh
        stack: list[tuple] = []
        frame, functor, items = "top", "", []
        sum_left = mul_left = None
        sum_op = mul_op = ""
        while True:
            kind, text = tokens[pos]
            pos += 1
            if kind == "var":
                if text == "_":
                    value = fresh()
                else:
                    value = scope.get(text)
                    if value is None:
                        value = scope[text] = fresh()
                        self.var_names[value.id] = text
            elif kind == "name" and tokens[pos][0] != "(":
                value = Compound(text)
            elif kind == "[" and tokens[pos][0] == "]":
                value = Compound(NIL)
                pos += 1
            elif kind == "name" or kind == "(" or kind == "[":
                stack.append((frame, functor, items, sum_left, sum_op, mul_left, mul_op))
                frame, functor, items, sum_op, mul_op = kind, text, [], "", ""
                if kind == "name":
                    frame = "call"
                    pos += 1
                continue
            else:
                if kind == "-" and tokens[pos][0] == "int":
                    kind, text = "int", "-" + tokens[pos][1]
                    pos += 1
                if kind != "int":
                    self.fail_expected("a term", pos - 1)
                try:
                    value = Int(int(text))
                except ValueError:  # longer than the interpreter converts
                    self.fail("integer literal too long", pos - 1)
            # Fold the primary into its frame and close every bracket it ends.
            while True:
                if mul_op:
                    value = Compound(mul_op, (mul_left, value))
                kind = tokens[pos][0]
                if kind == "*" or kind == "//":
                    mul_left, mul_op = value, kind
                    break
                mul_op = ""
                if sum_op:
                    value = Compound(sum_op, (sum_left, value))
                if kind == "+" or kind == "-":
                    sum_left, sum_op = value, kind
                    break
                sum_op = ""
                if frame == "top":
                    self.pos = pos
                    return value
                if kind == "," and (frame == "call" or frame == "["):
                    items.append(value)
                    break
                if kind == "|" and frame == "[":
                    items.append(value)
                    frame = "|"
                    break
                close = "]" if frame == "[" or frame == "|" else ")"
                if kind != close:
                    self.fail_expected(repr(close), pos)
                pos += 1
                if frame == "call":
                    items.append(value)
                    value = Compound(functor, tuple(items))
                elif frame == "[":
                    items.append(value)
                    value = list_term(items)
                elif frame == "|":
                    value = list_term(items, value)
                frame, functor, items, sum_left, sum_op, mul_left, mul_op = stack.pop()
            pos += 1

    # atom parsing

    def atom(self) -> Atom:
        start = self.pos
        left = self.term()
        mark = self.tokens[self.pos][1]
        # Only a name token can read "is", only punctuation the other infix marks.
        if mark in _INFIX_PREDICATES:
            self.pos += 1
            return Atom(mark, (left, self.term()))
        if isinstance(left, Compound):
            return Atom(left.functor, left.args)
        self.fail("expected a predicate atom", start)

    def body(self) -> tuple[Atom, ...]:
        atoms = [self.atom()]
        while self.at(","):
            self.pos += 1
            atoms.append(self.atom())
        return tuple(atoms)

    # entry points

    def program(self) -> Program:
        clauses: list[Clause] = []
        cofacts: list[Atom] = []
        while not self.at("eof"):
            self.scope = {}
            start = self.pos
            head = self.atom()
            body: tuple[Atom, ...] = ()
            if self.at(":-"):
                self.pos += 1
                body = self.body()
            self.expect(".")
            if head.predicate == "cofact":
                if body:
                    self.fail("a cofact declaration cannot have a body", start)
                if head.arity != 1:
                    self.fail("cofact(...) expects exactly one atom", start)
                wrapped = head.args[0]
                if not isinstance(wrapped, Compound):
                    self.fail("cofact(...) expects an atom, not a variable or integer", start)
                cofacts.append(Atom(wrapped.functor, wrapped.args))
            else:
                clauses.append(Clause(head, body))
        return Program(tuple(clauses), tuple(cofacts), self.var_names)

    def query(self) -> Query:
        tokens = self.tokens
        self.pos = 1 if tokens[0][0] == "?-" else 0
        atoms: tuple[Atom, ...] = ()
        if tokens[self.pos][0] not in ("eof", "."):
            atoms = self.body()
        if tokens[self.pos][0] == ".":
            self.pos += 1
        if tokens[self.pos][0] != "eof":
            self.fail("trailing input after query")
        if ("name", "true") in tokens:  # only then can an atom be ``true``
            atoms = tuple(a for a in atoms if a.predicate != "true" or a.args)
        return Query(Goal(atoms), self.var_names, self.vars.next_id)


def parse_program(text: str, origin: str = "<string>") -> Program:
    """Parse program text into clauses and co-facts, in source order.

    Each clause's variables are standardized apart (globally unique ids);
    the source spellings are kept in ``Program.var_names``.
    """
    return _Parser(text, origin, VarSource()).program()


def parse_query(text: str, origin: str = "<query>") -> Query:
    """Parse ``?- A1, ..., An.`` (the ``?-`` and final ``.`` are optional).

    Records the named query variables for answer extraction; ``true``
    atoms are erased.
    """
    return _Parser(text, origin, VarSource()).query()
