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

The text is scanned once by one regular expression, and terms are read by
one loop over an explicit stack, so nesting depth is bounded by memory,
not by Python's recursion limit.
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

# Blanks and comments match the group-less first branch. Then, by group:
# 1 a decimal integer, 2 a word, 3 a punctuation mark (longest first),
# 4 any other character.
_TOKEN = re.compile(
    r"[ \t\r\n]+|%[^\n]*|(\d+)|(\w+)"
    r"|(=:=|=\\=|:-|\?-|=<|>=|\\=|//|[-=<>+*()\[\],|.])|(.)"
)


def _error(message: str, text: str, offset: int, origin: str) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1, origin)


def _tokenize(text: str, origin: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, offset) tuples, ending with an "eof" token.

    ``kind`` is "int", "name", "var" or the punctuation mark itself.
    """
    tokens: list[tuple[str, str, int]] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group is None:
            continue
        word = match[group]
        if group == 3:
            append((word, word, match.start()))
        elif group == 1:
            append(("int", word, match.start()))
        elif group == 2 and (word[0].isalpha() or word[0] == "_"):
            append(("var" if word[0] == "_" or word[0].isupper() else "name", word, match.start()))
        else:
            raise _error(f"unexpected character {word[0]!r}", text, match.start(), origin)
    # End of input sits at the start of a comment that ends the text, not after
    # it, so an error found there points at the comment.
    end = text.find("%", text.rfind("\n") + 1)
    tokens.append(("eof", "", len(text) if end < 0 else end))
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

    def fail(self, message: str, token: tuple[str, str, int] | None = None):
        token = token or self.tokens[self.pos]
        raise _error(message, self.text, token[2], self.origin)

    def fail_expected(self, what: str, token: tuple[str, str, int]):
        self.fail(f"expected {what} but found {token[1] or 'end of input'!r}", token)

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def expect(self, kind: str) -> None:
        if not self.at(kind):
            self.fail_expected(repr(kind), self.tokens[self.pos])
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
            token = tokens[pos]
            kind, text = token[0], token[1]
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
                    token = tokens[pos]
                    kind, text = "int", "-" + token[1]
                    pos += 1
                if kind != "int":
                    self.fail_expected("a term", token)
                try:
                    value = Int(int(text))
                except ValueError:  # longer than the interpreter converts
                    self.fail("integer literal too long", token)
            # Fold the primary into its frame and close every bracket it ends.
            while True:
                if mul_op:
                    value = Compound(mul_op, (mul_left, value))
                token = tokens[pos]
                kind = token[0]
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
                    self.fail_expected(repr(close), token)
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
        start = self.tokens[self.pos]
        left = self.term()
        token = self.tokens[self.pos]
        # Only a name token can read "is", only punctuation the other infix marks.
        if token[1] in _INFIX_PREDICATES:
            self.pos += 1
            return Atom(token[1], (left, self.term()))
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
            start = self.tokens[self.pos]
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
        if self.at("?-"):
            self.pos += 1
        atoms: tuple[Atom, ...] = ()
        if not self.at("eof") and not self.at("."):
            atoms = self.body()
        if self.at("."):
            self.pos += 1
        if not self.at("eof"):
            self.fail("trailing input after query")
        atoms = tuple(a for a in atoms if not (a.predicate == "true" and a.arity == 0))
        names = {var.id: name for name, var in self.scope.items()}
        return Query(Goal(atoms), names)


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
