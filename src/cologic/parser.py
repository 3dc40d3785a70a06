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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .terms import (
    CONS,
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
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "var" | "int" | "punct" | "eof"
    text: str
    line: int
    column: int


_PUNCT = (
    ":-",
    "?-",
    "=:=",
    "=\\=",
    "=<",
    ">=",
    "\\=",
    "//",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "(",
    ")",
    "[",
    "]",
    ",",
    "|",
    ".",
)

_SUM_OPS = ("+", "-")
_MUL_OPS = ("*", "//")


def _tokenize(text: str, origin: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(_Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "var" if word[0] == "_" or word[0].isupper() else "name"
            tokens.append(_Token(kind, word, line, col))
            col += i - start
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(_Token("punct", punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col, origin)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, origin: str, var_source: VarSource):
        self.tokens = _tokenize(text, origin)
        self.pos = 0
        self.origin = origin
        self.vars = var_source
        self.var_names: dict[int, str] = {}
        # var name -> Var, scoped to the current clause or query
        self.scope: dict[str, Var] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column, self.origin)

    def at_punct(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text in texts

    def expect_punct(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            shown = tok.text or "end of input"
            self.fail(f"expected {text!r} but found {shown!r}")
        return self.next()

    def new_scope(self) -> None:
        self.scope = {}

    def variable(self, name: str) -> Var:
        if name == "_":
            return self.vars.fresh()
        hit = self.scope.get(name)
        if hit is None:
            hit = self.scope[name] = self.vars.fresh()
            self.var_names[hit.id] = name
        return hit

    # term parsing

    def term(self) -> Term:
        left = self.mult()
        while self.at_punct(*_SUM_OPS):
            op = self.next().text
            left = Compound(op, (left, self.mult()))
        return left

    def mult(self) -> Term:
        left = self.prim()
        while self.at_punct(*_MUL_OPS):
            op = self.next().text
            left = Compound(op, (left, self.prim()))
        return left

    def prim(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Int(int(tok.text))
        if tok.kind == "punct" and tok.text == "-" and self.tokens[self.pos + 1].kind == "int":
            self.next()
            return Int(-int(self.next().text))
        if tok.kind == "var":
            self.next()
            return self.variable(tok.text)
        if tok.kind == "name":
            self.next()
            if self.at_punct("("):
                self.next()
                args = [self.term()]
                while self.at_punct(","):
                    self.next()
                    args.append(self.term())
                self.expect_punct(")")
                return Compound(tok.text, tuple(args))
            return Compound(tok.text)
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            inner = self.term()
            self.expect_punct(")")
            return inner
        if tok.kind == "punct" and tok.text == "[":
            return self.list_term()
        shown = tok.text or "end of input"
        self.fail(f"expected a term but found {shown!r}")

    def list_term(self) -> Term:
        self.expect_punct("[")
        if self.at_punct("]"):
            self.next()
            return Compound(NIL)
        items = [self.term()]
        while self.at_punct(","):
            self.next()
            items.append(self.term())
        tail: Term = Compound(NIL)
        if self.at_punct("|"):
            self.next()
            tail = self.term()
        self.expect_punct("]")
        out = tail
        for item in reversed(items):
            out = Compound(CONS, (item, out))
        return out

    # atom parsing

    def atom(self) -> Atom:
        start = self.peek()
        left = self.term()
        tok = self.peek()
        is_infix = (tok.kind == "punct" and tok.text in _INFIX_PREDICATES) or (
            tok.kind == "name" and tok.text == "is"
        )
        if is_infix:
            self.next()
            right = self.term()
            return Atom(tok.text, (left, right))
        if isinstance(left, Compound):
            return Atom(left.functor, left.args)
        self.fail("expected a predicate atom", start)

    def body(self) -> tuple[Atom, ...]:
        atoms = [self.atom()]
        while self.at_punct(","):
            self.next()
            atoms.append(self.atom())
        return tuple(atoms)

    # entry points

    def program(self) -> Program:
        clauses: list[Clause] = []
        cofacts: list[Atom] = []
        while self.peek().kind != "eof":
            self.new_scope()
            start = self.peek()
            head = self.atom()
            body: tuple[Atom, ...] = ()
            if self.at_punct(":-"):
                self.next()
                body = self.body()
            self.expect_punct(".")
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
        self.new_scope()
        if self.at_punct("?-"):
            self.next()
        atoms: tuple[Atom, ...] = ()
        if self.peek().kind != "eof" and not self.at_punct("."):
            atoms = self.body()
        if self.at_punct("."):
            self.next()
        if self.peek().kind != "eof":
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
