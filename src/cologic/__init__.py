"""cologic: logic programming with co-facts over rational trees.

A program's meaning is steered by its co-fact set: the empty set gives
ordinary inductive semantics, a universal set gives coinductive
semantics, and anything in between carves out a fixed point that is
neither. The engine resolves goals coinductively but demands, whenever a
goal recurs, a bounded standard proof in the program enriched by the
co-facts; a brute-force oracle over the finite ground fragment provides
the declarative semantics the engine is tested against.
"""

from .engine import Answer, EngineConfig, solve
from .errors import (
    CologicError,
    EvaluationError,
    InstantiationError,
    InternalError,
    ParseError,
    ResourceLimitError,
    UnsupportedProgramError,
)
from .oracle import (
    BoundedCoinductionReport,
    GroundUniverse,
    bounded_coinduction_check,
    coind_semantics,
    generated_semantics,
    ind_semantics,
    universe_for,
)
from .parser import parse_program, parse_query
from .terms import (
    Atom,
    Clause,
    Compound,
    Goal,
    Int,
    Program,
    Query,
    Term,
    Var,
    list_term,
    render_atom,
    render_clause,
    render_program,
    render_term,
)

__all__ = [
    "Answer",
    "Atom",
    "BoundedCoinductionReport",
    "Clause",
    "CologicError",
    "Compound",
    "EngineConfig",
    "EvaluationError",
    "Goal",
    "GroundUniverse",
    "InstantiationError",
    "Int",
    "InternalError",
    "ParseError",
    "Program",
    "Query",
    "ResourceLimitError",
    "Term",
    "UnsupportedProgramError",
    "Var",
    "bounded_coinduction_check",
    "coind_semantics",
    "generated_semantics",
    "ind_semantics",
    "list_term",
    "parse_program",
    "parse_query",
    "render_atom",
    "render_clause",
    "render_program",
    "render_term",
    "solve",
    "universe_for",
]
