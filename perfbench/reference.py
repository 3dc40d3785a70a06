"""Expected outputs computed without cologic.

Everything here works on the generators' own Python data (lists of ints, a
parent map, clause tuples) and never imports cologic, so a defect in the
parser, unifier, engine or oracle cannot leak into what the benchmark
expects. The text forms follow the documented answer syntax: one
``Name = value`` line per query variable, cyclic lists as ``[a, b|L]``,
``true.`` for a variable-free success.
"""

from __future__ import annotations

import itertools

# ---------------------------------------------------------------- lists


def list_text(items, tail: str | None = None) -> str:
    body = ", ".join(str(x) for x in items)
    return f"[{body}|{tail}]" if tail else f"[{body}]"


def all_pos(items) -> bool:
    return all(x > 0 for x in items)


def cycle_max(items) -> int:
    """The paper's meaning of ``max(L, M)`` on a cycle: the largest element, only."""
    return max(items)


# ---------------------------------------------------------------- facts


def descendants(children: dict[int, list[int]], node: int) -> list[int]:
    """Every node strictly below ``node``, breadth first."""
    out: list[int] = []
    frontier = list(children.get(node, ()))
    while frontier:
        out.extend(frontier)
        frontier = [c for n in frontier for c in children.get(n, ())]
    return out


def ancestors(parent: dict[int, int], node: int) -> list[int]:
    out = []
    while node in parent:
        node = parent[node]
        out.append(node)
    return out


# ---------------------------------------------------------------- corpus
#
# A program is (clauses, cofacts); a clause is (head, body); an atom is
# (predicate, args); an argument is an int constant or a variable name
# starting with an upper-case letter. The definitions mirror the
# declarative semantics stated in cologic's documentation: the universe is
# the constants the program mentions (a dummy ``a`` when there are none),
# Ind is the least fixed point of the one-step operator, CoInd the greatest
# one below the Herbrand base of the clauses' predicates, and Gen the
# largest consistent interpretation inside Ind of the program with its
# co-facts added as facts.

DUMMY_CONSTANT = "a"


def _is_var(arg) -> bool:
    return isinstance(arg, str) and arg[:1].isupper()


def universe(clauses, cofacts) -> tuple:
    atoms = [a for head, body in clauses for a in (head, *body)] + list(cofacts)
    consts = {arg for _, args in atoms for arg in args if not _is_var(arg)}
    return tuple(sorted(consts, key=str)) or (DUMMY_CONSTANT,)


def predicates(clauses, cofacts=()) -> set[tuple[str, int]]:
    atoms = [a for head, body in clauses for a in (head, *body)] + list(cofacts)
    return {(name, len(args)) for name, args in atoms}


def herbrand_base(preds, consts) -> set:
    return {
        (name, combo)
        for name, arity in preds
        for combo in itertools.product(consts, repeat=arity)
    }


def _ground(clauses, consts) -> list:
    out = set()
    for head, body in clauses:
        names = sorted({a for _, args in (head, *body) for a in args if _is_var(a)})
        for combo in itertools.product(consts, repeat=len(names)):
            sub = dict(zip(names, combo))

            def inst(atom):
                return (atom[0], tuple(sub.get(a, a) if _is_var(a) else a for a in atom[1]))

            out.add((inst(head), tuple(inst(b) for b in body)))
    return list(out)


def _step(ground, interp) -> set:
    return {head for head, body in ground if all(b in interp for b in body)}


def semantics(clauses, cofacts) -> tuple[set, set, set]:
    """``(Ind(P+C), CoInd(P), Gen(P, C))`` as sets of ground atoms."""
    consts = universe(clauses, cofacts)
    extended = _ground(list(clauses) + [(c, ()) for c in cofacts], consts)
    ground = _ground(clauses, consts)
    ind: set = set()
    while (nxt := _step(extended, ind)) != ind:
        ind = nxt
    coind = herbrand_base(predicates(clauses), consts)
    while (nxt := _step(ground, coind)) != coind:
        coind = nxt
    gen = set(ind)
    while (nxt := gen & _step(ground, gen)) != gen:
        gen = nxt
    return ind, coind, gen


def atom_text(atom) -> str:
    name, args = atom
    return f"{name}({', '.join(str(a) for a in args)})" if args else name


def report_text(ind, coind, gen) -> str:
    """The oracle report as the command line prints it."""

    def shown(atoms):
        return "{" + ", ".join(sorted(atom_text(a) for a in atoms)) + "}"

    return f"Ind(P⊔C) = {shown(ind)}\nCoInd(P) = {shown(coind)}\nGen(P,C) = {shown(gen)}"
