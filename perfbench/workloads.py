"""Seeded workload generators: program texts, queries and expected outputs.

Each workload builds one *pass* from a seed: a fixed-shape batch of cases,
with the same number of cases of each kind and size for every seed and the
values (list elements, tree, programs) drawn from the seed. Expected
outputs come from :mod:`reference`, never from cologic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref


@dataclass(frozen=True)
class Expect:
    """What a case must produce.

    ``kind`` is one of
    ``exact``  the answers, in order (first answer only unless ``all_answers``);
    ``set``    the answers, in any order, each exactly once;
    ``one_of`` a first answer from ``values``, or none when ``values`` is empty;
    ``sound``  no answer, or ``true.`` when ``provable`` (a generated atom);
    ``report`` the oracle report text ``values[0]``;
    ``exit``   the command line returns ``values[0]`` without raising.
    ``provable`` says whether the reference has an answer, for ``proved_ratio``.
    """

    kind: str
    values: tuple = ()
    provable: bool | None = None


@dataclass(frozen=True)
class Case:
    label: str  # shape key: kind/size, equal across seeds
    text: str  # query text; the oracle report and the CLI probe use it as a tag
    program: str  # key into Pass.programs
    expect: Expect
    mode: str = "cofacts"
    all_answers: bool = False
    op: str = "query"  # query | oracle | cli
    argv: tuple[str, ...] = ()  # cli only; argv[0] is a repo-relative program path
    step_budget: int | None = None


@dataclass
class Pass:
    programs: dict[str, str]  # key -> program text
    cases: list[Case] = field(default_factory=list)


def _answers(expect_answer: bool, text: str) -> Expect:
    return Expect("exact", (text,) if expect_answer else (), expect_answer)


# ---------------------------------------------------------------- lists

RUNNING_EXAMPLE = "programs/running_example.colp"
FINITE_LENGTHS = range(8, 81)
CYCLE_PERIODS = range(2, 26)
LIST_KINDS = ("all_pos", "all_pos_neg", "member_hit", "member_miss", "max")
LONG_LIST = 1500  # a list literal whose answer extraction overflows the stack today
DEEP_TERM = 1200  # a nesting depth that overflows the parser today


def _list_case(rng: random.Random, kind: str, n: int, cyclic: bool) -> Case:
    items = rng.sample(range(1, 1000), n)
    if kind == "all_pos_neg":
        items[n * 2 // 3] = rng.randint(-9, 0)
    x = items[n * 3 // 4] if kind == "member_hit" else rng.randint(1000, 1999)
    lit = ref.list_text(items, "L" if cyclic else None)
    shown = f"L = {lit}" if cyclic else "true."
    subject = "L" if cyclic else lit
    holds = {"all_pos": ref.all_pos(items), "all_pos_neg": ref.all_pos(items),
             "member_hit": x in items, "member_miss": x in items, "max": True}[kind]
    if kind == "max":
        goal = f"max({subject}, M)"
        shown = f"{shown}\nM = {ref.cycle_max(items)}" if cyclic else f"M = {max(items)}"
    elif kind.startswith("member"):
        goal = f"member({x}, {subject})"
    else:
        goal = f"all_pos({subject})"
    text = f"?- L = {lit}, {goal}." if cyclic else f"?- {goal}."
    return Case(f"{kind}/{'cycle' if cyclic else 'finite'}", text, "main", _answers(holds, shown))


def lists(seed: int, root: Path) -> Pass:
    """``all_pos``, ``member`` hit/miss and ``max`` over finite and cyclic lists.

    Every length and period in range gets one query, the kinds taking turns,
    so latencies spread evenly instead of bunching at a few sizes. Sizes
    stay below the ones that overflow the stack today. Three cheap probes
    that do overflow (or raise ``ValueError``) ride along, so that a fix
    shows as a higher ``success_ratio``.
    """
    rng = random.Random(seed)
    cases = [_list_case(rng, LIST_KINDS[i % 5], n, False) for i, n in enumerate(FINITE_LENGTHS)]
    cases += [_list_case(rng, LIST_KINDS[(2 * k + j) % 5], k, True)
              for k in CYCLE_PERIODS for j in range(2)]
    rng.shuffle(cases)
    long_lit = ref.list_text(range(1, LONG_LIST + 1))
    deep = "f(" * DEEP_TERM + "a" + ")" * DEEP_TERM
    cases += [
        Case("probe/long_list", f"?- L = {long_lit}.", "main", _answers(True, f"L = {long_lit}")),
        Case("probe/deep_term", f"?- X = {deep}.", "main", _answers(True, f"X = {deep}")),
        Case("probe/revisit_limit_0", "?- all_pos([1]).", "main", Expect("exit", (2,)),
             op="cli", argv=(RUNNING_EXAMPLE, "--revisit-limit", "0")),
    ]
    return Pass({"main": (root / RUNNING_EXAMPLE).read_text(encoding="utf-8")}, cases)


# ---------------------------------------------------------------- facts

N_FACTS = 1600
FANOUT_DIVISOR = 6  # node i hangs below a node < i // 6, so depth stays at most 4
# (label, cases): every seed gets this many cases of each kind.
FACTS_SHAPE = (("anc_ground_true", 20), ("anc_ground_false", 20), ("anc_all", 15),
               ("anc_first", 30), ("parent_all", 15))


def facts(seed: int, root: Path) -> Pass:
    """``parent/2`` facts forming a shallow random tree, with ``anc/2`` on top.

    Every resolution step renames every clause of a large program, and no
    goal recurs on a branch, so hypothesis lookup finds nothing. Half of
    the queries run in ``inductive`` mode, which goes through the bounded
    SLD stratum's revisit counts instead of hypotheses. With every step
    scanning all 1,602 clauses, a step costs milliseconds, so queries start
    at nodes whose subtree has a fixed small shape, a star of 1-3 leaves,
    and first-answer queries target facts at fixed program positions: each
    case then costs the same for every seed.
    """
    rng = random.Random(seed)
    parent = {i: rng.randrange(max(1, i // FANOUT_DIVISOR)) for i in range(1, N_FACTS + 1)}
    children: dict[int, list[int]] = {n: [] for n in range(N_FACTS + 1)}
    for child, par in parent.items():
        children[par].append(child)
    order = list(parent.items())  # (child, parent) in program order
    rng.shuffle(order)
    position = {child: i for i, (child, _) in enumerate(order)}
    lines = [f"parent(n{p}, n{c})." for c, p in order]
    lines += ["anc(X, Y) :- parent(X, Y).", "anc(X, Z) :- parent(X, Y), anc(Y, Z)."]

    def stars(size: int) -> list[int]:
        return [n for n, kids in children.items()
                if len(kids) == size and not any(children[k] for k in kids)]

    def at_position(candidates, i: int, count: int) -> int:
        # A first answer stops the clause scan at its fact, so the i-th of
        # `count` such queries targets the fact nearest the i-th of `count`
        # evenly spaced program positions.
        target = (2 * i + 1) * N_FACTS // (2 * count)
        return min(candidates, key=lambda c: abs(position[c] - target))

    def answers(xs) -> tuple[str, ...]:
        return tuple(f"X = n{x}" for x in xs)

    cases = []
    for label, count in FACTS_SHAPE:
        for i in range(count):
            mode = ("cofacts", "inductive")[i % 2]
            size = 1 + i % 3
            if label == "anc_ground_true":
                d = at_position([d for a in stars(size) for d in children[a]], i, count)
                a = parent[d]
                case = Case(f"{label}/{size}", f"?- anc(n{a}, n{d}).", "main",
                            _answers(True, "true."), mode)
            elif label == "anc_ground_false":
                a = rng.choice(stars(size))
                b = rng.choice([n for n in parent if n != a and parent[n] != a])
                case = Case(f"{label}/{size}", f"?- anc(n{a}, n{b}).", "main",
                            _answers(False, ""), mode)
            elif label == "anc_all":
                a = rng.choice(stars(size))
                case = Case(f"{label}/{size}", f"?- anc(n{a}, X).", "main",
                            Expect("set", answers(ref.descendants(children, a)), True), mode,
                            all_answers=True)
            elif label == "anc_first":
                d = at_position(parent, i, count)
                case = Case(label, f"?- anc(X, n{d}).", "main",
                            Expect("one_of", answers(ref.ancestors(parent, d)), True), mode)
            else:
                a = rng.choice([n for n, kids in children.items() if kids])
                case = Case(label, f"?- parent(n{a}, X).", "main",
                            Expect("set", answers(children[a]), True), mode, all_answers=True)
            cases.append(case)
    rng.shuffle(cases)
    return Pass({"main": "\n".join(lines) + "\n"}, cases)


# ---------------------------------------------------------------- corpus

CORPUS_PROGRAMS = 1600
# Program i gets signature i % 8 and 3 + (i // 8) % 4 constants, so every
# seed has the same mix of predicate counts, arities and universe sizes.
CORPUS_SIGNATURES = (
    {"p": 1}, {"p": 2}, {"p": 1, "q": 1}, {"p": 2, "q": 1}, {"p": 0, "q": 2},
    {"p": 1, "q": 2, "r": 1}, {"p": 2, "q": 1, "r": 0}, {"p": 1, "q": 1, "r": 2},
)
# Nearly every query needs a handful of steps. The budget cuts the rare
# exponential backtracking product short before it dominates a round; an
# aborted search is an allowed outcome that proves nothing.
CORPUS_STEP_BUDGET = 50
MAX_CLAUSE_VARS = 2  # bounds a clause's ground instances, the oracle's cost, at |U|**2


def _datalog_program(rng: random.Random, sig: dict[str, int], consts: range):
    """Random clauses and co-facts over ``sig``, with no function symbols."""
    names = list(sig)

    def atom(scope: list[str], prefer: str | None = None):
        name = prefer if prefer is not None and rng.random() < 0.4 else rng.choice(names)
        args = []
        for _ in range(sig[name]):
            roll = rng.random()
            if scope and roll < 0.45:
                args.append(rng.choice(scope))
            elif roll < 0.85 or len(scope) == MAX_CLAUSE_VARS:
                args.append(rng.choice(consts))
            else:
                scope.append(f"X{len(scope)}")
                args.append(scope[-1])
        return (name, tuple(args))

    clauses = []
    for _ in range(rng.randint(1, 5)):
        scope: list[str] = []
        head = atom(scope)
        clauses.append((head, tuple(atom(scope, head[0]) for _ in range(rng.randint(0, 2)))))
    cofacts = [atom([]) for _ in range(rng.randint(0, 2))]
    return clauses, cofacts


def corpus(seed: int, root: Path) -> Pass:
    """Constants-only programs over 3-6 constants, queried atom by atom.

    Each program gets an oracle report, then a first-answer query for
    every ground atom of its Herbrand base. Queries are tiny, so per-query
    fixed costs and the oracle's fixpoints dominate.
    """
    rng = random.Random(seed)
    programs: dict[str, str] = {}
    cases = []
    for i in range(CORPUS_PROGRAMS):
        sig = CORPUS_SIGNATURES[i % len(CORPUS_SIGNATURES)]
        clauses, cofacts = _datalog_program(rng, sig, range(3 + (i // len(CORPUS_SIGNATURES)) % 4))
        key = f"p{i}"
        lines = [ref.atom_text(h) + (" :- " + ", ".join(map(ref.atom_text, b)) if b else "") + "."
                 for h, b in clauses]
        lines += [f"cofact({ref.atom_text(c)})." for c in cofacts]
        programs[key] = "\n".join(lines) + "\n"
        ind, coind, gen = ref.semantics(clauses, cofacts)
        cases.append(Case("oracle", f"oracle {key}", key,
                          Expect("report", (ref.report_text(ind, coind, gen),)), op="oracle"))
        base = ref.herbrand_base(ref.predicates(clauses, cofacts), ref.universe(clauses, cofacts))
        for a in sorted(base, key=ref.atom_text):
            cases.append(Case("atom", f"?- {ref.atom_text(a)}.", key,
                              Expect("sound", (), a in gen), step_budget=CORPUS_STEP_BUDGET))
    return Pass(programs, cases)


WORKLOADS = {"lists": lists, "facts": facts, "corpus": corpus}
