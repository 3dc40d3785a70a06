"""Checks on the benchmark itself: step counting, determinism, loud failure.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

from collections import Counter

import pytest

import run
import tracer as tr
from workloads import WORKLOADS, Pass

cologic = run.load_cologic()

STEP_QUERIES = (
    ("programs/running_example.colp", "?- all_pos([1, 2, 3])."),
    ("programs/running_example.colp", "?- member(3, [1, 2])."),
    ("programs/running_example.colp", "?- L = [1, 2|L], max(L, M)."),
    ("programs/running_example.colp", "?- L = [1, 2|L], member(3, L)."),
    ("programs/pq.colp", "?- p(0)."),
    ("programs/pq.colp", "?- p(1)."),
)


def _answers(program, query, **config):
    return list(cologic.solve(program, query, cologic.EngineConfig(**config)))


@pytest.mark.parametrize("path,text", STEP_QUERIES)
def test_steps_equal_smallest_sufficient_budget(path, text):
    program = cologic.parse_program((run.ROOT / path).read_text(encoding="utf-8"))
    query = cologic.parse_query(text)
    with tr.Tracer() as tracer:
        traced = [cologic.cli.format_answer(a) for a in cologic.solve(program, query)]
    steps = tracer.calls("engine.is_builtin")
    assert steps > 0
    assert [cologic.cli.format_answer(a) for a in _answers(program, query, step_budget=steps)] == traced
    with pytest.raises(cologic.ResourceLimitError):
        _answers(program, query, step_budget=steps - 1)


def _sample(name: str, seed: int) -> Pass:
    p = WORKLOADS[name](seed, run.ROOT)
    return Pass(p.programs, p.cases[:40])


def _traced(p: Pass):
    tally = run.Tally(len(p.cases))
    with tr.Tracer() as tracer:
        parsed: dict = {}
        run.parse_all(cologic, p, parsed)
        tracer.end_query()
        run.run_round(cologic, p, parsed, {}, tally, tracer, keep_outputs=True)
    return tracer, tally


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_rounds_repeat_exactly(name):
    first, second = _traced(_sample(name, 11)), _traced(_sample(name, 11))
    assert first[0].per_query == second[0].per_query  # calls, trials and steps, query by query
    assert first[1].outputs == second[1].outputs  # answers
    assert first[1].wrong == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_change_inputs_not_shape(name):
    a, b = WORKLOADS[name](11, run.ROOT), WORKLOADS[name](12, run.ROOT)

    def shape(p: Pass) -> Counter:
        # A corpus program's Herbrand base, hence its number of atom
        # queries, depends on the program drawn.
        return Counter(c.label for c in p.cases if c.label != "atom")

    assert shape(a) == shape(b)
    assert [c.text for c in a.cases] != [c.text for c in b.cases]


def test_a_bypassed_layer_fails_loudly():
    p = _sample("lists", 11)
    tally = run.Tally(len(p.cases))
    with tr.Tracer() as tracer:
        # What a refactor that stops calling engine.fresh_rename looks like.
        cologic.engine.fresh_rename = cologic.terms.fresh_rename
        parsed: dict = {}
        run.parse_all(cologic, p, parsed)
        run.run_round(cologic, p, parsed, {}, tally, tracer)
    assert cologic.engine.fresh_rename is cologic.terms.fresh_rename
    with pytest.raises(tr.MissingLayer, match="terms.fresh_rename"):
        tr.check_required(tracer, run.REQUIRED["lists"])


def test_a_wrong_answer_is_not_correct():
    case = next(c for c in WORKLOADS["lists"](11, run.ROOT).cases if c.label.startswith("max/"))
    assert run.judge(case, ("answers", case.expect.values)) == "ok"
    assert run.judge(case, ("answers", ("M = 0",))) == "wrong"
    assert run.judge(case, ("answers", ())) == "wrong"
    assert run.judge(case, ("crash", "RecursionError")) == "crash"
