"""Metamorphic checks on cyclic lists against directly computed truth.

The ground oracle cannot speak about rational terms, but for a cyclic
list built from a finite prefix and a repeating cycle the intended
meanings are computable outright: every element is positive, a value
occurs among the elements, a value is the greatest element. The engine
must agree, and must keep agreeing when the same infinite list is
presented with a different prefix/cycle split.
"""

from __future__ import annotations

import random

import pytest

from cologic import parse_program
from helpers import RUNNING_EXAMPLE, succeeds


@pytest.fixture(scope="module")
def running():
    return parse_program(RUNNING_EXAMPLE)


def cyclic_query(prefix: list[int], cycle: list[int], goal: str) -> str:
    tie = "L = C" if not prefix else "L = [" + ", ".join(map(str, prefix)) + "|C]"
    loop = "C = [" + ", ".join(map(str, cycle)) + "|C]"
    return f"?- {tie}, {loop}, {goal}."


def rolled(prefix: list[int], cycle: list[int]) -> tuple[list[int], list[int]]:
    """The same infinite list, with the cycle entered one element later."""
    return prefix + [cycle[0]], cycle[1:] + [cycle[0]]


VALUES = (-2, 1, 2, 3)


def test_cyclic_lists_against_computed_truth(running):
    rng = random.Random(505)
    for _ in range(60):
        prefix = [rng.choice(VALUES) for _ in range(rng.randint(0, 2))]
        cycle = [rng.choice(VALUES) for _ in range(rng.randint(1, 3))]
        elements = set(prefix) | set(cycle)
        splits = [(prefix, cycle), rolled(prefix, cycle)]

        expected_all_pos = all(v > 0 for v in elements)
        for p, c in splits:
            assert succeeds(running, cyclic_query(p, c, "all_pos(L)")) == expected_all_pos

        for probe in (-2, 1, 2, 3, 9):
            expected = probe in elements
            for p, c in splits:
                assert (
                    succeeds(running, cyclic_query(p, c, f"member({probe}, L)")) == expected
                ), (p, c, probe)

        true_max = max(elements)
        for probe in sorted({true_max, true_max + 1, min(elements), 9}):
            expected = probe == true_max
            for p, c in splits:
                assert (
                    succeeds(running, cyclic_query(p, c, f"max(L, {probe})")) == expected
                ), (p, c, probe)


def test_cyclic_max_with_unbound_result(running):
    # Solving for the maximum itself on cyclic lists: one distinct value.
    rng = random.Random(606)
    from cologic import EngineConfig, Int, parse_query, solve

    for _ in range(25):
        prefix = [rng.choice(VALUES) for _ in range(rng.randint(0, 2))]
        cycle = [rng.choice(VALUES) for _ in range(rng.randint(1, 3))]
        true_max = max(set(prefix) | set(cycle))
        text = cyclic_query(prefix, cycle, "max(L, M)")
        got = set()
        for answer in solve(running, parse_query(text), EngineConfig()):
            value = dict(answer.equations)["M"]
            assert isinstance(value, Int)
            got.add(value.value)
        assert got == {true_max}, (prefix, cycle, got)


def test_inductive_mode_rejects_cyclic_lists(running):
    # No finite proof exists for all_pos on any infinite list.
    assert not succeeds(running, cyclic_query([], [1, 2], "all_pos(L)"), mode="inductive")
    assert not succeeds(running, cyclic_query([3], [1], "max(L, 3)"), mode="inductive")
    # member keeps its inductive meaning even on cyclic lists
    assert succeeds(running, cyclic_query([], [1, 2], "member(2, L)"), mode="inductive")


# The resolver keeps its goals and choice points in lists, not on Python's
# stack, so branch depth is bounded by memory, not the recursion limit.
DEEP = 600


def _first_answer(program, text: str):
    from cologic import parse_query, solve
    from cologic.cli import format_answer

    answer = next(iter(solve(program, parse_query(text))), None)
    return None if answer is None else format_answer(answer)


@pytest.mark.parametrize("goal,expected", [("all_pos({})", "true."), ("max({}, M)", f"M = {DEEP}")])
def test_deep_finite_list(running, goal, expected):
    items = "[" + ", ".join(str(i) for i in range(1, DEEP + 1)) + "]"
    assert _first_answer(running, f"?- {goal.format(items)}.") == expected


def test_long_cycle_max(running):
    items = ", ".join(str(i) for i in range(1, 201))
    answer = _first_answer(running, f"?- L = [{items}|L], max(L, M).")
    assert answer is not None and answer.endswith("\nM = 200")


def test_period_300_cycle_max(running):
    # The bounded stratum's goal snapshot copies this cycle without recursion.
    items = ", ".join(str(i) for i in range(1, 301))
    answer = _first_answer(running, f"?- L = [{items}|L], max(L, M).")
    assert answer is not None and answer.endswith("\nM = 300")
