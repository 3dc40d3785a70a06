"""Every layer perfbench's traced run requires is still reached through its module attribute.

``perfbench/run.py --trace 1`` exits 1 when the engine stops calling a
wrapped function through the attribute the tracer replaces (such as
``engine.fresh_rename`` or the head ``engine.unify_atoms``). This test
runs a traced 40-case sample of each workload the same way, so the
ordinary test run notices such a change too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Pass  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_traced_sample_reaches_every_required_layer(name):
    cologic = run.load_cologic()
    full = WORKLOADS[name](11, run.ROOT)
    sample = Pass(full.programs, full.cases[:40])
    tally = run.Tally(len(sample.cases))
    with tr.Tracer() as tracer:
        parsed: dict = {}
        run.parse_all(cologic, sample, parsed)
        tracer.end_query()
        run.run_round(cologic, sample, parsed, {}, tally, tracer)
    tr.check_required(tracer, run.REQUIRED[name])
    assert tally.wrong == 0
