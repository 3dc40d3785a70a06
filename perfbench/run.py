"""Offline benchmark for cologic: one closed-loop client, one query at a time.

Run from the repository root::

    python3 perfbench/run.py --workload lists --seed 1 --seconds 30 --trace 0

It imports cologic from ``src/`` of the checkout it sits in, builds the
workload's programs and queries from ``--seed`` (:mod:`workloads`), and
sends them through the public API (``parse_program``/``parse_query`` ->
``solve`` -> ``cli.format_answer``; ``cli.oracle_report`` on ``corpus``).
Every output is checked against :mod:`reference`, which does not use
cologic, and every failure is listed by query. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` repeats rounds over the workload's cases for ``--seconds``
and reports the end-to-end metrics. ``--trace 1`` runs one round untraced
and one under :class:`tracer.Tracer` and reports the per-layer metrics; it
exits with status 1 when a layer the workload must exercise recorded no
calls.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer as tr
from workloads import WORKLOADS, Case, Pass

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 11
MIN_ROUNDS = 3
# The machine this runs on is shared, and its speed drifts by up to half
# over tens of seconds. Every time is therefore scaled to a reference speed:
# a fixed slice of interpreter work, interleaved with the queries (one slice
# per CALIBRATE_EVERY_S of measured work), is timed, and times are reported
# as if that slice took exactly REFERENCE_SLICE_S.
REFERENCE_SLICE_S = 0.002
CALIBRATE_EVERY_S = 0.025

# Layers each workload must reach; (span, parent) with parent None for any.
_ENGINE_CORE = (
    ("parser", None),
    ("engine", None),
    ("engine.is_builtin", None),
    ("terms.fresh_rename", None),
    ("unify.unify_atoms", tr.HEAD),
    ("engine.hyp_lookup", None),
    ("engine.lfp_lookup", None),
    ("unify.extract_answer", None),
    ("cli.format_answer", None),
)
REQUIRED = {
    "lists": _ENGINE_CORE + (
        ("unify.unify_atoms", "engine.hyp_lookup"),
        ("unify.unify_atoms", "engine.lfp_lookup"),
        ("engine.eval_builtin", None),
    ),
    "facts": _ENGINE_CORE,
    "corpus": _ENGINE_CORE + (
        ("oracle.ground_instances", None),
        ("oracle.op_step", None),
        ("oracle.herbrand_base", None),
    ),
}


def load_cologic():
    """Import cologic from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cologic" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cologic sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cologic = importlib.import_module("cologic")
    importlib.import_module("cologic.cli")
    if Path(cologic.__file__).resolve().parent != (src / "cologic").resolve():
        sys.exit(f"perfbench: imported cologic from {cologic.__file__}, not {src}")
    return cologic


def calibration_slice() -> float:
    """Seconds taken by fixed interpreter work that no change to cologic touches.

    The work mixes what the engine does most: calls, small tuples,
    isinstance tests and dict traffic.
    """

    def step(key, value):
        return (value, key) if isinstance(key, int) and key & 1 else (key, value)

    start = perf_counter()
    table: dict = {}
    for i in range(6000):
        pair = step(i & 511, i)
        table[pair[0]] = table.get(pair[1], 0) + 1
    return perf_counter() - start


def speed_scale(slices: list[float]) -> float:
    """Factor that turns a time measured near ``slices`` into reference-speed time."""
    return REFERENCE_SLICE_S / statistics.median(slices)


def setup(p: Pass):
    """Import cologic and parse the pass's programs, ``SETUP_REPEATS`` times from scratch.

    Returns the package and the parsed programs (by text) of the last
    repeat, and the median set-up time at reference speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "cologic" or m.startswith("cologic.")]:
            del sys.modules[name]
        start = perf_counter()
        cologic = load_cologic()
        parsed: dict = {}
        parse_all(cologic, p, parsed)
        elapsed = perf_counter() - start
        times.append(elapsed * speed_scale([calibration_slice() for _ in range(3)]))
    return cologic, parsed, statistics.median(times)


@dataclass
class Tally:
    """Outcomes of repeated rounds over one pass, with each case's reference-speed times."""

    cases: int
    rounds: int = 0
    attempted: int = 0
    crashed: int = 0
    wrong: int = 0
    aborted: int = 0  # corpus searches stopped by the step budget: allowed, proves nothing
    phase_s: float = 0.0  # wall time of every operation in every round, unscaled
    samples: list[list[float]] = field(default_factory=list)  # per case, one per round
    scales: list[float] = field(default_factory=list)  # per round, median reference-speed factor
    failed_case: list[bool] = field(default_factory=list)
    answered: list[bool] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    outputs: list = field(default_factory=list)  # kept only when asked, for determinism checks

    def __post_init__(self):
        self.samples = [[] for _ in range(self.cases)]
        self.failed_case = [False] * self.cases
        self.answered = [True] * self.cases

    @property
    def failed(self) -> int:
        return self.crashed + self.wrong

    def latency(self, i: int) -> float:
        return statistics.median(self.samples[i])


def execute(cologic, case: Case, program, config):
    if case.op == "cli":
        argv = [str(ROOT / case.argv[0]), *case.argv[1:], "--query", case.text]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return ("exit", cologic.cli.main(argv))
    if case.op == "oracle":
        return ("report", cologic.cli.oracle_report(program))
    query = cologic.parse_query(case.text)
    answers = []
    for answer in cologic.solve(program, query, config):
        answers.append(cologic.cli.format_answer(answer))
        if not case.all_answers:
            break
    return ("answers", tuple(answers))


def judge(case: Case, outcome) -> str:
    """``ok``, ``crash`` (an exception that is not a CologicError) or ``wrong``."""
    kind, value = outcome
    expect = case.expect
    if kind == "crash":
        return "crash"
    if kind == "error":
        allowed = case.step_budget is not None and value.startswith("ResourceLimitError")
        return "ok" if allowed else "wrong"
    if expect.kind in ("exit", "report"):
        return "ok" if value == expect.values[0] else "wrong"
    if expect.kind == "exact":
        good = value == expect.values
    elif expect.kind == "set":
        good = sorted(value) == sorted(expect.values)
    elif expect.kind == "one_of":
        good = (not value and not expect.values) or (len(value) == 1 and value[0] in expect.values)
    else:  # sound
        good = not value or (value == ("true.",) and expect.provable)
    return "ok" if good else "wrong"


def run_round(cologic, p: Pass, parsed: dict, configs: dict, tally: Tally,
              tracer: tr.Tracer | None = None, keep_outputs: bool = False) -> None:
    tally.rounds += 1
    # Each case is scaled by the slices timed just before and after it.
    elapsed_by_case, chunk_by_case, slices, since_slice = [], [], [], 0.0
    for i, case in enumerate(p.cases):
        program = parsed[p.programs[case.program]]
        key = (case.mode, case.step_budget)
        if key not in configs:
            configs[key] = cologic.EngineConfig(mode=case.mode, step_budget=case.step_budget)
        start = perf_counter()
        try:
            outcome = execute(cologic, case, program, configs[key])
        except cologic.CologicError as exc:
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # a traceback a user would see: counted and listed below
            outcome = ("crash", f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_query()
        status = judge(case, outcome)
        tally.attempted += 1
        tally.phase_s += elapsed
        elapsed_by_case.append(elapsed)
        chunk_by_case.append(len(slices))
        since_slice += elapsed
        if since_slice >= CALIBRATE_EVERY_S:
            slices.append(calibration_slice())
            since_slice = 0.0
        tally.aborted += outcome[0] == "error"
        tally.answered[i] &= status == "ok" and outcome[0] == "answers" and bool(outcome[1])
        if keep_outputs:
            tally.outputs.append((case.label, case.text, outcome))
        if status != "ok":
            tally.failed_case[i] = True
            tally.crashed += status == "crash"
            tally.wrong += status == "wrong"
            tally.failures[(status, case.label, case.text[:60], str(outcome[1])[:100])] += 1
    slices.append(calibration_slice())
    tally.scales.append(speed_scale(slices))
    for samples, elapsed, chunk in zip(tally.samples, elapsed_by_case, chunk_by_case):
        samples.append(elapsed * speed_scale(slices[max(0, chunk - 1):chunk + 2]))


def parse_all(cologic, p: Pass, parsed: dict) -> None:
    for text in p.programs.values():
        if text not in parsed:
            parsed[text] = cologic.parse_program(text)


def percentile_ms(ordered: list[tuple[bool, float]], q: float) -> float:
    """Nearest-rank percentile in ms of sorted ``(failed, seconds)``: failures sort above successes."""
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)][1] * 1e3


def end_to_end(p: Pass, seconds: float) -> tuple[Tally, dict]:
    """Repeat rounds over the pass for ``seconds`` (at least ``MIN_ROUNDS``).

    Percentiles pool every execution of every query; throughput divides the
    correct queries of one round by the sum of each case's median time.
    """
    cologic, parsed, setup_s = setup(p)
    tally, configs = Tally(len(p.cases)), {}
    # The pass and the parsed programs live for the whole run; keep the
    # collector from rescanning them inside queries.
    gc.freeze()
    deadline = perf_counter() + seconds
    run_round(cologic, p, parsed, configs, tally)
    # Every round does the same work, so the first one reaches the peak;
    # later rounds would only add this harness's own samples.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while tally.rounds < MIN_ROUNDS or perf_counter() < deadline:
        run_round(cologic, p, parsed, configs, tally)
    queries = [i for i, case in enumerate(p.cases) if case.op != "oracle"]
    latencies = sorted((tally.failed_case[i], x) for i in queries for x in tally.samples[i])
    provable = [i for i, case in enumerate(p.cases) if case.expect.provable]
    ok = sum(not tally.failed_case[i] for i in queries)
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "query_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "queries_per_s": (ok / sum(map(tally.latency, range(len(p.cases)))), "1/s"),
        "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "proved_ratio": (sum(tally.answered[i] for i in provable) / len(provable), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{len(queries)} queries and {len(p.cases) - len(queries)} oracle reports per round,"
          f" {tally.rounds} rounds, {len(latencies)} latency samples, {tally.aborted} budget aborts,"
          f" {tally.phase_s:.3f} s measured")
    return tally, metrics


def traced_round(p: Pass):
    """Run the pass untraced (a warm-up round, then a measured one), then traced.

    Returns both tallies, the tracer and the traced-to-untraced time ratio
    at reference speed; the measured rounds parse the programs afresh.
    """
    cologic, parsed, _ = setup(p)
    configs: dict = {}
    untraced, traced = Tally(len(p.cases)), Tally(len(p.cases))
    run_round(cologic, p, parsed, configs, Tally(len(p.cases)))
    start = perf_counter()
    parsed = {}
    parse_all(cologic, p, parsed)
    run_round(cologic, p, parsed, configs, untraced)
    untraced_s = (perf_counter() - start) * untraced.scales[-1]
    with tr.Tracer() as tracer:
        start = perf_counter()
        parsed = {}
        parse_all(cologic, p, parsed)
        tracer.end_query()
        run_round(cologic, p, parsed, configs, traced, tracer)
        traced_s = (perf_counter() - start) * traced.scales[-1]
    return untraced, traced, tracer, traced_s / untraced_s


def per_layer(p: Pass, untraced: Tally, traced: Tally, t: tr.Tracer, overhead: float) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    scale = traced.scales[-1]  # traced times, scaled to reference speed like the rest

    oracle_s = sum(untraced.latency(i) for i, case in enumerate(p.cases) if case.op == "oracle")
    query_s = sum(untraced.latency(i) for i, case in enumerate(p.cases) if case.op != "oracle")

    steps = t.calls("engine.is_builtin")
    unify = "unify.unify_atoms"
    lookups = ("engine.hyp_lookup", "engine.lfp_lookup")
    metrics = {
        "parser.calls": (t.calls("parser"), "count"),
        "parser.self_s": (t.self_s("parser") * scale, "s"),
        "parser.bytes_per_s": (ratio(t.parser_bytes, t.self_s("parser") * scale), "B/s"),
        "terms.fresh_rename.calls": (t.calls("terms.fresh_rename"), "count"),
        "terms.fresh_rename.self_s": (t.self_s("terms.fresh_rename") * scale, "s"),
        "unify.unify_atoms.calls": (t.calls(unify), "count"),
        "unify.unify_atoms.self_s": (t.self_s(unify) * scale, "s"),
        "unify.unify_atoms.success_ratio": (ratio(t.total(unify, 3), t.calls(unify)), "ratio"),
        "unify.head.calls": (t.calls(unify, tr.HEAD), "count"),
        "unify.head.success_ratio": (ratio(t.total(unify, 3, tr.HEAD), t.calls(unify, tr.HEAD)), "ratio"),
        "unify.lookup_trials.self_s": (sum(t.self_s(unify, span) for span in lookups) * scale, "s"),
        "unify.extract_answer.self_s": (t.self_s("unify.extract_answer") * scale, "s"),
        "engine.steps": (steps, "count"),
        "engine.us_per_step": (ratio(query_s, steps) * 1e6, "us"),
        "engine.self_s": ((t.self_s("engine") + t.self_s("engine.is_builtin")) * scale, "s"),
        "engine.eval_builtin.self_s": (t.self_s("engine.eval_builtin") * scale, "s"),
    }
    for span in lookups:
        metrics[f"{span}.calls"] = (t.calls(span), "count")
        metrics[f"{span}.trials"] = (t.calls(unify, span), "count")
        metrics[f"{span}.total_s"] = (t.total(span, 1) * scale, "s")
    metrics["engine.hyp_lookup.hit_ratio"] = (
        ratio(t.total(unify, 3, "engine.hyp_lookup"), t.calls(unify, "engine.hyp_lookup")), "ratio")
    metrics.update({
        "oracle.ground_instances.self_s": (t.self_s("oracle.ground_instances") * scale, "s"),
        "oracle.op_step.calls": (t.calls("oracle.op_step"), "count"),
        "oracle.op_step.self_s": (t.self_s("oracle.op_step") * scale, "s"),
        "oracle.report_s": (oracle_s, "s"),
        "cli.format_answer.self_s": (t.self_s("cli.format_answer") * scale, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return metrics


def report_failures(tally: Tally) -> None:
    for (status, label, text, detail), count in sorted(tally.failures.items()):
        print(f"FAILED x{count} [{status}] {label}: {text} -> {detail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_cologic()  # fail before generating anything when the sources are missing
    p = WORKLOADS[args.workload](args.seed, ROOT)
    if args.trace:
        untraced, traced, tracer, overhead = traced_round(p)
        for parent, name, calls, self_s, share in tracer.breakdown():
            print(f"{share:7.2%} {self_s:9.4f} s {calls:10d}  {name}  <- {parent}")
        try:
            tr.check_required(tracer, REQUIRED[args.workload])
        except tr.MissingLayer as exc:
            print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
            return 1
        metrics = per_layer(p, untraced, traced, tracer, overhead)
        tallies = (untraced, traced)
    else:
        tally, metrics = end_to_end(p, args.seconds)
        tallies = (tally,)
    for tally in tallies:
        report_failures(tally)
    result = {
        "correct": all(t.wrong == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
