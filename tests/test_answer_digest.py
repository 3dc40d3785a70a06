"""tools/answer_digest.py: the same checkout and seed always give the same digest.

Its ``--lines`` output and the ``--compare`` consumer of two such outputs
are checked on synthetic lines.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_digest_repeats_across_processes():
    # Two interpreters with different hash seeds, run side by side: a digest
    # that hung on set or dict order, or on object identity, would differ.
    argv = [sys.executable, str(ROOT / "tools" / "answer_digest.py"), "--checkout", str(ROOT),
            "--seed", "3", "--workload", "facts", "--cases", "50"]
    runs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("1", "2")]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        outputs.append(out)
    workload, sequences, digest = outputs[0].split()
    assert (workload, sequences) == ("facts", str(50 * 3 * 2))
    assert len(digest) == 64
    assert outputs[0] == outputs[1]


def test_parse_digest_repeats_across_processes():
    argv = [sys.executable, str(ROOT / "tools" / "answer_digest.py"), "--checkout", str(ROOT),
            "--seed", "3", "--workload", "parse"]
    outputs = [subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300,
                              env={**os.environ, "PYTHONHASHSEED": seed}).stdout
               for seed in ("1", "2")]
    name, parses, digest = outputs[0].split()
    assert name == "parse" and int(parses) > 2 * 2_000  # two parses of each noise text, then the workloads
    assert len(digest) == 64
    assert outputs[0] == outputs[1]


def test_oracle_digest_repeats_across_processes():
    argv = [sys.executable, str(ROOT / "tools" / "answer_digest.py"), "--checkout", str(ROOT),
            "--seed", "3", "--workload", "oracle"]
    outputs = [subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300,
                              env={**os.environ, "PYTHONHASHSEED": seed}).stdout
               for seed in ("1", "2")]
    name, reports, digest = outputs[0].split()
    assert name == "oracle" and int(reports) == 1 + 1_600  # the lists program, then every corpus program
    assert len(digest) == 64
    assert outputs[0] == outputs[1]


def _tool():
    spec = importlib.util.spec_from_file_location("answer_digest", ROOT / "tools" / "answer_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BUDGET = "ResourceLimitError"


@pytest.mark.parametrize("old, new, kind", [
    ((["A", "B"], None), (["A", "B"], None), None),
    ((["A", "A", "B"], None), (["A", "B"], None), "duplicates"),
    ((["A", "A"], BUDGET), (["A", "B"], BUDGET), "duplicates"),  # got further before the budget
    ((["A"] * 12, None), (["A", "B"], None), "duplicates"),  # duplicates filled the cap
    ((["A"], BUDGET), (["A", "B"], None), "error-to-answers"),
    (([], BUDGET), ([], None), "error-to-answers"),
    ((["A"] * 12, None), (["A"], BUDGET), "answers-to-error"),
    ((["A", "B"], None), (["B", "A"], None), "lost"),  # reordered
    ((["A", "B"], None), (["A"], None), "lost"),
    ((["A"], None), (["A", "B"], None), "lost"),  # added where the old side was complete
    ((["A", "B"], BUDGET), (["A"], None), "lost"),
    ((["A"], None), (["A"], BUDGET), "lost"),  # a budget error without a filled cap
    ((["A"], "InstantiationError"), (["A"], None), "lost"),
])
def test_classify_sorts_each_difference(old, new, kind):
    assert _tool().classify(old, new) == kind


def test_compare_counts_kinds_per_workload(tmp_path):
    def line(workload, i, answers, error, mode="cofacts"):
        return json.dumps([workload, i, f"?- q{i}.", mode, 40, answers, error])

    old = [line("lists", 0, ["A", "A"], None), line("lists", 1, ["A"], None),
           line("corpus", 0, [], BUDGET), line("corpus", 1, ["A", "B"], None)]
    new = [line("lists", 0, ["A"], None), line("lists", 1, ["A"], None),
           line("corpus", 0, ["true."], None), line("corpus", 1, ["B"], None)]
    tool = _tool()
    kinds = tool.compare(old, new)
    assert kinds["lists"] == {"sequences": 2, "duplicates": 1}
    assert kinds["corpus"] == {"sequences": 2, "error-to-answers": 1, "lost": 1}
    (tmp_path / "old").write_text("\n".join(old) + "\n")
    (tmp_path / "new").write_text("\n".join(new) + "\n")
    argv = [sys.executable, str(ROOT / "tools" / "answer_digest.py"), "--compare",
            str(tmp_path / "old"), str(tmp_path / "new")]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert run.returncode == 1  # a distinct answer was lost
    assert run.stdout.splitlines() == [
        "lists\tsequences 2\tduplicates 1\terror-to-answers 0\tanswers-to-error 0\tlost 0",
        "corpus\tsequences 2\tduplicates 0\terror-to-answers 1\tanswers-to-error 0\tlost 1",
    ]
    run = subprocess.run(argv[:-1] + [str(tmp_path / "old")], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0
    with pytest.raises(ValueError, match="different sequences"):
        tool.compare(old, new[1:] + new[:1])
    with pytest.raises(ValueError, match="more sequences"):
        tool.compare(old, new[:-1])


def test_lines_print_formatted_answers_then_the_error_type():
    argv = [sys.executable, str(ROOT / "tools" / "answer_digest.py"), "--checkout", str(ROOT),
            "--seed", "3", "--workload", "lists", "--cases", "2", "--lines"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    rows = [json.loads(line) for line in run.stdout.splitlines()]
    assert len(rows) == 2 * 3 * 2
    assert [row[:2] for row in rows] == [["lists", i] for i in range(2) for _ in range(6)]
    assert [(row[3], row[4]) for row in rows[:6]] == [(m, b) for m in ("cofacts", "inductive", "coinductive")
                                                      for b in (40, 20_000)]
    for row in rows:
        assert all(isinstance(answer, str) and "_G" not in answer for answer in row[5])
        assert row[6] in (None, BUDGET, "InstantiationError")
