"""tools/scaling.py: every case runs and checks its answer (tiny sizes, no timing asserted)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scaling_runs_every_case_at_tiny_sizes():
    argv = [sys.executable, str(ROOT / "tools" / "scaling.py"), "--checkout", str(ROOT),
            "--finite", "5,12", "--periods", "2,3"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    rows = result["rows"]
    assert [(row["case"], row["size"]) for row in rows] == [
        (case, n) for n in (5, 12) for case in ("all_pos/finite", "max/finite", "member_miss/finite")
    ] + [(case, p) for p in (2, 3) for case in ("max/cycle", "all_pos/cycle")] + [
        (case, p) for p in (2, 3) for case in ("max/repeat_cycle", "all_pos/repeat_cycle", "member_miss/repeat_cycle")
    ] + [
        (case, n) for n in (2, 3) for case in ("all_pos/equal_finite", "max/equal_finite", "member_miss/equal_finite")
    ]
    assert all(row["ok"] and row["cpu_s"] >= 0 and row["mode"] == "cofacts" for row in rows)


def test_scaling_runs_every_case_in_each_mode():
    argv = [sys.executable, str(ROOT / "tools" / "scaling.py"), "--checkout", str(ROOT),
            "--finite", "4", "--periods", "2", "--modes", "cofacts,inductive,coinductive"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    rows = json.loads(run.stdout.strip().splitlines()[-1])["rows"]
    cases = ["all_pos/finite", "max/finite", "member_miss/finite", "max/cycle", "all_pos/cycle",
             "max/repeat_cycle", "all_pos/repeat_cycle", "member_miss/repeat_cycle",
             "all_pos/equal_finite", "max/equal_finite", "member_miss/equal_finite"]
    assert [(row["mode"], row["case"]) for row in rows] == [
        (mode, case) for mode in ("cofacts", "inductive", "coinductive") for case in cases
    ]
    assert all(row["ok"] for row in rows)


def test_scaling_refuses_an_unknown_mode():
    argv = [sys.executable, str(ROOT / "tools" / "scaling.py"), "--checkout", str(ROOT),
            "--finite", "4", "--periods", "2", "--modes", "cofacts,lazy"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert run.returncode == 2 and "unknown mode 'lazy'" in run.stderr
