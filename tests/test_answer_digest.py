"""tools/answer_digest.py: the same checkout and seed always give the same digest."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
