"""tools/loc.py: its wc column is each file's line count, code lines exclude the rest, and times add up."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "loc.py"


def test_loc_counts_every_source_file():
    run = subprocess.run([sys.executable, str(TOOL), "--checkout", str(ROOT)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    *files, (total, total_wc, total_code, total_ms, total_import) = rows
    paths = sorted((ROOT / "src" / "cologic").glob("*.py"))
    assert [name for name, *_ in files] == [path.name for path in paths]
    for (name, wc, code, ms, imported), path in zip(files, paths):
        assert int(wc) == path.read_bytes().count(b"\n")
        assert 0 < int(code) <= int(wc)
        assert float(ms) > 0
        # `import cologic.cli` loads every module but the one `python -m` runs.
        assert (imported == "-") if name == "__main__.py" else (float(imported) > 0)
    assert total == "total"
    assert int(total_wc) == sum(int(wc) for _, wc, _, _, _ in files)
    assert int(total_code) == sum(int(code) for _, _, code, _, _ in files)
    # Each printed time has three decimals, so the sums are exact in thousandths.
    assert round(float(total_ms) * 1000) == sum(round(float(ms) * 1000) for _, _, _, ms, _ in files)
    imports = [imported for *_, imported in files if imported != "-"]
    assert round(float(total_import) * 1000) == sum(round(float(ms) * 1000) for ms in imports)


def test_loc_skips_blank_comment_and_docstring_lines():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    text = '''"""Module docstring,
over two lines."""

# a comment
x = 1  # code with a comment

class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return """a string that is
not a docstring"""
'''
    # Code: x = 1, class C:, def f(self):, and the two lines of the return.
    assert loc.count(text) == (text.count("\n"), 5)
