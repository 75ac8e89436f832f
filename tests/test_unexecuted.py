"""The unexecuted-statement tool counts the package's statements, leaving
out the lines that carry no code, and lists those a run never reaches:
run over the digest of the known-bad instances, it lists the validation
that digest never meets and none of the solve it makes."""

import re
import subprocess
import sys
from pathlib import Path

from helpers import load_module

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "unexecuted.py"
PACKAGE = ROOT / "src" / "divmatch"


def test_statements_leave_out_code_free_lines(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('''"""Module docstring."""
import os
from sys import path


@staticmethod
def f(x):
    """Docstring."""
    y = 1
    def g():
        nonlocal y
        global path
        return x
    try:
        y = (x +
             1)
    except ValueError:
        y = 0
    return y
''')
    tool = load_module("unexecuted", TOOL)
    # (first line, own lines): the try owns its header line alone, and the
    # two-line assignment both its lines
    assert tool.statements(source) == [
        (9, range(9, 10)), (13, range(13, 14)), (14, range(14, 15)),
        (15, range(15, 17)), (18, range(18, 19)), (19, range(19, 20))]


def place(module, text):
    """``file:line`` of the one line of ``module`` that contains ``text``."""
    lines = (PACKAGE / module).read_text(encoding="utf-8").splitlines()
    found = [n for n, line in enumerate(lines, 1) if text in line]
    assert len(found) == 1, found
    return f"src/divmatch/{module}:{found[0]}"


def test_lists_what_the_known_bad_digest_never_runs():
    argv = [sys.executable, str(TOOL), str(ROOT / "tools" / "trace_digest.py"),
            "--workload", "known-bad", "--seed", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True,
                         timeout=120).stdout.splitlines()
    assert out[0].startswith("known-bad seed=1 detector=gr instances=3 ")
    listed = out[1:-1]
    assert all(re.fullmatch(r"src/divmatch/\w+\.py:\d+: \S.*", line)
               for line in listed), listed
    missed, total = map(int, re.fullmatch(
        r"(\d+) of (\d+) statements in src/divmatch never ran",
        out[-1]).groups())
    assert missed == len(listed) < total
    places = {line.split(": ", 1)[0] for line in listed}
    for module, text in [
            ("instance.py", '"instance needs at least one worker"'),
            ("solver.py", '"objective bookkeeping drifted'),
            ("cli.py", "sys.exit(main())")]:
        assert place(module, text) in places
    for module, text in [
            ("solver.py", "current, start = _greedy_start(inst)"),
            ("oracle.py", "space = split_count(types.multiplicities"),
            ("instance.py", "if not self.workers:")]:
        assert place(module, text) not in places
