"""Statements of the package that a run never executes.

    python3 tools/unexecuted.py SCRIPT [ARGS...]
    python3 tools/unexecuted.py -m MODULE [ARGS...]

Runs the script or module as ``python3`` would, with this checkout's
``src/`` first on the import path, under a ``sys.settrace`` tracer that
follows only frames of ``src/divmatch``. Then prints, after the run's own
output, one ``file:line: code`` line for each statement there that never
ran, and a count. Statements are those of the modules' syntax trees;
docstrings, ``def`` and ``class`` headers (with their decorators), imports
and ``global``/``nonlocal`` declarations are left out, since they carry
no code a test could miss. A statement ran if any line of its own code
(a compound statement's header, up to its first body statement) raised a
line event. Child processes, such as the CLI started as a command, and
threads other than the main one are not traced. Exits with the run's exit
status.

The test suite runs about four times slower under the tracer (2.5 min
against 37 s on a 2-core host); acceptance criterion 7 times its solves,
so deselect it there:

    python3 tools/unexecuted.py -m pytest -q \\
        --deselect tests/test_acceptance.py::test_criterion_7_scaling_smoke
"""

from __future__ import annotations

import ast
import os
import runpy
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "divmatch"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
UNTRACKED = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal,
             *DEFINITIONS)


def _is_docstring(node, body) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> list[tuple[int, range]]:
    """``(first line, own lines)`` of each tracked statement of the module
    at ``path``, in line order."""
    found = []

    def visit(body, may_have_docstring):
        for node in body:
            blocks = [getattr(node, field, []) for field in
                      ("body", "orelse", "finalbody")]
            blocks += [handler.body for handler in getattr(node, "handlers", ())]
            if not (isinstance(node, UNTRACKED) or may_have_docstring
                    and _is_docstring(node, body)):
                end = min((block[0].lineno for block in blocks if block),
                          default=node.end_lineno + 1) - 1
                found.append((node.lineno,
                              range(node.lineno, max(end, node.lineno) + 1)))
            scope = isinstance(node, DEFINITIONS)
            for block in blocks:
                visit(block, scope and block is node.body)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, True)
    return sorted(found)


class Tracer:
    """Records the lines run in each file of the package."""

    def __init__(self, package: Path):
        self.prefix = str(package.resolve()) + os.sep
        self.ran: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}

    def _local_for(self, filename):
        path = os.path.abspath(filename)
        if not path.startswith(self.prefix):
            return None
        add = self.ran.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._local[filename]
        except KeyError:
            local = self._local[filename] = self._local_for(filename)
            return local


def report(tracer: Tracer, package: Path, out) -> None:
    """Write each never-run statement of ``package`` to ``out``, then their
    count."""
    missed = total = 0
    for path in sorted(package.rglob("*.py")):
        ran = tracer.ran.get(str(path.resolve()), set())
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, own in statements(path):
            total += 1
            if ran.isdisjoint(own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: "
                      f"{lines[first - 1].strip()}", file=out)
    print(f"{missed} of {total} statements in "
          f"{package.relative_to(ROOT)} never ran", file=out)


def main(argv: list[str]) -> int:
    if not argv or argv[0] == "-m" and len(argv) < 2:
        print("usage: unexecuted.py SCRIPT [ARGS...] | -m MODULE [ARGS...]",
              file=sys.stderr)
        return 2
    if argv[0] == "-m":
        sys.argv = argv[1:]  # run_module puts the module's path first
        sys.path[0] = os.getcwd()
        run = partial(runpy.run_module, argv[1], run_name="__main__",
                      alter_sys=True)
    else:
        sys.argv = argv
        sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
        run = partial(runpy.run_path, argv[0], run_name="__main__")
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer(PACKAGE)
    status = 0
    sys.settrace(tracer)
    try:
        run()
    except SystemExit as exc:
        status = (exc.code if isinstance(exc.code, int)
                  else 0 if exc.code is None else 1)
    finally:
        sys.settrace(None)
    report(tracer, PACKAGE, sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
