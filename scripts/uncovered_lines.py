"""Print every statement of src/vaxsel/*.py that the tier-1 tests never execute.

    python scripts/uncovered_lines.py [PYTEST_ARGS...]

Runs the tier-1 suite (python -m pytest -q --continue-on-collection-errors,
plus any PYTEST_ARGS) in this process under a sys.settrace line tracer, and
prints one line per statement that never ran, as file:line and its text.  A
statement is a line that starts an ast statement and that the compiled module
can report as a line event, so docstrings, bare annotations and the imports
under "if TYPE_CHECKING:" are left out.  Standard library only; it takes about
twice tier-1's time.

Forked Monte Carlo workers end through os._exit, so what they execute is not
recorded here: the lines only a worker runs are listed as never run.  Tests
that start a fresh interpreter are not traced either.

The exit status is pytest's; the list itself never fails the run.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vaxsel"


def code_lines(code):
    """Every line a code object, and the code objects nested in it, can report."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path):
    """{line: text} of the statements of path that can report a line event."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    # imports for type checkers alone never run
    typing_only = {inner for node in ast.walk(tree) if isinstance(node, ast.If)
                   and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
                   for stmt in node.body for inner in ast.walk(stmt)}
    starts = {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.stmt) and node not in typing_only}
    text = source.splitlines()
    return {line: text[line - 1].strip()
            for line in sorted(starts & code_lines(compile(source, str(path), "exec")))}


def main(argv):
    sources = {str(path): statements(path) for path in sorted(PACKAGE.glob("*.py"))}
    executed = {name: set() for name in sources}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):  # line events only inside src/vaxsel
        return local if frame.f_code.co_filename in executed else None

    # as python -m pytest run from the root with PYTHONPATH=src finds both
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import pytest

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = [(name, line, text) for name, lines in sources.items()
              for line, text in lines.items() if line not in executed[name]]
    print(f"\n{len(missed)} statements of src/vaxsel/*.py that tier-1 never executed:")
    for name, line, text in missed:
        print(f"{Path(name).relative_to(ROOT)}:{line}: {text}")
    print("(forked Monte Carlo workers end through os._exit: the lines only a worker runs "
          "are listed above although the tests run them)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
