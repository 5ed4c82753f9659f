"""A pytest plugin that lists the lines of src/gravimean that a test run
never executes, from the standard library alone (sys.settrace):

    PYTHONPATH=src:tools python -m pytest -q -p line_coverage tests

It traces the gravimean package that the path finds when the plugin loads,
here src/gravimean. At the end of the session it prints `path:line:
source` for each line that holds bytecode (module, class and function
bodies alike) and that no test ran, and then their count. Only the pytest
process and its threads are traced: a line that runs only in a child
interpreter or a pool worker counts as never executed. Only gravimean's
own frames are traced line by line, so the run takes about 10% longer.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("gravimean")
               .submodule_search_locations[0]).resolve()

# co_filename -> the set of its executed lines, or None outside PACKAGE
_executed: dict = {}


def _lines_of(filename: str):
    if filename not in _executed:
        inside = Path(filename).resolve().parent == PACKAGE
        _executed[filename] = set() if inside else None
    return _executed[filename]


def _trace(frame, event, arg):
    """Global trace function: a call into PACKAGE records its line and
    traces the frame's lines; every other frame runs untraced."""
    lines = _lines_of(frame.f_code.co_filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: Path) -> set:
    """The lines of a source file that hold bytecode, over every code
    object it compiles to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def never_executed() -> list:
    """(path relative to the working directory, line, source) of each
    executable line of PACKAGE that the trace did not see."""
    seen: dict = {}
    for filename, lines in _executed.items():
        if lines is not None:
            seen.setdefault(Path(filename).resolve(), set()).update(lines)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - seen.get(path, set())):
            missed.append((os.path.relpath(path), line,
                           source[line - 1].strip()))
    return missed


# started on import, before the tests import gravimean, so module bodies
# are traced too
sys.settrace(_trace)
threading.settrace(_trace)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    missed = never_executed()
    terminalreporter.section(
        f"lines of {os.path.relpath(PACKAGE)} never executed")
    for path, line, text in missed:
        terminalreporter.write_line(f"{path}:{line}: {text}")
    terminalreporter.write_line(f"{len(missed)} lines never executed")
