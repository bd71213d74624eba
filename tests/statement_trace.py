"""A pytest plugin that lists every statement in ``src/kvcompose/`` no test executed.

Run it with

    PYTHONPATH=src:tests python -m pytest -q -p statement_trace

It starts a ``sys.settrace`` line trace as soon as pytest has loaded it, before
the conftest or any test module imports the package, so module-level statements
count too; imported as a module, it traces nothing. At the end of the run it
prints each statement (its first line, decorators included) on none of whose
lines a line event fired. Docstrings run no code and are left out.
"""
from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kvcompose"

_in_package: dict[str, bool] = {}  # by code object file name
_lines: dict[str, set[int]] = defaultdict(set)


def statements(source: str) -> list[tuple[int, int]]:
    """The sorted (first, last) lines of every statement of ``source``, a compound
    statement's body included and its decorators first; docstrings left out."""
    tree = ast.parse(source)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, defs))]
    docstrings = {id(s.body[0]) for s in scopes if ast.get_docstring(s, clean=False) is not None}
    return sorted(
        (min([n.lineno] + [d.lineno for d in getattr(n, "decorator_list", ())]), n.end_lineno)
        for n in ast.walk(tree)
        if isinstance(n, ast.stmt) and id(n) not in docstrings
    )


def _trace_lines(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _in_package:
        _in_package[name] = Path(name).resolve().parent == PACKAGE
    return _trace_lines if _in_package[name] else None


def unexecuted() -> list[str]:
    """``file:line`` of each package statement that no traced line event fell in."""
    ran = defaultdict(set)
    for name, lines in _lines.items():
        ran[Path(name).resolve()] |= lines
    return [
        f"{path.name}:{first}"
        for path in sorted(PACKAGE.glob("*.py"))
        for first, last in statements(path.read_text())
        if ran[path].isdisjoint(range(first, last + 1))
    ]


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    threading.settrace(None)
    sys.settrace(None)
    missed = unexecuted()
    terminalreporter.write_line(f"statement trace: {len(missed)} statements no test executed")
    for where in missed:
        terminalreporter.write_line(f"  {where}")
