"""Statements of ``src/streamuniq`` that the tier-1 test suite never runs.

    python tools/linecov.py TREE

TREE is a checkout of this repository.  The script runs the suite the way
``PYTHONPATH=src python -m pytest -q`` does from TREE (``tests`` and
``perfbench/tests``), in this process and with ``TREE/src`` first on
``sys.path``, under ``sys.settrace``.  It then prints every statement of
``TREE/src/streamuniq`` that never ran, one ``file:line text`` line each,
sorted by file and line.  Definitions (``def``, ``class``), imports and
docstrings are not counted as statements.

A statement counts as run when any line of it ran; for ``if``, ``for``,
``while``, ``with`` and ``try`` only the header lines count, not the body.
Code that runs only in a child process (``python -m streamuniq`` started by
a test) is not traced and so is listed.  Needs only the standard library
and the suite's own requirements (pytest, numpy).  A run takes 35-40 s
on a 2-core machine.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(source: str) -> dict[int, range]:
    """First line of each counted statement -> the lines that count as running it."""
    out: dict[int, range] = {}
    for parent in ast.walk(ast.parse(source)):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(parent, name, None)
            # an IfExp or a Lambda holds one expression there, not statements
            if not isinstance(block, list):
                continue
            for node in block:
                if isinstance(node, _SKIPPED) or _is_docstring(node, parent):
                    continue
                end = node.end_lineno
                if isinstance(node, _COMPOUND):
                    end = max(node.lineno, node.body[0].lineno - 1)
                out[node.lineno] = range(node.lineno, end + 1)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    tree = os.path.abspath(argv[0])
    src = os.path.join(tree, "src")
    package = os.path.join(src, "streamuniq") + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    os.chdir(tree)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.dont_write_bytecode = True
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests", "perfbench/tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        for first, span in sorted(statements(source).items()):
            if not any((path, line) in hits for line in span):
                print(f"{os.path.relpath(path, tree)}:{first} {lines[first - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
