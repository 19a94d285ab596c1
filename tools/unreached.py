"""Lines of ``src/admseq`` that the tier-1 tests never run.

``src/``, ``tests/`` and ``tools/`` (with ``pyproject.toml``, for the test
settings) are copied to a temporary directory, and the tests run there under
a line tracer (``sys.settrace`` and ``threading.settrace``) that records only
frames of code in that copy's ``src/admseq``.  Every statement of a function body that
never ran is then printed as ``file:line: text``.  A compound statement
counts as run when its header did (an ``if``'s test, a ``for``'s iterable);
its body's statements are counted one by one.

    python3 tools/unreached.py

Standard library only; the working tree is never written.  Code that runs
only in a subprocess of a test (a cold start, say) is reported too, since the
tracer sees only the test process.  Tracing makes the run several times
slower than plain tier-1, so hypothesis deadlines are switched off.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a pytest plugin, loaded before collection so the tracer sees every import
PLUGIN = '''
import json, os, sys, threading
from hypothesis import settings

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "src", "admseq") + os.sep
SEEN = set()


def _line(frame, event, arg):
    if event == "line":
        SEEN.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(SRC) else None


sys.settrace(_call)
threading.settrace(_call)
settings.register_profile("unreached", deadline=None)
settings.load_profile("unreached")


def pytest_runtest_setup(item):
    sys.settrace(_call)  # a hypothesis failure explanation may have replaced it


def pytest_unconfigure(config):
    sys.settrace(None)
    with open(os.path.join(HERE, "lines.json"), "w") as out:
        json.dump(sorted(SEEN), out)
'''

SIMPLE = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return, ast.Raise, ast.Assert,
          ast.Delete, ast.Import, ast.ImportFrom, ast.Pass, ast.Break, ast.Continue)


def _header(node: ast.stmt) -> range | None:
    """The lines whose running shows that ``node`` ran, or None for a
    statement that runs no code of its own (``try``, ``global``)."""
    if isinstance(node, SIMPLE):
        return range(node.lineno, node.end_lineno + 1)
    part = {ast.If: "test", ast.While: "test", ast.For: "iter", ast.AsyncFor: "iter"}.get(type(node))
    if part:
        return range(node.lineno, getattr(node, part).end_lineno + 1)
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return range(node.lineno, node.items[-1].context_expr.end_lineno + 1)
    return None


def body_statements(tree: ast.AST):
    """(statement, the lines that show it ran) for every statement inside a
    function body, docstrings left out.  Nested functions and classes are
    reached through their own bodies."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo = list(fn.body)
        if todo and isinstance(todo[0], ast.Expr) and isinstance(todo[0].value, ast.Constant) \
                and isinstance(todo[0].value.value, str):
            todo.pop(0)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            lines = _header(node)
            if lines is not None:
                yield node, lines
            for field in ("body", "orelse", "finalbody"):
                todo += getattr(node, field, [])
            for handler in getattr(node, "handlers", []):
                todo += handler.body


def unreached(source: str, seen: set[int]) -> list[int]:
    """First lines of the body statements of ``source`` none of whose lines
    is in ``seen``, in order."""
    return sorted(node.lineno for node, lines in body_statements(ast.parse(source))
                  if seen.isdisjoint(lines))


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="admseq-unreached-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        Path(tmp, "_unreached_plugin.py").write_text(PLUGIN)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(Path(tmp) / "src"), tmp)),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "-p", "_unreached_plugin"], cwd=tmp, env=env, capture_output=True, text=True)
        summary = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
        print(f"tier-1 under the tracer: {summary[0]}", flush=True)
        seen: dict[str, set[int]] = {}
        for path, line in json.loads(Path(tmp, "lines.json").read_text()):
            seen.setdefault(os.path.basename(path), set()).add(line)
    count = 0
    for path in sorted((ROOT / "src" / "admseq").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for n in unreached(text, seen.get(path.name, set())):
            print(f"src/admseq/{path.name}:{n}: {lines[n - 1].strip()}")
            count += 1
    print(f"{count} statements never ran")


if __name__ == "__main__":
    main()
