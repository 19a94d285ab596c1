"""The probes under ``tools/`` stay in step with ``src/``: every hand mutant
still finds its text, and the unreached-line probe reads statements as the
line tracer reports them."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = load_tool("mutants").MUTANTS


@pytest.mark.parametrize("name, path, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_each_mutant_text_occurs_once(name, path, old, new):
    assert (ROOT / "src" / "admseq" / path).read_text().count(old) == 1


def test_the_probe_runs_a_control_that_changes_nothing():
    # the control must print SURVIVED: a probe that kills it can say nothing
    mutants = load_tool("mutants")
    assert mutants.CONTROL in mutants.MUTANTS
    assert mutants.CONTROL[2] == mutants.CONTROL[3]
    assert mutants.SELF_CHECK == f"tests/test_tools.py::{test_each_mutant_text_occurs_once.__name__}"


SOURCE = '''\
def f(x):
    """doc"""
    if x > 0:
        return (
            x)
    try:
        y = -x
    except ValueError:
        raise
    for v in range(
            y):
        pass
    return 0
'''


def test_unreached_reads_statements_from_the_lines_that_ran():
    unreached = load_tool("unreached").unreached
    seen = set()

    def trace(frame, event, arg):
        if event == "line" and frame.f_code.co_name == "f":
            seen.add(frame.f_lineno)
        return trace

    namespace = {}
    exec(compile(SOURCE, "source", "exec"), namespace)
    outer = sys.gettrace()  # a tracer the whole run is under, if any
    sys.settrace(trace)
    try:
        namespace["f"](0)
    finally:
        sys.settrace(outer)
    # the return's second line, the handler's raise and the loop's body never
    # ran; the docstring and the try header are no statements of their own
    assert unreached(SOURCE, seen) == [4, 9, 12]
    assert unreached(SOURCE, seen | {5}) == [9, 12]
