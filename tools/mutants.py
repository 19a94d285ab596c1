"""Hand mutants of the library's checks, run against the tier-1 tests.

Each mutant is one text replacement in one file of ``src/admseq``: a fixed
tolerance raised a millionfold, or a check removed.  For each, ``src/`` and
``tests/`` (with ``pyproject.toml``, for the test settings) are copied to a
temporary directory, the replacement is made there, and the tests run with
``pytest -x``.  The line printed per mutant names the first test that failed,
which killed it, or reads ``SURVIVED``: a check no test can trip.

    python3 tools/mutants.py

Standard library only; the working tree is never written.  Stops when a
mutant's text is not found exactly once in its file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/admseq, old text, new text)
MUTANTS = [
    ("ORTHO_TOL", "streams.py", "ORTHO_TOL = 1e-9", "ORTHO_TOL = 1e-3"),
    ("UNIT_TOL", "operators.py", "UNIT_TOL = 1e-9 ", "UNIT_TOL = 1e-3 "),
    ("VERIFY_TOL", "cli.py", "VERIFY_TOL = 1e-8 ", "VERIFY_TOL = 1e-2 "),
    ("DIAG_TOL", "bridge.py", "DIAG_TOL = 1e-10", "DIAG_TOL = 1e-4"),
    ("POLAR_PROJ_TOL", "operators.py", "POLAR_PROJ_TOL = 1e-10 ", "POLAR_PROJ_TOL = 1e-4 "),
    ("TRACE_MATCH_TOL", "carpenter.py", "TRACE_MATCH_TOL = 1e-10", "TRACE_MATCH_TOL = 1e-4"),
    ("HORN_RESIDUAL_TOL", "horn.py", "HORN_RESIDUAL_TOL = 1e-9 ", "HORN_RESIDUAL_TOL = 1e-3 "),
    # every block stage's identity, horn_decompose's and the finite-rank stage's included
    ("block-stage identity check removed", "horn.py", "    _check_residuals(devs.tolist(), ks)\n", ""),
    ("mix drift check removed", "horn.py", "fails += [drift > MIX_RESIDUAL_TOL,", "fails += [drift < 0.0,"),
    ("mix identity check removed", "horn.py", "(residual > MIX_RESIDUAL_TOL)[None]]", "(residual < 0.0)[None]]"),
    ("unconsumed-weight check removed", "horn.py", "if abs(leftover) > HORN_RESIDUAL_TOL * max(1, k):",
     "if False:"),
]

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run(name: str, path: str, old: str, new: str) -> str:
    """The outcome of one mutant: the killing test, or SURVIVED."""
    with tempfile.TemporaryDirectory(prefix="admseq-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp) / "src" / "admseq" / path
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the text to replace occurs {text.count(old)} times in {path}")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "SURVIVED"
    killed = FAILED.search(proc.stdout)
    return f"killed by {killed.group(1) if killed else f'pytest, exit {proc.returncode}'}"


def main() -> None:
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run(*mutant)
        print(f"{mutant[0]}: {outcome} ({time.perf_counter() - start:.0f} s)", flush=True)


if __name__ == "__main__":
    main()
