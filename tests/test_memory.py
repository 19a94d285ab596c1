"""Peak memory of the CLI commands that carry a decomposition.

A decomposition is one complex matrix of term vectors, 601 rows in C^321
(3.1 MB) for mu-divergent weights at 160 basis stages.  ``decompose --out``
writes the file and the target from that matrix, ``verify`` takes its frame
product from it, and ``bridge`` forms its one placement matrix from it, so
none of them stacks the term vectors into a second copy.  Measured with
tracemalloc in-process (x86-64, Python 3.11, numpy 2.4.6), the peaks were
7.3, 8.9 and 18.2 MB; with the term vectors split into separate arrays and
stacked again at each layer they were 10.5, 10.3 and 21.3 MB.  The bounds lie
between.  The sizes of the parsed JSON objects and of numpy's temporaries
differ with the Python and numpy versions, so the test runs only on the
build the peaks were measured on.
"""

from __future__ import annotations

import json
import platform
import sys
import tracemalloc

import numpy as np
import pytest

from admseq.cli import main

MEASURED_ON = ("x86_64", (3, 11), "2.4.6")

MU_DIVERGENT = {"kind": "periodic-tail", "values": [0.4, 0.9], "tail_block": [0.4, 0.9]}
BOUNDS_MB = {"decompose": 9.0, "verify": 9.6, "bridge": 19.8}


@pytest.mark.skipif(
    (platform.machine(), sys.version_info[:2], np.__version__) != MEASURED_ON,
    reason="peaks measured on x86_64, Python 3.11, numpy 2.4.6 only",
)
def test_commands_hold_one_term_matrix(tmp_path, capsys):
    inp, dec = tmp_path / "in.json", tmp_path / "dec.json"
    inp.write_text(json.dumps({"weights": MU_DIVERGENT, "stream": {"kind": "orthonormal-basis"}}))
    argvs = {
        "decompose": ["decompose", str(inp), "--stages", "160", "--out", str(dec)],
        "verify": ["verify", str(dec), str(tmp_path / "dec.target.json")],
        "bridge": ["bridge", str(dec), "--out", str(tmp_path / "bridge.json")],
    }
    assert main(argvs["decompose"]) == 0  # first-use imports and caches are not measured
    peaks = {}
    for name, argv in argvs.items():
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert all(peaks[name] < bound for name, bound in BOUNDS_MB.items()), peaks
