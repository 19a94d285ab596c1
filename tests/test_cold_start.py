"""Cold starts: numpy loads on first use, not on ``import admseq``.

Every check runs in a fresh interpreter, because numpy is already imported in
the test process.  A module counts as having run numpy code when a
``numpy.*`` submodule is loaded: numpy's own import pulls in dozens of them,
while the lazily loaded ``numpy`` module alone runs nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import admseq
from admseq import cli

SRC = Path(admseq.__file__).resolve().parent.parent
RECORDED_ON = ("x86_64", "2.4.6")  # the build the file digests below come from

COLD = {"kind": "finite", "values": [0.25, 0.75, 1.0]}
XI = {"kind": "finite", "values": [0.5, 0.3, 0.2]}
ETA = {"kind": "finite", "values": [0.75, 0.25]}
MU_DIVERGENT_BLOCK4 = {
    "weights": {"kind": "periodic-tail", "values": [], "tail_block": [0.4, 0.9]},
    "stream": {"kind": "block-overlap", "block": 4},
}

# sha256 of what the commands print and write, recorded before numpy was
# loaded lazily
KADISON_REPORT = "200f4266fa7decb8a0bcc0ec177cb05ecda3a28b09b50ca82075bffd542c5ae8"
MAJORIZE_REPORT = "5be4dbbfa1438eb235e1be2bc3b73460953636621b6b9979859f6e09a5d3cabd"
DECOMPOSE_REPORT = "625bc1777f94733bf8f22792756c77bc61109c02c5d5782d11b38c826578a3a5"
DECOMPOSE_FILES = {
    "dec.json": "a6d86088733575996289b66c5f5a3194b10a99bc6ef422360ac129626e520ff6",
    "dec.target.json": "12eabcc7543187a8876b7f7587d19456028f7032bf9a111ff8f10895e0c6680a",
}
# the same files in the dense form, every pair listed, as written before the
# sparse form; the sparse files above re-encode to exactly these bytes
DENSE_FILES = {
    "dec.json": "cf4fbd4416b9f5ae71f24105c92c89d805789f5515222413963b0094bef4197a",
    "dec.target.json": "d60c50290080fdfd1fde06f30bb965e836e828de69ec6d8a9187d6b873e26693",
}


def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def write(tmp_path: Path, name: str, doc) -> str:
    (tmp_path / name).write_text(json.dumps(doc))
    return name


def imported(stderr: bytes) -> list[str]:
    """Module names from ``-X importtime`` output."""
    lines = stderr.decode().splitlines()
    return [ln.rsplit("|", 1)[1].strip() for ln in lines if ln.startswith("import time:")][1:]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dense(obj):
    """``obj`` with every sparse array object replaced by its full list of
    [re, im] pairs, the zero pairs written as +0.0."""
    if isinstance(obj, dict) and set(obj) == {"size", "indices", "values"}:
        pairs = [[0.0, 0.0] for _ in range(obj["size"])]
        for i, pair in zip(obj["indices"], obj["values"]):
            pairs[i] = pair
        return pairs
    if isinstance(obj, dict):
        return {k: dense(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [dense(v) for v in obj]
    return obj


def dense_bytes(path: Path) -> bytes:
    return (json.dumps(dense(json.loads(path.read_bytes())), sort_keys=True, indent=2)
            + "\n").encode()


def test_import_loads_every_module_and_no_numpy_code():
    code = (
        "import json, sys, admseq, admseq.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('admseq', 'numpy'))))"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = set(json.loads(proc.stdout))
    wanted = {f"admseq.{m}" for m in (
        "seqkit", "carpenter", "horn", "operators", "streams", "cli", "bridge", "checkers", "jsonio"
    )}
    assert wanted <= loaded
    assert not [m for m in loaded if m.startswith("numpy.")]


@pytest.mark.parametrize("command, docs, report", [
    ("check-kadison", {"cold.json": COLD}, KADISON_REPORT),
    ("check-majorize", {"xi.json": XI, "eta.json": ETA}, MAJORIZE_REPORT),
], ids=["check-kadison", "check-majorize"])
def test_gate_commands_run_no_numpy_code(tmp_path, command, docs, report):
    paths = [write(tmp_path, name, doc) for name, doc in docs.items()]
    proc = python("-X", "importtime", "-m", "admseq", command, *paths, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert sha(proc.stdout) == report
    names = imported(proc.stderr)
    assert "admseq.cli" in names
    assert not [m for m in names if m.split(".")[0] == "numpy"]


def test_cold_decompose_writes_the_same_files(tmp_path, capsys):
    # the first array operation loads numpy in the middle of a command; the
    # written files equal the ones an eagerly imported numpy writes here, and
    # on the recorded build the ones written before the change
    (tmp_path / "cold").mkdir()
    (tmp_path / "warm").mkdir()
    argv = ["decompose", "mu.json", "--stages", "10", "--out", "dec.json"]
    write(tmp_path / "cold", "mu.json", MU_DIVERGENT_BLOCK4)
    proc = python("-m", "admseq", *argv, cwd=tmp_path / "cold")
    assert proc.returncode == 0, proc.stderr.decode()
    cold = {name: sha((tmp_path / "cold" / name).read_bytes()) for name in DECOMPOSE_FILES}

    write(tmp_path / "warm", "mu.json", MU_DIVERGENT_BLOCK4)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path / "warm")
        assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == proc.stdout
    assert cold == {name: sha((tmp_path / "warm" / name).read_bytes()) for name in DECOMPOSE_FILES}

    if (platform.machine(), np.__version__) == RECORDED_ON:  # the residual and vectors pass BLAS
        assert sha(proc.stdout) == DECOMPOSE_REPORT
        assert cold == DECOMPOSE_FILES
        assert DENSE_FILES == {name: sha(dense_bytes(tmp_path / "cold" / name))
                               for name in DENSE_FILES}


def test_missing_numpy_fails_at_import():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import admseq\n"
        "except ImportError:\n"
        "    print('refused')\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"refused\n"


def test_numpy_imported_first_is_used_as_is():
    code = (
        "import types, numpy, admseq.cli\n"
        "print(admseq.cli.np is numpy and type(numpy) is types.ModuleType)"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"True\n"
