"""The decompose target: the touched projection P = sum_j E_j E_j* over every
stream position a run touched, each certificate's consumed ones and the
ones' vectors, built in closed form from the stream by
``streams.touched_projection``.  The terms plus remainder of a decomposition
sum to P, so ``verify`` on ``decompose``'s own files checks the terms against
the paper's operator, not against themselves."""

from __future__ import annotations

import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from admseq import carpenter
from admseq.cli import main
from admseq.errors import DimensionError, SequenceError
from admseq.operators import RankOneDecomp, op_from_json
from admseq.streams import VectorStream, _cosine_block, stream_to_json, touched_projection

from test_stage_driver import finite_rank_input, staged_inputs

STREAMS = {"basis": VectorStream.basis, "block4": lambda: VectorStream.block_overlap(4)}
# the five cases and the ones in each layout carpenter_decompose knows
# (finitely many before a staged core, every other vector beside one, after
# a finite core, after zeros alone), at stage counts the known mixing defect
# leaves alone (both-summable reaches 13 on these streams)
STAGED = [(name, stages) for name in ("mu-divergent-s0", "lambda-divergent-s0", "mu-finite",
                                      "ones-beside-mu-divergent", "finite-ones-mu-divergent",
                                      "finite-ones-lambda-divergent", "ones-after-finite-core",
                                      "zero-then-ones") for stages in (10, 40)]
STAGED += [("both-summable", 10), ("both-summable", 13)]
MATCH_TOL = 1e-12  # entrywise, P against the frame product of terms plus remainder


def dense_target(stream, touched, dim) -> np.ndarray:
    return op_from_json(touched_projection(stream, touched, dim))


@pytest.mark.parametrize("stream_name", sorted(STREAMS))
@pytest.mark.parametrize("name, stages", STAGED, ids=[f"{n}-S{s}" for n, s in STAGED])
def test_touched_projection_is_the_sum_of_terms_and_remainder(name, stages, stream_name):
    stream = STREAMS[stream_name]()
    dec, _, _, touched = carpenter._decompose(staged_inputs()[name], stream, stages)
    touched = list(touched)
    P = dense_target(stream, touched, dec.dim)
    assert np.max(np.abs(P - dec.frame_operator(with_remainder=True))) <= MATCH_TOL
    assert np.array_equal(P, P.conj().T)
    assert abs(np.trace(P).real - len(set(touched))) <= MATCH_TOL  # a projection of that rank


@pytest.mark.parametrize("seed, n", [(0, 25), (1, 25), (2, 100)])
def test_finite_rank_target_on_an_explicit_stream(seed, n):
    xi, stream = finite_rank_input(seed, n)
    dec, _, _, touched = carpenter._decompose(xi, stream, carpenter.DEFAULT_STAGES)
    P = dense_target(stream, touched, dec.dim)
    assert np.max(np.abs(P - dec.frame_operator(with_remainder=True))) <= MATCH_TOL
    assert np.max(np.abs(P - np.eye(n))) <= MATCH_TOL  # n vectors of C^n: the identity


def test_a_whole_block_is_exactly_the_identity():
    # positions 4..7 fill block 1; block 0 has only its vector 1, whose
    # outer product is its block; nothing lies outside the blocks
    P = dense_target(VectorStream.block_overlap(4), [5, 1, 4, 6, 7, 5], 12)
    c = _cosine_block(4)[:, 1]
    assert np.array_equal(P[4:8, 4:8], np.eye(4))
    assert np.array_equal(P[:4, :4], np.outer(c, c))
    P[:4, :4] = P[4:8, 4:8] = 0.0
    assert not P.any()


def test_sparse_entries_list_no_zero_pair():
    doc = touched_projection(VectorStream.block_overlap(3), [0, 2, 4], 9)
    entries = doc["entries"]
    assert entries["indices"] == sorted(set(entries["indices"]))
    assert all(v != [0.0, 0.0] for v in entries["values"])
    assert max(entries["indices"]) < 6 * 9  # block 2 untouched


def test_basis_target_is_a_diagonal():
    assert touched_projection(VectorStream.basis(), iter([3, 0, 3]), 5) == {
        "diag": [1.0, 0.0, 0.0, 1.0, 0.0]}


@pytest.mark.parametrize("stream, positions, dim, error, message", [
    (VectorStream.block_overlap(4), [5], 6, DimensionError, "needs dimension >= 8, got 6"),
    (VectorStream.block_overlap(4), [0, -1], 8, SequenceError, "must be nonnegative"),
    (VectorStream.basis(), [-1], 3, SequenceError, "must be nonnegative"),
    (VectorStream.explicit(np.eye(2)), [2], 2, SequenceError, "has only 2 vectors"),
    (VectorStream.explicit(np.eye(2)), [-1], 2, SequenceError, "must be nonnegative"),
], ids=["past-dim", "negative-block", "negative-basis", "past-explicit", "negative-explicit"])
def test_a_position_past_the_dimension_is_refused(stream, positions, dim, error, message):
    with pytest.raises(error, match=message):
        touched_projection(stream, positions, dim)


def decompose(tmp_path, capsys, weights, stream, stages):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"weights": weights, "stream": stream_to_json(stream)}))
    out = tmp_path / "dec.json"
    code = main(["decompose", str(inp), "--stages", str(stages), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return str(out), str(tmp_path / "dec.target.json")


def turned(v: np.ndarray, angle: float) -> np.ndarray:
    """v rotated by ``angle`` toward a unit vector orthogonal to it."""
    k = int(np.argmin(np.abs(v)))
    u = -np.vdot(v, np.eye(len(v))[k]) * v
    u[k] += 1.0
    return math.cos(angle) * v + math.sin(angle) * u / np.linalg.norm(u)


GATE_CASES = {
    "mu-divergent-basis": ({"kind": "periodic-tail", "values": [], "tail_block": [0.4, 0.9]}, "basis", 12),
    "lambda-divergent-block4": ({"kind": "periodic-tail", "values": [0.6, 0.5], "tail_block": [0.75]},
                                "block4", 6),
    "mu-finite-basis": ({"kind": "one-minus", "of": {"kind": "geometric-tail", "values": [],
                                                     "tail_first": 0.4, "tail_ratio": 0.6}}, "basis", 40),
    # the ones' own vectors: finitely many before a staged core, and after a finite core
    "finite-ones-mu-divergent-block4": ({"kind": "periodic-tail", "values": [1.0, 1.0, 0.0],
                                         "tail_block": [0.4, 0.9]}, "block4", 10),
    "ones-after-finite-core-basis": ({"kind": "periodic-tail", "values": [0.3, 0.7, 0.25, 0.75, 0.6, 0.4],
                                      "tail_block": [1.0]}, "basis", 10),
}


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_verify_refuses_a_term_turned_before_the_write(tmp_path, capsys, monkeypatch, case):
    # one term's vector turned by 1e-3 inside the library still has unit
    # norm and its weight, so only a target built apart from the terms sees it
    weights, stream_name, stages = GATE_CASES[case]
    of_rows = RankOneDecomp._of_rows.__func__

    def corrupted(cls, rows, row_weights, n_terms):
        i = int(np.argmax(row_weights[:n_terms]))
        rows[i] = turned(rows[i], 1e-3)
        return of_rows(cls, rows, row_weights, n_terms)

    with monkeypatch.context() as mp:
        mp.setattr(RankOneDecomp, "_of_rows", classmethod(corrupted))
        dec, target = decompose(tmp_path, capsys, weights, STREAMS[stream_name](), stages)
    assert main(["verify", dec, target]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is False and 1e-4 < rep["residual"] < 1e-2


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_verify_accepts_the_untouched_run(tmp_path, capsys, case):
    weights, stream_name, stages = GATE_CASES[case]
    dec, target = decompose(tmp_path, capsys, weights, STREAMS[stream_name](), stages)
    assert main(["verify", dec, target]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] <= 1e-13


NO_PRODUCT_CASES = {
    "mu-finite-basis-S160": (GATE_CASES["mu-finite-basis"][0], "basis", 160),
    "lambda-divergent-block4-S20": (GATE_CASES["lambda-divergent-block4"][0], "block4", 20),
}
RECORDED_ON = ("x86_64", "2.4.6")  # the build the digests below come from
# sha256 of those runs' dec.target.json, the same under the default, Haswell
# and Prescott OpenBLAS kernels: its positions are plain float arithmetic and
# its entries elementwise numpy operations, so no BLAS kernel moves its bytes
TARGET_FILES = {
    "mu-finite-basis-S160": "edc43308db62c94060d79a260f5de971284f85727ebd749b27fad14225150d72",
    "lambda-divergent-block4-S20": "31f1d88d0674ad0585ff65167366928e4fdcab04fa274c1083a51d53155bec04",
}


@pytest.mark.parametrize("case", sorted(NO_PRODUCT_CASES))
def test_decompose_out_forms_no_frame_product(tmp_path, capsys, monkeypatch, case):
    # the target is read off the touched positions, a diagonal on the basis
    # and a block at a time on a block-overlap stream: no dim x dim product
    calls = []
    for name in ("frame_operator", "_frame_product"):
        real = getattr(RankOneDecomp, name)
        monkeypatch.setattr(RankOneDecomp, name,
                            lambda self, *a, _real=real, _name=name, **k: calls.append(_name) or _real(self, *a, **k))
    weights, stream_name, stages = NO_PRODUCT_CASES[case]
    _, target = decompose(tmp_path, capsys, weights, STREAMS[stream_name](), stages)
    assert calls == []
    written = Path(target).read_bytes()
    assert set(json.loads(written)) == ({"diag"} if stream_name == "basis" else {"dim", "entries"})
    if (platform.machine(), np.__version__) == RECORDED_ON:
        assert hashlib.sha256(written).hexdigest() == TARGET_FILES[case]
