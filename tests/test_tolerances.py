"""Boundary tests for the fixed tolerances README names.

Each tolerance is met by one closed-form input at half of its stated value,
which is accepted, and one at twice that value, which is refused, so a
tolerance that moves by a factor of two or more fails here.  The inputs are
written out, not read from the constants, so that they stay where they are
when a constant moves."""

from __future__ import annotations

import json
import math

import pytest

from admseq.carpenter import carpenter_decompose
from admseq.cli import main
from admseq.errors import SequenceError, TraceMismatchError
from admseq.seqkit import WeightSeq
from admseq.streams import VectorStream

INSIDE, OUTSIDE = 0.5, 2.0
ORTHO_TOL, UNIT_TOL, VERIFY_TOL, TRACE_MATCH_TOL = 1e-9, 1e-9, 1e-8, 1e-10  # as README states them


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_ortho_tol_bounds_an_explicit_streams_gram_matrix(factor):
    # <e_0, v> = d, and v is a unit vector
    d = factor * ORTHO_TOL
    vectors = [[1.0, 0.0], [d, math.sqrt(1.0 - d * d)]]
    if factor == INSIDE:
        assert VectorStream.explicit(vectors).count == 2
    else:
        with pytest.raises(SequenceError, match="not orthonormal"):
            VectorStream.explicit(vectors)


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_unit_tol_bounds_a_read_term_vectors_norm(tmp_path, capsys, factor):
    d = factor * UNIT_TOL
    dec = write_json(tmp_path / "dec.json", {"terms": [{"weight": 1.0, "vector": [[1.0 + d, 0.0]]}]})
    op = write_json(tmp_path / "op.json", {"diag": [1.0]})
    code = main(["verify", dec, op])
    captured = capsys.readouterr()
    if factor == INSIDE:  # read, and divided by its norm
        assert code == 0 and json.loads(captured.out)["ok"] is True
    else:
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: vector norm {1.0 + d!r} is not 1\n"


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_verify_tol_bounds_the_residual_verify_accepts(tmp_path, capsys, factor):
    # the residual of 1.0 e_0 e_0* against diag(1 + d) is d
    d = factor * VERIFY_TOL
    dec = write_json(tmp_path / "dec.json", {"terms": [{"weight": 1.0, "vector": [[1.0, 0.0]]}]})
    op = write_json(tmp_path / "op.json", {"diag": [1.0 + d]})
    code = main(["verify", dec, op])
    rep = json.loads(capsys.readouterr().out)
    assert rep["residual"] == pytest.approx(d, rel=1e-6)
    assert (code, rep["ok"]) == ((0, True) if factor == INSIDE else (1, False))


@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_trace_match_tol_bounds_a_finite_totals_gap(factor):
    # 0.5 + (0.5 + d) misses the integer 1 by d
    d = factor * TRACE_MATCH_TOL
    xi, stream = WeightSeq.finite([0.5, 0.5 + d]), VectorStream.explicit([[1.0]])
    if factor == INSIDE:
        dec, certs, _ = carpenter_decompose(xi, stream)
        assert dec.weights() == (0.5, 0.5 + d) and len(certs) == 1
    else:
        with pytest.raises(TraceMismatchError, match="is not an integer"):
            carpenter_decompose(xi, stream)
