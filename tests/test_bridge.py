import hashlib
import json
import os
import platform

import numpy as np
import pytest

from admseq.bridge import (
    DIAG_TOL,
    WEIGHT_FLOOR,
    decomp_to_isometry,
    gram_matrix,
    isometry_to_decomp,
)
from admseq.carpenter import carpenter_decompose
from admseq.cli import main
from admseq.errors import DimensionError
from admseq.horn import horn_decompose
from admseq.operators import (
    EIG_CLAMP,
    POLAR_FACTOR_TOL,
    POLAR_NOISE_FLOOR,
    POLAR_PROJ_TOL,
    RankOneDecomp,
    RankOneTerm,
    decomp_residual,
    decomp_to_json,
    frame_operator,
    make_term,
    op_to_json,
)
from admseq.seqkit import WeightSeq
from admseq.streams import VectorStream

RNG = np.random.default_rng(23)


def random_decomp(n_terms, dim):
    eye = np.eye(dim, dtype=complex)
    sources = [make_term(w, eye[:, i]) for i, w in enumerate(RNG.uniform(0.2, 1.0, size=dim))]
    eta = [t.weight for t in sources]
    m = int(RNG.integers(1, 4))
    coeffs = RNG.dirichlet(np.ones(m))
    xi = np.zeros(dim)
    for c in coeffs:
        xi += c * RNG.permutation(eta)
    xi = list(xi) + [0.0] * (n_terms - dim)
    return horn_decompose(sources, xi), frame_operator(sources, dim=dim)


def test_gram_equals_frame_operator():
    decomp, A = random_decomp(6, 4)
    rec = decomp_to_isometry(decomp)
    assert np.allclose(rec.gram, A, atol=1e-10)


def test_placement_polar_pieces_agree():
    decomp, _ = random_decomp(5, 4)
    rec = decomp_to_isometry(decomp)
    assert np.allclose(rec.isometry @ rec.sqrt_gram, rec.placement, atol=1e-9)
    VtV = rec.isometry.conj().T @ rec.isometry
    assert np.allclose(VtV, rec.range_projection, atol=1e-9)
    assert np.allclose(VtV @ VtV, VtV, atol=1e-9)


def test_diagonal_reproduces_weights():
    decomp, _ = random_decomp(6, 3)
    rec = decomp_to_isometry(decomp)
    assert np.allclose(rec.diagonal, rec.weights, atol=1e-10)


def test_zero_weight_terms_are_skipped_but_indexed():
    v = np.array([1.0, 0.0], dtype=complex)
    u = np.array([0.0, 1.0], dtype=complex)
    decomp = RankOneDecomp((make_term(0.0, v), make_term(0.5, u), make_term(0.25, v)))
    rec = decomp_to_isometry(decomp)
    assert rec.kept_indices == (1, 2)
    assert rec.weights == (0.5, 0.25)
    assert rec.placement.shape == (2, 2)


def test_round_trip_recovers_terms():
    decomp, _ = random_decomp(5, 4)
    rec = decomp_to_isometry(decomp)
    back = isometry_to_decomp(rec.isometry, rec.gram)
    kept = [decomp.terms[i] for i in rec.kept_indices]
    assert len(back.terms) == len(kept)
    for orig, rebuilt in zip(kept, back.terms):
        assert rebuilt.weight == pytest.approx(orig.weight, abs=1e-9)
        assert np.allclose(rebuilt.vector, orig.vector, atol=1e-9)


def test_round_trip_preserves_frame_operator():
    decomp, A = random_decomp(7, 5)
    rec = decomp_to_isometry(decomp)
    back = isometry_to_decomp(rec.isometry, rec.gram)
    assert np.allclose(frame_operator(back.terms, dim=5), A, atol=1e-9)


def test_isometry_range_mismatch_rejected():
    decomp, _ = random_decomp(4, 3)
    rec = decomp_to_isometry(decomp)
    bad = np.zeros_like(rec.isometry)
    with pytest.raises(ValueError):
        isometry_to_decomp(bad, rec.gram)


def test_all_zero_decomposition_rejected():
    v = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(DimensionError):
        decomp_to_isometry(RankOneDecomp((make_term(0.0, v),)))


def test_unequal_term_lengths_are_refused():
    with pytest.raises(DimensionError, match="^terms disagree on the ambient dimension$"):
        RankOneDecomp((make_term(0.5, [1.0, 0.0]), make_term(0.5, [0.0, 0.0, 1.0])))
    with pytest.raises(DimensionError, match="^terms disagree on the ambient dimension$"):
        RankOneDecomp((make_term(0.5, [1.0, 0.0]),), (make_term(0.5, [0.0, 0.0, 1.0]),))


def test_isometry_to_decomp_refuses_bad_shapes():
    with pytest.raises(DimensionError, match=r"^expected a matrix isometry, got shape \(2,\)$"):
        isometry_to_decomp(np.ones(2), np.eye(2))
    with pytest.raises(DimensionError, match="^isometry acts on dimension 2 but the operator has 3$"):
        isometry_to_decomp(np.eye(2), np.eye(3))


def test_isometry_to_decomp_skips_rows_at_the_weight_floor():
    # row 1 of V is zero and row 2 carries a weight below WEIGHT_FLOOR
    V = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    back = isometry_to_decomp(V, np.diag([0.5, 0.5 * WEIGHT_FLOOR]))
    assert [t.weight for t in back.terms] == [pytest.approx(0.5, abs=1e-15)]
    assert np.allclose(back.terms[0].vector, [1.0, 0.0], atol=1e-15)


def test_gram_matrix_of_no_terms_is_empty():
    G = gram_matrix(RankOneDecomp(()))
    assert G.shape == (0, 0) and G.dtype == np.complex128


def test_gram_matrix_spectrum_matches_frame_operator():
    decomp, A = random_decomp(6, 4)
    G = gram_matrix(decomp)
    assert G.shape == (6, 6)
    assert np.allclose(np.diag(G).real, decomp.weights(), atol=1e-12)
    eig_G = np.sort(np.linalg.eigvalsh(G))[::-1]
    eig_A = np.sort(np.linalg.eigvalsh(A))[::-1]
    assert np.allclose(eig_G[:4], eig_A, atol=1e-9)
    assert np.allclose(eig_G[4:], 0.0, atol=1e-9)


def test_gram_matrix_matches_pairwise_inner_products():
    decomp, _ = random_decomp(6, 4)
    terms = decomp.terms
    want = np.array([
        [np.sqrt(a.weight * b.weight) * np.vdot(a.vector, b.vector) for b in terms]
        for a in terms
    ])
    assert np.max(np.abs(gram_matrix(decomp) - want)) <= 1e-14


def test_rank_is_the_isometry_rank():
    v = np.array([0.25, 0.9682458365518543], dtype=complex)
    rec = decomp_to_isometry(RankOneDecomp((make_term(0.5, v), make_term(0.25, v))))
    assert rec.rank == 1 == np.linalg.matrix_rank(rec.isometry)
    decomp, _ = random_decomp(6, 4)
    rec = decomp_to_isometry(decomp)
    assert rec.rank == np.linalg.matrix_rank(rec.isometry) == 4


# -- the polar factor's rounding noise --------------------------------------

@pytest.fixture(scope="module")
def block_decomp():
    """20 lambda-divergent stages on the block-4 stream, whose term vectors
    are real."""
    decomp, _, _ = carpenter_decompose(
        WeightSeq.periodic([0.6, 0.5], (0.75,)), VectorStream.block_overlap(4), stages=20
    )
    return decomp


@pytest.fixture(scope="module")
def block_record(block_decomp):
    """Bridge record of block_decomp, whose polar pieces are mostly zero in
    exact arithmetic."""
    return decomp_to_isometry(block_decomp)


def unzeroed(rec):
    """The isometry and sqrt_gram of the eigh path before any part is zeroed,
    and the largest singular value of the placement.  Like the polar factor,
    it computes in float64 when the Gram matrix has no imaginary part."""
    real = not rec.gram.imag.any()
    G, B = (M.real.copy() if real else M for M in (rec.gram, rec.placement))
    w, U = np.linalg.eigh(G)
    order = np.argsort(w)[::-1]
    w, U = w[order], U[:, order]
    kept = w > EIG_CLAMP
    s = np.sqrt(np.clip(w, 0.0, None))
    inv_s = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
    V, root = B @ (U * inv_s) @ U.conj().T, (U * s) @ U.conj().T
    return V.astype(complex), root.astype(complex), float(s[0])


def test_polar_parts_are_zero_or_above_the_floor(block_record):
    _, _, top = unzeroed(block_record)
    for M, scale in ((block_record.isometry, 1.0), (block_record.sqrt_gram, top)):
        parts = M.view(np.float64)
        zero = parts == 0.0
        assert not np.signbit(parts[zero]).any()  # zeroed parts are +0.0
        assert (np.abs(parts[~zero]) > POLAR_NOISE_FLOOR * scale).all()
        assert zero.mean() > 0.9


def test_zeroing_moves_no_part_past_the_floor(block_record):
    V, G, top = unzeroed(block_record)
    for M, raw, scale in ((block_record.isometry, V, 1.0), (block_record.sqrt_gram, G, top)):
        moved = np.abs(M.view(np.float64) - raw.view(np.float64))
        assert moved.max() <= POLAR_NOISE_FLOOR * scale
        assert moved.max() > 0.0


def test_zeroed_pieces_pass_every_check(block_record):
    rec = block_record
    V = rec.isometry
    assert np.max(np.abs(V.conj().T @ V - rec.range_projection)) <= POLAR_PROJ_TOL
    assert np.max(np.abs(V @ rec.sqrt_gram - rec.placement)) <= POLAR_FACTOR_TOL
    assert np.max(np.abs(rec.diagonal - np.asarray(rec.weights))) <= DIAG_TOL
    assert rec.rank == np.linalg.matrix_rank(V)


# -- real and complex inputs -------------------------------------------------

RECORDED_ON = ("x86_64", "2.4.6")  # the build the digests below come from

# sha256 of a bridge record and a verify report whose inputs are complex, so
# they run in complex128, recorded before real inputs ran in float64.  Keyed
# by OPENBLAS_CORETYPE: unset is the kernel OpenBLAS picks on the x86_64 CPU
# they were recorded on (SkylakeX); the others are the kernels CI also runs.
COMPLEX_DIGESTS = {
    "": ("36bf2e4821e47984ec6d4dc0b5db0e7ce8058f703a171b04a1ed3aaf29c4f952",
         "02a7d28be3f54f1fe92cc6c3bb2bfe49637a7b3c1d0e91cadf115c7ed7933b1d"),
    "Haswell": ("390210cbed56c80c4c3063a344bcb66765e00dd36f513a8c34d2b5b39b70465c",
                "b29d766f4ad76ca5799fc405f04a0c4ffb06ee950b62cc57b86c60423c5d1288"),
    "Prescott": ("8494a2fdf043aa75f5e5000853f0c866cb196910d9dc4bff96f6a4da9411d2ee",
                 "f36e0baf6175d83978bd890cb7949b6d5d22a8ca23e66e4258b2bb8c8241422c"),
}


def rotated(decomp, phase=np.exp(0.7j)):
    """decomp with every term vector multiplied by ``phase``: the same
    projections, with vectors that are no longer real."""
    def turn(terms):
        return tuple(RankOneTerm(t.weight, phase * t.vector) for t in terms)
    return RankOneDecomp(turn(decomp.terms), turn(decomp.remainder))


def test_real_and_complex_vectors_agree(block_decomp):
    turned = rotated(block_decomp)
    assert not any(t.vector.imag.any() for t in block_decomp.terms)
    assert all(t.vector.imag.any() for t in turned.terms)
    target = frame_operator(block_decomp.terms + block_decomp.remainder)
    real, cplx = decomp_residual(target, block_decomp), decomp_residual(target, turned)
    assert abs(real - cplx) <= 1e-15
    recs = decomp_to_isometry(block_decomp), decomp_to_isometry(turned)
    assert recs[0].rank == recs[1].rank
    assert np.max(np.abs(recs[0].diagonal - recs[1].diagonal)) <= 1e-12
    for rec in recs:
        for M in (rec.placement, rec.isometry, rec.sqrt_gram, rec.gram, rec.range_projection):
            assert M.dtype == np.complex128
    assert not recs[0].isometry.imag.any() and recs[1].isometry.imag.any()


def test_complex_inputs_keep_their_bits(tmp_path, capsys, monkeypatch):
    decomp, _, _ = carpenter_decompose(
        WeightSeq.periodic([], (0.4, 0.9)), VectorStream.block_overlap(4), stages=8
    )
    turned = rotated(decomp)
    (tmp_path / "dec.json").write_text(json.dumps(decomp_to_json(turned)))
    target = frame_operator(turned.terms + turned.remainder)
    (tmp_path / "op.json").write_text(json.dumps(op_to_json(target)))
    monkeypatch.chdir(tmp_path)
    assert main(["bridge", "dec.json", "--out", "rec.json"]) == 0
    capsys.readouterr()
    assert main(["verify", "dec.json", "op.json"]) == 0
    report = capsys.readouterr().out.encode()
    record = (tmp_path / "rec.json").read_bytes()
    assert json.loads(report)["residual"] <= 1e-12
    kernel = os.environ.get("OPENBLAS_CORETYPE", "")
    if (platform.machine(), np.__version__) == RECORDED_ON and kernel in COMPLEX_DIGESTS:
        got = hashlib.sha256(record).hexdigest(), hashlib.sha256(report).hexdigest()
        assert got == COMPLEX_DIGESTS[kernel]
