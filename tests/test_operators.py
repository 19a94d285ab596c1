import numpy as np
import pytest

from admseq.errors import DimensionError, SequenceError
from admseq.operators import (
    RankOneDecomp,
    assert_hermitian,
    decomp_from_json,
    decomp_residual,
    decomp_to_json,
    eigenvalues_desc,
    eigh_desc,
    frame_operator,
    make_term,
    op_from_json,
    op_to_json,
    polar_partial_isometry,
    residual_norm,
    sqrt_psd,
    unit_vector,
)

RNG = np.random.default_rng(7)


def random_hermitian(n):
    X = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return X + X.conj().T


def random_psd(n, rank=None):
    r = rank if rank is not None else n
    X = RNG.normal(size=(n, r)) + 1j * RNG.normal(size=(n, r))
    return X @ X.conj().T


def test_assert_hermitian_symmetrizes():
    A = random_hermitian(4)
    B = assert_hermitian(A + 1e-14 * 1j * np.eye(4))
    assert np.allclose(B, B.conj().T)


def test_assert_hermitian_rejects_skew():
    with pytest.raises(ValueError):
        assert_hermitian([[0.0, 1.0], [-1.0, 0.0]])


def test_assert_hermitian_rejects_rectangular():
    with pytest.raises(DimensionError):
        assert_hermitian(np.ones((2, 3)))


def test_eigh_desc_order_and_reconstruction():
    A = random_hermitian(5)
    w, V = eigh_desc(A)
    assert all(w[i] >= w[i + 1] for i in range(4))
    assert np.allclose((V * w) @ V.conj().T, assert_hermitian(A), atol=1e-10)
    assert np.allclose(eigenvalues_desc(A), w)


def test_sqrt_psd_squares_back():
    A = random_psd(6, rank=4)
    S = sqrt_psd(A)
    assert np.allclose(S @ S, A, atol=1e-9)
    assert np.allclose(S, S.conj().T)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_polar_factors_the_matrix():
    B = RNG.normal(size=(5, 3)) + 1j * RNG.normal(size=(5, 3))
    rec = polar_partial_isometry(B)
    assert rec.rank == 3
    assert np.allclose(rec.isometry @ rec.sqrt_gram, B, atol=1e-9)
    assert np.allclose(rec.isometry.conj().T @ rec.isometry, np.eye(3), atol=1e-9)


def test_polar_rank_deficient_gives_projection():
    B = np.zeros((4, 3), dtype=complex)
    B[:, 0] = [1, 0, 0, 0]
    B[:, 1] = [1, 0, 0, 0]  # column space rank 1, gram rank 1
    rec = polar_partial_isometry(B)
    assert rec.rank == 1
    VV = rec.isometry.conj().T @ rec.isometry
    assert np.allclose(VV, rec.range_projection, atol=1e-9)
    assert np.allclose(VV @ VV, VV, atol=1e-9)
    assert np.allclose(rec.isometry @ rec.sqrt_gram, B, atol=1e-9)


def test_unit_vector_rejects_off_norm():
    with pytest.raises(ValueError):
        unit_vector([1.0, 1.0])


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_make_term_refuses_a_non_finite_weight(weight):
    with pytest.raises(ValueError, match=f"^term weight must be finite, got {weight!r}$"):
        make_term(weight, [1.0, 0.0])


def test_make_term_refuses_a_nan_vector_entry():
    with pytest.raises(ValueError, match="^vector norm nan is not 1$"):
        make_term(0.5, [np.nan, 0.0])


def test_frame_operator_matches_outer_sums():
    v1 = np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    terms = (make_term(0.5, v1), make_term(0.25, v2))
    S = frame_operator(terms)
    expect = 0.5 * np.outer(v1, v1) + 0.25 * np.outer(v2, v2)
    assert np.allclose(S, expect)


def test_frame_operator_of_no_terms_is_zero():
    S = frame_operator([], dim=3)
    assert S.shape == (3, 3) and S.dtype == np.complex128 and not S.any()
    with pytest.raises(DimensionError, match="^cannot infer the dimension of an empty sum$"):
        frame_operator([])


def test_frame_operator_dimension_mismatch():
    with pytest.raises(DimensionError):
        frame_operator([make_term(1.0, [1.0, 0.0]), make_term(1.0, [1.0, 0.0, 0.0])])


# each refusal of the polar factor, the frame product and the readers that
# no other test reaches, on a closed-form input
OPERATOR_REFUSALS = [
    (lambda: polar_partial_isometry(np.ones(3)), DimensionError, "expected a matrix, got shape (3,)"),
    (lambda: frame_operator([make_term(1.0, [1.0, 0.0])], dim=3), DimensionError,
     "term vector has length 2, expected 3"),
    (lambda: decomp_from_json({"terms": [{"weight": 1.0, "vector": "ab"}]}), SequenceError,
     "vector JSON must be a list of [re, im] pairs or a sparse object"),
    (lambda: decomp_from_json({"terms": [{"weight": 1.0, "vector": {"size": 2, "indices": "01",
                                                                      "values": [[1, 0]]}}]}),
     SequenceError, "sparse array indices must be a list of integers"),
    (lambda: op_from_json([]), SequenceError, "operator JSON must be an object, got list"),
    (lambda: op_from_json({"dim": 2}), SequenceError, "operator JSON missing field 'entries'"),
    (lambda: decomp_from_json([]), SequenceError, "decomposition JSON must be an object with 'terms'"),
]


@pytest.mark.parametrize("call, kind, text", OPERATOR_REFUSALS, ids=[
    "polar-vector", "frame-dim", "term-vector-string", "sparse-indices-string", "op-not-object",
    "op-no-entries", "decomp-not-object"])
def test_refusals_name_the_fault(call, kind, text):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == text


def test_residual_norm_is_spectral():
    A = np.diag([2.0, 0.0])
    B = np.diag([0.0, 1.0])
    assert residual_norm(A, B) == pytest.approx(2.0)


def test_residual_norm_rejects_vectors():
    with pytest.raises(DimensionError, match="expected equal square shapes"):
        residual_norm(np.ones(3), np.zeros(3))


def test_residual_norm_rejects_unequal_square_shapes():
    with pytest.raises(DimensionError, match="expected equal square shapes"):
        residual_norm(np.eye(2), np.eye(3))


@pytest.mark.parametrize("phase", [1.0, np.exp(0.7j)], ids=["real", "complex"])
def test_dense_results_are_complex_whatever_the_input(phase):
    B = phase * RNG.normal(size=(5, 3))
    rec = polar_partial_isometry(B)
    for M in (rec.isometry, rec.sqrt_gram, rec.range_projection, rec.gram):
        assert M.dtype == np.complex128
    assert np.max(np.abs(rec.isometry @ rec.sqrt_gram - B)) <= 1e-12
    terms = [make_term(0.5, v / np.linalg.norm(v)) for v in B]
    S = frame_operator(terms)
    assert S.dtype == np.complex128
    assert np.max(np.abs(S - sum(0.5 * np.outer(t.vector, t.vector.conj()) for t in terms))) <= 1e-14


def test_decomp_roundtrip_and_residual():
    v1 = np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([0.0, 1.0], dtype=complex)
    d = RankOneDecomp(
        terms=(make_term(0.5, v1), make_term(0.5, v2)),
        remainder=(make_term(0.25, v1),),
    )
    blob = decomp_to_json(d)
    back = decomp_from_json(blob)
    assert back.weights() == d.weights()
    assert len(back.remainder) == 1
    target = np.diag([0.75, 0.5])
    assert decomp_residual(target, back, with_remainder=True) == pytest.approx(0.0, abs=1e-12)
    assert decomp_residual(target, back, with_remainder=False) == pytest.approx(0.25)


def test_op_json_roundtrip_complex():
    A = random_hermitian(3)
    back = op_from_json(op_to_json(A))
    assert np.allclose(back, A)


def test_op_json_diag_form():
    A = op_from_json({"diag": [0.5, "0.25", 0]})
    assert np.allclose(A, np.diag([0.5, 0.25, 0.0]))


def test_op_json_rejects_entry_count_mismatch():
    with pytest.raises(SequenceError):
        op_from_json({"dim": 2, "entries": [[1, 0]]})


@pytest.mark.parametrize(
    "dim,count", [(2.7, 4), (2.0, 4), (True, 1), ("2", 4), (None, 4), (-2, 4)]
)
def test_op_json_refuses_non_integer_dim(dim, count):
    # each entry count matches what int(dim) would read, so only the type
    # check stands between the document and a truncated operator
    with pytest.raises(SequenceError, match="dim must be a nonnegative integer"):
        op_from_json({"dim": dim, "entries": [[1, 0]] * count})


def test_decomp_json_rejects_mixed_dims():
    blob = {
        "terms": [
            {"weight": 1.0, "vector": [[1, 0]]},
            {"weight": 1.0, "vector": [[1, 0], [0, 0]]},
        ]
    }
    with pytest.raises(DimensionError):
        decomp_from_json(blob)
