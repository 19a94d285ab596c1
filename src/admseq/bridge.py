"""Bridge between weighted rank-one decompositions and partial isometries.

A decomposition sum xi_j v_j v_j* is encoded as the placement matrix B with
rows sqrt(xi_j) v_j*, formed in one product from the decomposition's matrix
of term vectors (``operators.RankOneDecomp.rows``).  Its Gram B*B is
exactly the frame operator, and the polar factor V of B (computed from B*B,
never an SVD) is a partial isometry with V A V* carrying the weights on its
diagonal.  V and (B*B)^{1/2} come with their rounding noise set to +0.0
(``operators.POLAR_NOISE_FLOOR``), and the diagonal is checked on those
matrices.  When every term vector is real (every imaginary part zero), the
polar factor and the diagonal are computed in float64; the record's
matrices are complex128 either way.  Both directions of the translation
are provided and are exact inverses on nonzero-weight terms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._np import np
from .errors import DimensionError
from .operators import (
    PartialIsometryRec,
    RankOneDecomp,
    _real_if_imag_zero,
    assert_hermitian,
    polar_partial_isometry,
    sqrt_psd,
)

WEIGHT_FLOOR = 1e-12
DIAG_TOL = 1e-10
ROUNDTRIP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BridgeRecord(PartialIsometryRec):
    """The polar record of a placement matrix, plus the bookkeeping to invert.

    ``placement`` has one row per kept (nonzero-weight) term;
    ``kept_indices`` maps those rows back to positions in the source
    decomposition.  ``gram`` is placement* placement, which coincides with
    the frame operator of the decomposition.  ``rank`` is the rank of the
    isometry: the number of eigenvalues of ``gram`` above
    ``operators.EIG_CLAMP``.
    """

    placement: np.ndarray
    kept_indices: tuple[int, ...]
    weights: tuple[float, ...]

    @cached_property
    def diagonal(self) -> np.ndarray:
        """diag(V A V*), which reproduces the kept weights; formed once, in
        float64 when V and A are real."""
        V, A = _real_if_imag_zero(self.isometry), _real_if_imag_zero(self.gram)
        return np.einsum("ij,ij->i", V @ A, V.conj()).real

    @cached_property
    def diagonal_deviation(self) -> float:
        """Largest distance of the diagonal from the kept weights."""
        return float(np.max(np.abs(self.diagonal - np.asarray(self.weights))))


def _placement(decomp: RankOneDecomp, kept) -> np.ndarray:
    """The placement matrix with rows sqrt(w_j) v_j* of the terms of
    ``decomp`` that ``kept``, a list of indices or a slice, selects."""
    w = np.array(decomp.row_weights, dtype=float)[kept]
    return np.sqrt(w)[:, None] * decomp.rows[kept].conj()


def decomp_to_isometry(decomp: RankOneDecomp) -> BridgeRecord:
    """Encode the nonzero-weight terms as a placement matrix and polar-factor it."""
    weights = decomp.weights()
    kept = [i for i, w in enumerate(weights) if w > WEIGHT_FLOOR]
    if not kept:
        raise DimensionError("decomposition has no terms above the weight floor")
    B = _placement(decomp, kept)
    out = BridgeRecord(
        **vars(polar_partial_isometry(B)),
        placement=B,
        kept_indices=tuple(kept),
        weights=tuple(weights[i] for i in kept),
    )
    if out.diagonal_deviation > DIAG_TOL:
        raise ValueError(
            f"bridge diagonal drifted from the weights by {out.diagonal_deviation:.3e}"
        )
    return out


def isometry_to_decomp(isometry, gram) -> RankOneDecomp:
    """Recover the decomposition sum_j xi_j v_j v_j* from a partial isometry
    and the PSD operator it factors: xi_j = (V A V*)_jj and
    v_j = A^{1/2} V* e_j / sqrt(xi_j); rows below the weight floor are skipped."""
    V = np.asarray(isometry, dtype=complex)
    if V.ndim != 2:
        raise DimensionError(f"expected a matrix isometry, got shape {V.shape}")
    A = assert_hermitian(gram)
    if A.shape[0] != V.shape[1]:
        raise DimensionError(
            f"isometry acts on dimension {V.shape[1]} but the operator has {A.shape[0]}"
        )
    VtV = V.conj().T @ V
    if float(np.max(np.abs(VtV @ A - A))) > ROUNDTRIP_TOL:
        raise ValueError("isometry does not cover the range of the operator")
    root = sqrt_psd(A)
    B = V @ root
    xi = [float(np.real(np.vdot(row, row))) for row in B]
    kept = [j for j, x in enumerate(xi) if x > WEIGHT_FLOOR]
    weights = [xi[j] for j in kept]
    rows = B[kept].conj() / np.sqrt(weights)[:, None]
    return RankOneDecomp._of_rows(rows, weights, len(kept))


def gram_matrix(decomp: RankOneDecomp) -> np.ndarray:
    """Gram matrix of the scaled vectors sqrt(xi_j) v_j over all terms,
    zero-weight ones included."""
    B = _placement(decomp, slice(decomp.n_terms))
    return B @ B.conj().T
