"""Finite-dimensional operator helpers: Hermitian checks, PSD square roots,
polar partial isometries (computed from B*B, not an SVD, with their rounding
noise set to zero), frame operators, and JSON forms for operators and
rank-one decompositions, whose complex arrays are written sparse and read in
either form."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from ._np import np
from .errors import DimensionError, SequenceError
from .seqkit import _real_from_json

EIG_CLAMP = 1e-10       # eigenvalues in [-EIG_CLAMP, EIG_CLAMP] count as zero
HERM_TOL = 1e-12        # per-dimension Hermitian symmetry tolerance
SQRT_PSD_TOL = 1e-9     # per-dimension negative-eigenvalue allowance
POLAR_PROJ_TOL = 1e-10  # V*V versus range projection
POLAR_FACTOR_TOL = 1e-9  # B versus V sqrt(B*B)
POLAR_NOISE_FLOOR = 1e-13  # polar parts at most this times their matrix's scale are set to +0.0
UNIT_TOL = 1e-9         # term vectors' norm versus 1; term weights' negative allowance


def as_operator(A) -> np.ndarray:
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    return M


def assert_hermitian(A) -> np.ndarray:
    M = as_operator(A)
    dev = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    if dev > HERM_TOL * max(1, M.shape[0]):
        raise ValueError(f"matrix is not Hermitian (max asymmetry {dev:.3e})")
    return 0.5 * (M + M.conj().T)


def eigh_desc(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""
    return _eigh_desc(assert_hermitian(A))


def _eigh_desc(M) -> tuple[np.ndarray, np.ndarray]:
    """eigh_desc of a matrix that assert_hermitian has already symmetrized."""
    w, V = np.linalg.eigh(M)
    order = np.argsort(w)[::-1]
    return w[order].real, V[:, order]


def eigenvalues_desc(A) -> np.ndarray:
    M = assert_hermitian(A)
    return np.sort(np.linalg.eigvalsh(M))[::-1]


def sqrt_psd(A) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues clamp."""
    w, V = eigh_desc(A)
    if len(w) and w[-1] < -SQRT_PSD_TOL * max(1, len(w)):
        raise ValueError(f"matrix is not positive semidefinite (min eig {w[-1]:.3e})")
    s = np.sqrt(np.clip(w, 0.0, None))
    return (V * s) @ V.conj().T


@dataclass(frozen=True, eq=False)
class PartialIsometryRec:
    """Polar data of a matrix B: B = isometry @ sqrt_gram with
    isometry* @ isometry equal to the projection onto the range of B*B,
    whose dimension is ``rank``.  ``gram`` is B*B, symmetrized."""

    isometry: np.ndarray
    sqrt_gram: np.ndarray
    range_projection: np.ndarray
    rank: int
    gram: np.ndarray


def _zero_noise(M, scale: float) -> np.ndarray:
    """M with every real and imaginary part of magnitude at most
    POLAR_NOISE_FLOOR * scale set to +0.0, in place."""
    parts = M.view(np.float64)
    parts[np.abs(parts) <= POLAR_NOISE_FLOOR * scale] = 0.0
    return M


def polar_partial_isometry(B) -> PartialIsometryRec:
    """Polar decomposition B = V (B*B)^{1/2} built from the eigendecomposition
    of the Gram matrix B*B.  V is a partial isometry from the range of B*B.

    Entries that are zero in exact arithmetic come out of the eigenvectors as
    rounding noise of about dim * eps times the matrix's scale (Higham,
    "Computing the polar decomposition", 1986).  So every real and imaginary
    part of V at most POLAR_NOISE_FLOOR, and of sqrt(B*B) at most
    POLAR_NOISE_FLOOR times its largest singular value, is set to +0.0.  The
    projection and factorization checks run on the zeroed matrices."""
    M = np.asarray(B, dtype=complex)
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {M.shape}")
    gram = assert_hermitian(M.conj().T @ M)
    w, U = _eigh_desc(gram)
    kept = w > EIG_CLAMP
    rank = int(np.count_nonzero(kept))
    s = np.sqrt(np.clip(w, 0.0, None))
    sqrt_gram = _zero_noise((U * s) @ U.conj().T, float(s.max(initial=0.0)))
    inv_s = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
    V = _zero_noise(M @ (U * inv_s) @ U.conj().T, 1.0)
    R = (U * kept.astype(float)) @ U.conj().T
    dev_proj = float(np.max(np.abs(V.conj().T @ V - R))) if M.size else 0.0
    if dev_proj > POLAR_PROJ_TOL:
        raise ValueError(f"polar isometry failed its projection check ({dev_proj:.3e})")
    dev_fact = float(np.max(np.abs(V @ sqrt_gram - M))) if M.size else 0.0
    if dev_fact > POLAR_FACTOR_TOL:
        raise ValueError(f"polar factorization residual too large ({dev_fact:.3e})")
    return PartialIsometryRec(V, sqrt_gram, R, rank, gram)


# -- rank-one decompositions ------------------------------------------

def unit_vector(v) -> np.ndarray:
    x = np.asarray(v, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(x))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise ValueError(f"vector norm {nrm!r} is not 1")
    return x / nrm


@dataclass(frozen=True, eq=False)
class RankOneTerm:
    """One weighted projection w * v v^* with v a unit vector."""

    weight: float
    vector: np.ndarray


@dataclass(frozen=True, eq=False)
class RankOneDecomp:
    """A list of weighted rank-one projections, plus optional remainder terms
    recording the unconsumed part of a truncated infinite construction."""

    terms: tuple[RankOneTerm, ...]
    remainder: tuple[RankOneTerm, ...] = field(default=())

    @property
    def dim(self) -> int:
        for t in self.terms + self.remainder:
            return len(t.vector)
        raise DimensionError("empty decomposition has no ambient dimension")

    def weights(self) -> tuple[float, ...]:
        return tuple(t.weight for t in self.terms)

    def frame_operator(self, dim: int | None = None, with_remainder: bool = False) -> np.ndarray:
        terms = self.terms + self.remainder if with_remainder else self.terms
        return frame_operator(terms, dim=dim if dim is not None else self.dim)


def make_term(weight, vector) -> RankOneTerm:
    w = float(weight)
    if w < -UNIT_TOL:
        raise ValueError(f"term weight must be nonnegative, got {w!r}")
    return RankOneTerm(max(w, 0.0), unit_vector(vector))


def frame_operator(terms, dim: int | None = None) -> np.ndarray:
    """Sum of w_j v_j v_j^* over the given terms."""
    terms = list(terms)
    if dim is None:
        if not terms:
            raise DimensionError("cannot infer the dimension of an empty sum")
        dim = len(terms[0].vector)
    for t in terms:
        if len(t.vector) != dim:
            raise DimensionError(f"term vector has length {len(t.vector)}, expected {dim}")
    if not terms:
        return np.zeros((dim, dim), dtype=complex)
    V = np.array([t.vector for t in terms], dtype=complex)
    w = np.array([t.weight for t in terms], dtype=float)
    return (V.T * w) @ V.conj()


def residual_norm(A, B) -> float:
    """Operator 2-norm of the difference."""
    M = np.asarray(A, dtype=complex) - np.asarray(B, dtype=complex)
    if M.shape[0] != M.shape[1] or M.ndim != 2:
        raise DimensionError(f"expected equal square shapes, got {M.shape}")
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


# -- JSON forms --------------------------------------------------------
#
# A flat complex array is written in its sparse form,
# {"size": N, "indices": [...], "values": [[re, im], ...]}: the pairs whose
# two float64 values do not both have all bits clear, at strictly increasing
# indices; every other pair is (+0.0, +0.0).  The readers take that form or
# the dense list of N entries, and rebuild the same float64 bits from either.

def _complex_from_json(x) -> complex:
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise SequenceError(f"complex entries are [re, im] pairs, got {x!r}")
        return complex(_real_from_json(x[0]), _real_from_json(x[1]))
    return complex(_real_from_json(x), 0.0)


def _complex_array_from_json(entries) -> np.ndarray:
    """1-d complex array of a JSON array: a sparse object, or a list of
    [re, im] pairs or reals.  A list of float pairs, the form written files
    take, is flattened once and converted in one call."""
    if isinstance(entries, dict):
        return _sparse_from_json(entries)
    if (
        type(entries) is list
        and set(map(type, entries)) == {list}
        and set(map(len, entries)) == {2}
    ):
        flat = list(chain.from_iterable(entries))
        if set(map(type, flat)) == {float}:
            return np.array(flat, dtype=np.float64).view(complex)
    return np.asarray([_complex_from_json(e) for e in entries], dtype=complex)


def _sparse_from_json(obj: dict) -> np.ndarray:
    try:
        size, indices, values = obj["size"], obj["indices"], obj["values"]
    except KeyError as exc:
        raise SequenceError(f"sparse array JSON missing field {exc}") from exc
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise SequenceError(f"sparse array size must be a nonnegative integer, got {size!r}")
    if type(indices) is not list or not set(map(type, indices)) <= {int}:
        raise SequenceError("sparse array indices must be a list of integers")
    if type(values) is not list or len(values) != len(indices):
        raise SequenceError("sparse array needs a list of values, one per index")
    if indices and (min(indices) < 0 or max(indices) >= size):
        raise SequenceError(f"sparse array index out of range for size {size}")
    at = np.array(indices, dtype=np.intp)
    if np.any(at[1:] <= at[:-1]):
        raise SequenceError("sparse array indices must be strictly increasing")
    try:
        out = np.zeros(size, dtype=complex)
    except MemoryError as exc:  # a few bytes of sparse JSON can ask for any size
        raise SequenceError(f"sparse array size {size} is too large to hold") from exc
    out[at] = _complex_array_from_json(values)
    return out


def _sparse_docs(M, arrays) -> list[dict]:
    """Sparse JSON object of each row of the complex matrix ``M``, with its
    index and value arrays mapped by ``arrays``: ``_plain`` gives plain
    lists, ``np.asarray`` keeps the arrays for ``jsonio.write_json``.  The
    non-zero pairs of all rows are found in one pass over ``M``."""
    M = np.ascontiguousarray(M, dtype=complex)
    bits = M.view(np.uint64)
    nonzero = (bits[:, 0::2] | bits[:, 1::2]) != 0
    indices, values = nonzero.nonzero()[1], M[nonzero]
    ends = np.cumsum(np.count_nonzero(nonzero, axis=1)).tolist()
    return [
        {"size": M.shape[1], "indices": arrays(indices[a:b]), "values": arrays(values[a:b])}
        for a, b in zip([0] + ends, ends)
    ]


def _plain(arr: np.ndarray) -> list:
    """An index or complex array as the plain list ``json.dump`` takes."""
    return _vec_to_json(arr) if arr.dtype.kind == "c" else arr.tolist()


def _array_doc(A, arrays) -> dict:
    """Sparse JSON object of the complex array ``A`` flattened row-major,
    the arrays mapped by ``arrays`` as in ``_sparse_docs``."""
    return _sparse_docs(np.asarray(A).reshape(1, -1), arrays)[0]


def _op_doc(A, arrays) -> dict:
    """Operator JSON object with its row-major entries in sparse form."""
    M = as_operator(A)
    return {"dim": M.shape[0], "entries": _array_doc(M, arrays)}


def op_to_json(A) -> dict:
    return _op_doc(A, _plain)


def op_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise SequenceError(f"operator JSON must be an object, got {type(obj).__name__}")
    if "diag" in obj:
        d = [_real_from_json(v) for v in obj["diag"]]
        return np.diag(np.asarray(d, dtype=complex))
    try:
        n = obj["dim"]
        entries = obj["entries"]
    except KeyError as exc:
        raise SequenceError(f"operator JSON missing field {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SequenceError(f"operator dim must be a nonnegative integer, got {n!r}")
    flat = _complex_array_from_json(entries)
    if flat.size != n * n:
        raise SequenceError(f"operator claims dim {n} but has {flat.size} entries")
    return flat.reshape(n, n)


def _vec_to_json(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _vec_from_json(obj) -> np.ndarray:
    if not isinstance(obj, (list, tuple, dict)):
        raise SequenceError("vector JSON must be a list of [re, im] pairs or a sparse object")
    return _complex_array_from_json(obj)


def _decomp_doc(decomp: RankOneDecomp, arrays) -> dict:
    """Decomposition JSON object with each term vector in sparse form, the
    arrays mapped by ``arrays`` as in ``_sparse_docs``."""
    ts = decomp.terms + decomp.remainder
    vectors = _sparse_docs([t.vector for t in ts], arrays) if ts else []
    docs = [{"weight": t.weight, "vector": v} for t, v in zip(ts, vectors)]
    out = {"terms": docs[: len(decomp.terms)]}
    if decomp.remainder:
        out["remainder_terms"] = docs[len(decomp.terms) :]
    return out


def decomp_to_json(decomp: RankOneDecomp) -> dict:
    return _decomp_doc(decomp, _plain)


def _terms_from_json(items) -> tuple[RankOneTerm, ...]:
    terms = []
    for it in items:
        if not isinstance(it, dict) or "weight" not in it or "vector" not in it:
            raise SequenceError("decomposition terms need 'weight' and 'vector'")
        terms.append(make_term(_real_from_json(it["weight"]), _vec_from_json(it["vector"])))
    return tuple(terms)


def decomp_from_json(obj) -> RankOneDecomp:
    if not isinstance(obj, dict) or "terms" not in obj:
        raise SequenceError("decomposition JSON must be an object with 'terms'")
    terms = _terms_from_json(obj["terms"])
    remainder = _terms_from_json(obj.get("remainder_terms", ()))
    dims = {len(t.vector) for t in terms + remainder}
    if len(dims) > 1:
        raise DimensionError(f"mixed vector lengths in decomposition: {sorted(dims)}")
    return RankOneDecomp(terms, remainder)


def decomp_residual(A, decomp: RankOneDecomp, with_remainder: bool = True) -> float:
    M = as_operator(A)
    S = decomp.frame_operator(dim=M.shape[0], with_remainder=with_remainder)
    return residual_norm(M, S)
