"""Finite-dimensional operator helpers: Hermitian checks, PSD square roots,
polar partial isometries (computed from B*B, not an SVD, with their rounding
noise set to zero), frame operators, and JSON forms for operators and
rank-one decompositions, whose complex arrays are written sparse and read in
either form.

The dense products behind ``frame_operator``, ``residual_norm`` and
``polar_partial_isometry`` run in float64 when every imaginary part of their
input is zero, so real data takes the real BLAS and LAPACK routines; any
other input runs in complex128.  Their results are complex128 either way.
A rank-one decomposition is one read-only complex matrix whose rows are
its term vectors, the remainder terms' last, and a tuple of their weights;
its ``terms`` and ``remainder`` are views of those rows.  The reader
scatters all term vectors into that matrix in one pass (one check over all
their indices and values, one conversion) and normalizes it in place.  The
frame product (``RankOneDecomp.frame_operator``), the writer's scan for
non-zero pairs (``_nonzero_pairs``) and ``bridge``'s placement matrix all
read that matrix as it is, or a slice of it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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


def _real_if_imag_zero(A) -> np.ndarray:
    """The float64 real part of ``A`` when every imaginary part is zero, as a
    contiguous copy the real BLAS takes; otherwise ``A`` as complex128."""
    M = np.asarray(A, dtype=complex)
    return M if M.imag.any() else M.real.copy()


def assert_hermitian(A) -> np.ndarray:
    return _hermitian_part(as_operator(A))


def _hermitian_part(M) -> np.ndarray:
    """(M + M*) / 2 of a square matrix M, real or complex, whose entries are
    finite and whose asymmetry is within HERM_TOL per dimension."""
    dev = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    if not math.isfinite(dev):  # an inf or nan entry makes the asymmetry inf or nan
        raise ValueError("matrix entries must be finite")
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
    projection and factorization checks run on the zeroed matrices, in
    float64 when B is real.  The returned matrices are complex128."""
    M = _real_if_imag_zero(B)
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {M.shape}")
    gram = _hermitian_part(M.conj().T @ M)
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
    # one at a time, so each float64 matrix is freed before the next is widened
    V = V.astype(complex, copy=False)
    sqrt_gram = sqrt_gram.astype(complex, copy=False)
    R = R.astype(complex, copy=False)
    return PartialIsometryRec(V, sqrt_gram, R, rank, gram.astype(complex, copy=False))


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


@dataclass(frozen=True, eq=False, init=False)
class RankOneDecomp:
    """A list of weighted rank-one projections, plus optional remainder terms
    recording the unconsumed part of a truncated infinite construction: the
    read-only complex matrix ``rows`` of term vectors, the first ``n_terms``
    of them the terms', and their weights ``row_weights``.  ``terms`` and
    ``remainder`` are RankOneTerm views of those rows."""

    rows: np.ndarray
    row_weights: tuple
    n_terms: int

    def __init__(self, terms, remainder=()):
        terms, remainder = tuple(terms), tuple(remainder)
        ts = terms + remainder
        if len({len(t.vector) for t in ts}) > 1:
            raise DimensionError("terms disagree on the ambient dimension")
        rows = np.array([t.vector for t in ts], dtype=complex) if ts else np.zeros((0, 0), complex)
        rows.flags.writeable = False
        self.__dict__.update(rows=rows, row_weights=tuple(t.weight for t in ts), n_terms=len(terms))

    @classmethod
    def _of_rows(cls, rows: np.ndarray, weights, n_terms: int) -> RankOneDecomp:
        """The decomposition whose term vectors are the rows of the complex
        matrix ``rows``, taken as it is, with ``weights``; the first
        ``n_terms`` rows are its terms, the rest its remainder terms."""
        rows.flags.writeable = False
        out = cls.__new__(cls)
        out.__dict__.update(rows=rows, row_weights=tuple(weights), n_terms=n_terms)
        return out

    @cached_property
    def terms(self) -> tuple[RankOneTerm, ...]:
        return tuple(map(RankOneTerm, self.weights(), self.rows))

    @cached_property
    def remainder(self) -> tuple[RankOneTerm, ...]:
        return tuple(map(RankOneTerm, self.row_weights[self.n_terms :], self.rows[self.n_terms :]))

    @property
    def dim(self) -> int:
        if not self.row_weights:
            raise DimensionError("empty decomposition has no ambient dimension")
        return self.rows.shape[1]

    def weights(self) -> tuple[float, ...]:
        return self.row_weights[: self.n_terms]

    def frame_operator(self, dim: int | None = None, with_remainder: bool = False) -> np.ndarray:
        n = len(self.row_weights) if with_remainder else self.n_terms
        dim = self.dim if dim is None else dim
        if not n:
            return np.zeros((dim, dim), dtype=complex)
        if self.rows.shape[1] != dim:
            raise DimensionError(f"term vector has length {self.rows.shape[1]}, expected {dim}")
        V = _real_if_imag_zero(self.rows[:n])
        w = np.array(self.row_weights[:n], dtype=float)
        return ((V.T * w) @ V.conj()).astype(complex, copy=False)


def make_term(weight, vector) -> RankOneTerm:
    return RankOneTerm(_term_weight(weight), unit_vector(vector))


def _term_weight(weight) -> float:
    w = float(weight)
    if w < -UNIT_TOL:
        raise ValueError(f"term weight must be nonnegative, got {w!r}")
    return max(w, 0.0)


def frame_operator(terms, dim: int | None = None) -> np.ndarray:
    """Sum of w_j v_j v_j^* over the given terms, as a complex128 matrix."""
    decomp = RankOneDecomp(terms)
    if dim is None and not decomp.n_terms:
        raise DimensionError("cannot infer the dimension of an empty sum")
    return decomp.frame_operator(dim)


def residual_norm(A, B) -> float:
    """Operator 2-norm of the difference of two square matrices of one shape."""
    M, N = _real_if_imag_zero(A), _real_if_imag_zero(B)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape != N.shape:
        raise DimensionError(f"expected equal square shapes, got {M.shape} and {N.shape}")
    return float(np.linalg.norm(M - N, 2)) if M.size else 0.0


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
        return _rows_from_json([entries])[0]
    if (
        type(entries) is list
        and set(map(type, entries)) == {list}
        and set(map(len, entries)) == {2}
    ):
        flat = list(chain.from_iterable(entries))
        if set(map(type, flat)) == {float}:
            return np.array(flat, dtype=np.float64).view(complex)
    return np.asarray([_complex_from_json(e) for e in entries], dtype=complex)


def _rows_from_json(arrays: list) -> np.ndarray:
    """The JSON arrays ``arrays``, sparse objects or dense lists of one
    length, as the rows of a complex matrix.  The sparse objects are checked
    over their concatenated indices and values (a lone one's lists as they
    are), whose pairs are converted in one call and scattered at once.  A
    single array is checked in the order the messages below are listed; of
    several malformed arrays, any one may be the one named."""
    sizes, sparse, indices, values = [], [], [], []
    dense = {}
    for r, obj in enumerate(arrays):
        if not isinstance(obj, dict):
            if not isinstance(obj, (list, tuple)):
                raise SequenceError("vector JSON must be a list of [re, im] pairs or a sparse object")
            dense[r] = _complex_array_from_json(obj)
            sizes.append(dense[r].size)
            continue
        try:
            size, at, vals = obj["size"], obj["indices"], obj["values"]
        except KeyError as exc:
            raise SequenceError(f"sparse array JSON missing field {exc}") from exc
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise SequenceError(f"sparse array size must be a nonnegative integer, got {size!r}")
        if type(at) is not list:
            raise SequenceError("sparse array indices must be a list of integers")
        sizes.append(size)
        sparse.append(r)
        indices.append(at)
        values.append(vals)
    flat = indices[0] if len(indices) == 1 else list(chain.from_iterable(indices))
    if not set(map(type, flat)) <= {int}:
        raise SequenceError("sparse array indices must be a list of integers")
    counts = list(map(len, indices))
    if not all(type(v) is list for v in values) or list(map(len, values)) != counts:
        raise SequenceError("sparse array needs a list of values, one per index")
    dims = set(sizes)
    if len(dims) > 1:
        raise DimensionError(f"mixed vector lengths in decomposition: {sorted(dims)}")
    size = dims.pop() if dims else 0
    if flat and (min(flat) < 0 or max(flat) >= size):
        raise SequenceError(f"sparse array index out of range for size {size}")
    at = np.array(flat, dtype=np.intp)
    later = at[1:] > at[:-1]
    starts = np.cumsum(counts, dtype=np.intp)[:-1]
    later[starts[(starts > 0) & (starts < at.size)] - 1] = True  # pairs across two arrays
    if not later.all():
        raise SequenceError("sparse array indices must be strictly increasing")
    try:
        out = np.zeros((len(arrays), size), dtype=complex)
    except MemoryError as exc:  # a few bytes of sparse JSON can ask for any size
        raise SequenceError(f"sparse array size {size} is too large to hold") from exc
    rows = np.repeat(np.array(sparse, dtype=np.intp), counts)
    pairs = values[0] if len(values) == 1 else list(chain.from_iterable(values))
    out[rows, at] = _complex_array_from_json(pairs)
    for r, row in dense.items():
        out[r] = row
    return out


def _nonzero_pairs(M) -> tuple[np.ndarray, np.ndarray, list]:
    """The pairs of the complex matrix ``M`` that the sparse form lists, found
    in one pass over ``M``: their column indices and values, row after row,
    and the end of each row's run in those arrays."""
    M = np.ascontiguousarray(M, dtype=complex)
    bits = M.view(np.uint64)
    flat = np.flatnonzero((bits[:, 0::2] | bits[:, 1::2]) != 0)
    ends = np.searchsorted(flat, np.arange(1, M.shape[0] + 1) * M.shape[1]).tolist()
    return flat % M.shape[1], M.reshape(-1)[flat], ends


def _sparse_docs(M, arrays) -> list[dict]:
    """Sparse JSON object of each row of the complex matrix ``M``, with its
    index and value arrays mapped by ``arrays``: ``_plain`` gives plain
    lists, ``np.asarray`` keeps the arrays for ``jsonio.write_json``."""
    indices, values, ends = _nonzero_pairs(M)
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
    return _rows_from_json([obj])[0]


def decomp_to_json(decomp: RankOneDecomp) -> dict:
    """Decomposition JSON object with each term vector in sparse form."""
    vectors = _sparse_docs(decomp.rows, _plain)
    docs = [{"weight": w, "vector": v} for w, v in zip(decomp.row_weights, vectors)]
    out = {"terms": docs[: decomp.n_terms]}
    if docs[decomp.n_terms :]:
        out["remainder_terms"] = docs[decomp.n_terms :]
    return out


def _rows_of_terms(items: list) -> tuple[np.ndarray, list]:
    """The term vectors of the JSON term objects ``items`` as the rows of one
    matrix, and their weights, each read as ``make_term`` reads it."""
    weights, vectors = [], []
    for it in items:
        if not isinstance(it, dict) or "weight" not in it or "vector" not in it:
            raise SequenceError("decomposition terms need 'weight' and 'vector'")
        weights.append(_real_from_json(it["weight"]))
        vectors.append(it["vector"])
    M = _rows_from_json(vectors)
    weights = list(map(_term_weight, weights))
    # unit_vector's norm and division, row by row, so the bits are its bits
    norms = [float(np.linalg.norm(row)) for row in M]
    off = [n for n in norms if abs(n - 1.0) > UNIT_TOL]
    if off:
        raise ValueError(f"vector norm {off[0]!r} is not 1")
    M /= np.array(norms)[:, None]
    return M, weights


def decomp_from_json(obj) -> RankOneDecomp:
    """The decomposition of a JSON object.  All its term vectors, remainder
    terms included, are read in one pass; when that pass fails, the terms
    are read one at a time, so the error is the first malformed term's."""
    if not isinstance(obj, dict) or "terms" not in obj:
        raise SequenceError("decomposition JSON must be an object with 'terms'")
    items = list(obj["terms"])
    n = len(items)
    items += obj.get("remainder_terms", ())
    try:
        M, weights = _rows_of_terms(items)
    except ValueError:
        for it in items:
            _rows_of_terms([it])
        raise
    return RankOneDecomp._of_rows(M, weights, n)


def decomp_residual(A, decomp: RankOneDecomp, with_remainder: bool = True) -> float:
    M = as_operator(A)
    S = decomp.frame_operator(dim=M.shape[0], with_remainder=with_remainder)
    return residual_norm(M, S)
