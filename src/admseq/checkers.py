"""Verdict-style checks around sums of projections and related inequalities.

These wrap the decomposition machinery into report objects: whether a
positive operator splits into rank-one projections (with an optional
constructive witness), whether a frame dominated by an operator satisfies
the trace-excess inequality, and whether a weight sequence can appear as
the diagonal of a projection with prescribed rank and corank."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .errors import DimensionError
from .horn import horn_decompose
from .operators import (
    RankOneDecomp,
    RankOneTerm,
    assert_hermitian,
    eigh_desc,
    frame_operator,
)
from .seqkit import KadisonReport, WeightSeq, kadison_check

INT_TOL = 1e-9
RANK_TOL = 1e-9
MARGIN_TOL = 1e-9
SPLIT_SUM_TOL = 1e-12  # adm_transform's split weights sum to 1 within it


# -- sums of projections ------------------------------------------------

@dataclass(frozen=True)
class SumOfProjReport:
    """Whether a positive operator is a sum of rank-one projections.

    The criterion: the trace must be a nonnegative integer at least the
    rank; equivalently excess - deficiency (= trace - rank) must be a
    nonnegative integer, where excess sums (eig - 1)+ and deficiency sums
    (1 - eig)+ over the nonzero spectrum."""

    decomposable: bool
    num_projections: int | None
    trace: float
    rank: int
    excess: float
    deficiency: float
    reason: str | None = None


def sum_of_projections_check(a, witness: bool = False):
    """Check the criterion; with witness=True also return the projections.

    Returns (report, decomp) where decomp is None unless a witness was
    requested and the check passed."""
    vals, vecs = eigh_desc(a)
    trace = float(math.fsum(vals))
    rank = int(np.sum(vals > RANK_TOL))
    excess = float(math.fsum(v - 1.0 for v in vals if v > 1.0))
    deficiency = float(math.fsum(1.0 - v for v in vals if RANK_TOL < v < 1.0))

    def report(ok, n, reason=None):
        return SumOfProjReport(ok, n, trace, rank, excess, deficiency, reason)

    if vals.size and vals[-1] < -INT_TOL:  # the zero operator on C^0 is the empty sum
        return report(False, None, "operator has a negative eigenvalue"), None
    n = round(trace)
    if abs(trace - n) > INT_TOL:
        return report(False, None, "trace is not an integer"), None
    if n < rank:
        return report(False, None, "trace falls below the rank"), None
    rep = report(True, int(n))
    if not witness:
        return rep, None
    if n == 0:
        return rep, RankOneDecomp(())
    pool = [
        RankOneTerm(max(float(v), 0.0), vecs[:, i])
        for i, v in enumerate(vals)
        if v > RANK_TOL
    ]
    decomp = horn_decompose(pool, [1.0] * int(n))
    return rep, decomp


# -- the trace-excess inequality ----------------------------------------

@dataclass(frozen=True)
class IneqReport:
    """Margins for 0 <= B <= A with B a weighted frame: spectral positivity
    of B, spectral domination by A, and the excess inequality
    tr((A - I)+) >= sum_j (w_j - 1)+."""

    holds: bool
    positivity_margin: float
    domination_margin: float
    operator_excess: float
    weight_excess: float
    excess_margin: float


def ineq_check(a, decomp: RankOneDecomp):
    mat = assert_hermitian(a)
    dim = mat.shape[0]
    if decomp.terms and decomp.dim != dim:
        raise DimensionError(
            f"operator dimension {dim} does not match the decomposition ({decomp.dim})"
        )
    b = decomp.frame_operator(dim=dim, with_remainder=True)
    pos = float(np.linalg.eigvalsh(b)[0])
    dom = float(np.linalg.eigvalsh(mat - b)[0])
    op_excess = float(math.fsum(max(v - 1.0, 0.0) for v in np.linalg.eigvalsh(mat)))
    w_excess = float(math.fsum(max(w - 1.0, 0.0) for w in decomp.row_weights))
    margin = op_excess - w_excess
    holds = pos >= -MARGIN_TOL and dom >= -MARGIN_TOL and margin >= -MARGIN_TOL
    return IneqReport(holds, pos, dom, op_excess, w_excess, margin)


# -- projection diagonals ------------------------------------------------

@dataclass(frozen=True)
class ProjectionDiagReport:
    """Whether a weight sequence fits as the diagonal of a projection with
    the given rank and corank.  When both are infinite the integrality
    test decides; otherwise the matching sum must agree exactly."""

    ok: bool
    trace: float
    cotrace: float
    kadison: KadisonReport | None = None
    reason: str | None = None


def projection_diag_check(xi, rank: float, corank: float):
    seq = xi if isinstance(xi, WeightSeq) else WeightSeq.finite(xi)
    for name, value in (("rank", rank), ("corank", corank)):
        if value != math.inf and (value < 0 or round(value) != value):
            raise ValueError(f"{name} must be a nonnegative integer or inf")
    trace = seq.total()
    cotrace = WeightSeq.one_minus(seq).total()

    def report(ok, kad=None, reason=None):
        return ProjectionDiagReport(ok, trace, cotrace, kad, reason)

    if (trace == math.inf) != (rank == math.inf):
        return report(False, reason="total weight does not match the rank")
    if trace != math.inf and abs(trace - rank) > INT_TOL:
        return report(False, reason="total weight does not match the rank")
    if (cotrace == math.inf) != (corank == math.inf):
        return report(False, reason="total defect does not match the corank")
    if cotrace != math.inf and abs(cotrace - corank) > INT_TOL:
        return report(False, reason="total defect does not match the corank")
    if rank == math.inf and corank == math.inf:
        kad = kadison_check(seq, tol=INT_TOL)
        if not kad.satisfied:
            return report(False, kad, "integrality test fails")
        return report(True, kad)
    return report(True)


# -- decomposition transforms -------------------------------------------

def _embed(term: RankOneTerm, dim: int, shift: int = 0) -> RankOneTerm:
    v = np.zeros(dim, dtype=complex)
    v[shift : shift + len(term.vector)] = term.vector
    return RankOneTerm(term.weight, v)


def adm_transform(
    d1: RankOneDecomp,
    d2: RankOneDecomp | None = None,
    mode: str = "direct-sum",
    t: float = 0.5,
    eta=None,
) -> RankOneDecomp:
    """Build a new decomposition from old ones.

    direct-sum: block-embed d1 and d2 into the orthogonal sum of their
    spaces.  convex-mix: scale d1 by t and d2 by 1 - t on a common space.
    split: replace each term (w, v) of d1 by (w eta_j, v) for a probability
    vector eta, leaving the frame operator unchanged."""
    if mode in ("direct-sum", "convex-mix"):
        if d2 is None:
            raise ValueError(f"{mode} needs a second decomposition")
        if mode == "direct-sum":
            n1, dim = d1.dim, d1.dim + d2.dim
            first = lambda x: _embed(x, dim)
            second = lambda x: _embed(x, dim, shift=n1)
        else:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"mixing weight must lie in [0, 1], got {t!r}")
            if d1.terms and d2.terms and d1.dim != d2.dim:
                raise DimensionError("convex-mix needs matching dimensions")
            first = lambda x: RankOneTerm(t * x.weight, x.vector)
            second = lambda x: RankOneTerm((1.0 - t) * x.weight, x.vector)
        return RankOneDecomp(
            tuple(map(first, d1.terms)) + tuple(map(second, d2.terms)),
            tuple(map(first, d1.remainder)) + tuple(map(second, d2.remainder)),
        )
    if mode == "split":
        if eta is None:
            raise ValueError("split needs a probability vector")
        parts = [float(e) for e in eta]
        if any(e < 0.0 for e in parts):
            raise ValueError("split weights must be nonnegative")
        if abs(math.fsum(parts) - 1.0) > SPLIT_SUM_TOL:
            raise ValueError("split weights must sum to one")
        terms = tuple(
            RankOneTerm(x.weight * e, x.vector) for x in d1.terms for e in parts
        )
        return RankOneDecomp(terms, d1.remainder)
    raise ValueError(f"unknown transform mode {mode!r}")
