"""Two-term mixing of rank-one projections and the finite Horn construction.

The 2x2 step rewrites eta1 u u* + eta2 u' u'* as xi1 w w* + xi2 w' w'* whenever
(xi1, xi2) sits between the etas with the same sum.  Chaining such steps over a
weight pool realizes any majorized target list, and in particular produces
Hermitian matrices with prescribed spectrum and diagonal.

A placement is decided in the weights alone (``_horn_schedule``: which pool
slot each target hits or peels, or which two it mixes).  Every mix takes its
coefficients and checks from one array core, ``_mix_coefficients``, which
needs only the weights and gamma = |<u, u'>|.  ``mix_two`` and
``horn_decompose`` call it on one-element arrays, one mix at a time; the
stage driver calls it once per run, on every block stage's mixes of real
coefficient rows with disjoint supports and every tail step's mix of a carry
with a fresh stream vector orthogonal to it, all with gamma = 0."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import count

from ._np import np
from .bridge import gram_matrix
from .errors import DimensionError, MajorizationError
from .operators import RankOneDecomp, RankOneTerm, frame_operator, unit_vector
from .seqkit import majorizes

PLACE_TOL = 1e-12  # a weight within it of a target or of zero counts as equal
PLACE_MAJORIZE_TOL = 1e-11  # a placement tests majorization at max(PLACE_TOL, this)
MIX_RESIDUAL_TOL = 1e-10
NEG_SQUARE_TOL = 1e-9  # a mixing square above -NEG_SQUARE_TOL clamps to 0
HORN_RESIDUAL_TOL = 1e-9  # scaled by the ambient dimension
TRACE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MixResult:
    """Outcome of one 2x2 mixing step.

    The coefficients express w = sigma u + tau u'' and w' = sigma' u + tau' u''
    where u'' is u' with its phase rotated to make gamma = <u, u'> real and
    nonnegative.  sigma^2 = z_minus, the stable root of the mixing quadratic,
    and z_minus <= z_o always.  ``residual`` bounds the mixing identity: it is
    (1 + gamma) ||x1 c c^T + x2 c' c'^T - diag(e1, e2)||_F for the coefficient
    columns c = (sigma, tau), c' = (sigma', tau'), and since the Gram matrix of
    {u, u''} has norm 1 + gamma it caps every entry of the dense residual
    x1 w w* + x2 w' w'* - e1 u u* - e2 u' u'*.
    """

    w: np.ndarray
    w_prime: np.ndarray
    sigma: float
    tau: float
    sigma_prime: float
    tau_prime: float
    z_minus: float
    z_o: float
    h: float
    alpha_coef: float
    gamma: float
    residual: float


def _mix_coefficients(e1, e2, x1, x2, gamma=0.0, check: bool = True):
    """The array core of every 2x2 mix: MixResult's (sigma, tau, sigma_prime,
    tau_prime, z_minus, z_o, h, alpha_coef, residual) as float64 arrays, one
    entry per mix of sources e1, e2 into targets x1, x2 (sequences of one
    length) of unit vectors with overlap gamma (a float or a float64 array).
    Each entry is the scalar step's IEEE expression taken elementwise, with
    ``math.hypot`` per entry, so it has its bits.  Every check is made here,
    with ``PLACE_TOL`` as it stands at the call; the first failing check of
    the first failing mix raises, with the scalar step's exception."""
    W = np.array((e1, e2, x1, x2), dtype=float).reshape(4, -1)
    e1, e2, x1, x2 = W
    tol, slack = PLACE_TOL, max(PLACE_TOL, TRACE_TOL)
    d12 = e1 - e2
    lo, hi = np.where(e2 < e1, e2, e1), np.where(e2 > e1, e2, e1)  # Python's min and max
    # targets that coincide with the sources, up to relabeling, move nothing;
    # swapped ones swap the vectors; every other step is generic
    off = np.abs(W[2:] - e1)
    coincide = (off[0] <= tol) | (np.abs(d12) <= tol)
    swap = ~coincide & (off[1] <= tol)
    generic = ~(coincide | swap)
    # each check's failures, one row per check in the scalar step's order
    fails = [W < -tol, (np.abs((x1 + x2) - (e1 + e2)) > TRACE_TOL)[None],
             ~((lo - slack <= W[2:]) & (W[2:] <= hi + slack)).all(axis=0, keepdims=True),
             generic & (W[2:] <= tol).any(axis=0, keepdims=True)]

    with np.errstate(all="ignore"):  # entries off the generic branch are discarded
        # generic step: one real quadratic fixes every coefficient
        e1_x2, x1_d12, d12_d12 = e1 - x2, x1 * d12, d12 * d12
        zo_over_e1 = e1_x2 / x1_d12
        z_o = e1 * zo_over_e1
        h = 4.0 * e1 * e2 * gamma * gamma / d12_d12
        alpha = d12 / e1_x2
        dsq = 4.0 * (alpha - 1.0) * h + alpha * alpha * h * h
        disc = np.sqrt(np.where(0.0 > dsq, 0.0, dsq))
        denom = 2.0 + alpha * h + disc
        z_minus = 2.0 * z_o / denom
        zm_over_e1 = 2.0 * zo_over_e1 / denom
        squares = np.array((dsq, z_minus, e2 * (1.0 / x1 - zm_over_e1), (e1 - x1 * z_minus) / x2,
                            (x1 * e2 / x2) * zm_over_e1))
        # a zero divisor, where Python float division raises, and a square
        # below -NEG_SQUARE_TOL, in the order the scalar step meets them
        zero = generic & (np.array((x1_d12, d12_d12, e1_x2, denom, x1, x2)) == 0.0)
        negative = generic & (squares < -NEG_SQUARE_TOL)
        fails += [zero[:3], negative[:1], zero[3:4], negative[1:2], zero[4:5], negative[2:3],
                  zero[5:], negative[3:]]
        roots = np.sqrt(np.where(0.0 > squares[1:], 0.0, squares[1:]))
        # the cross terms must carry the sign of e1 - e2 for w and w' to
        # come out unit vectors; the identity alone would allow either sign
        s = np.where(e1 > e2, 1.0, -1.0)
        G = np.array((roots[0], s * roots[1], roots[2], -s * roots[3], z_minus, z_o, h, alpha))
        # (sigma, tau, sigma', tau', z_minus, z_o, h, alpha) of the other branches
        G[:, coincide] = [[1.0], [0.0], [0.0], [1.0], [1.0], [1.0], [0.0], [0.0]]
        G[:, swap] = [[0.0], [1.0], [1.0], [0.0], [0.0], [0.0], [0.0], [0.0]]
        Y = G[:4].reshape(2, 2, -1)  # (sigma, tau) of w, (sigma', tau') of w'

        # the identity lives in span{u, u''}: check it on the coefficients,
        # with the Gram matrix [[1, gamma], [gamma, 1]] of that pair; x1 (sigma,
        # tau) terms and x2 (sigma', tau') ones side by side
        sq_terms, cross_terms = W[2:, None] * Y * Y, W[2:] * Y[:, 0] * Y[:, 1]
        diag = sq_terms[0] + sq_terms[1] - W[:2]
        cross = math.sqrt(2.0) * (cross_terms[0] + cross_terms[1])
        hyp = list(map(math.hypot, diag[0].tolist(), cross.tolist(), diag[1].tolist()))
        residual = (1.0 + gamma) * np.array(hyp, dtype=float)
        if check:
            a, b = Y[:, 0], Y[:, 1]  # (sigma, sigma'), (tau, tau')
            sq = a * a + b * b + 2.0 * gamma * a * b
            drift = np.abs(np.sqrt(np.where(0.0 > sq, 0.0, sq)) - 1.0)
            fails += [drift > MIX_RESIDUAL_TOL, (residual > MIX_RESIDUAL_TOL)[None]]

    failed = np.concatenate(fails)
    if failed.any():
        i = int(failed.any(axis=0).argmax())
        e1, e2, x1, x2 = W[:, i].tolist()
        Maj, Val, zero = MajorizationError, ValueError, (ZeroDivisionError, "float division by zero")
        neg = [(Val, f"mixing produced a negative square ({v:.3e})") for v in squares[:, i].tolist()]
        errors = [  # one per row of failed
            *((Maj, f"weights must be nonnegative, got {v!r}") for v in (e1, e2, x1, x2)),
            (Maj, f"target weights {x1!r} + {x2!r} do not preserve the trace {e1 + e2!r}"),
            (Maj, f"targets ({x1!r}, {x2!r}) must lie between the sources ({e1!r}, {e2!r})"),
            (Maj, f"vanishing target weight ({x1!r}, {x2!r}) needs a matching source weight"),
            zero, zero, zero, neg[0], zero, neg[1], zero, neg[2], zero, neg[3], neg[4],
            *((Val, f"mixed vector norm drifted by {d:.3e}") for d in (drift[:, i].tolist() if check else ())),
            (Val, f"mixing identity residual {residual[i]:.3e} exceeds tolerance"),
        ]
        kind, text = errors[int(failed[:, i].argmax())]
        raise kind(text)
    return (*G, residual)


def mix_two(eta1, eta2, u, u_prime, xi1, xi2, check: bool = True) -> MixResult:
    """Rewrite eta1 u u* + eta2 u' u'* as xi1 w w* + xi2 w' w'*.

    Requires xi1 + xi2 = eta1 + eta2 and both xis between min(eta) and
    max(eta); u and u' are unit vectors with arbitrary overlap.  The
    coefficients, and every check, come from the array core
    ``_mix_coefficients``, called on one-element arrays; here they are
    applied to u and to u'' = u' turned so that <u, u''> is real.  Weights
    within ``PLACE_TOL``, as it stands at the call, count as equal;
    ``check=False`` skips the norm and identity checks.  Bad vectors are
    refused before bad weights.
    """
    u = unit_vector(u)
    up = unit_vector(u_prime)
    if u.shape != up.shape:
        raise DimensionError("mixing vectors must share a dimension")
    overlap = complex(np.vdot(u, up))
    gamma = min(abs(overlap), 1.0)
    # u'' = u' turned so that <u, u''> = gamma; the factor comes from the
    # angle, so it has modulus 1 even when the overlap is subnormal
    up_rot = up * np.exp(-1j * np.angle(overlap)) if overlap else up
    c = [float(v[0]) for v in _mix_coefficients([eta1], [eta2], [xi1], [xi2], gamma, check)]
    sigma, tau, sigma_p, tau_p = c[:4]
    return MixResult(sigma * u + tau * up_rot, sigma_p * u + tau_p * up_rot, *c[:8], gamma, c[8])


def _coerce_terms(source_terms) -> list[RankOneTerm]:
    pairs = ((t.weight, t.vector) if isinstance(t, RankOneTerm) else t for t in source_terms)
    return [RankOneTerm(float(w), unit_vector(v)) for w, v in pairs]


def horn_decompose(source_terms, target_weights) -> RankOneDecomp:
    """Rewrite sum eta_i u_i u_i* with the prescribed weights.

    ``target_weights`` must be majorized by the source weights (zero-padding
    the shorter list); the result's terms carry exactly the given weights, in
    the given order, and sum to the same operator, which is checked here.
    """
    pool = _coerce_terms(source_terms)
    decomp = RankOneDecomp(tuple(_place_vectors(pool, target_weights)))
    dim = len(pool[0].vector)
    _checked(decomp.frame_operator(dim) - frame_operator(pool, dim=dim))
    return decomp


def _checked(R: np.ndarray) -> np.ndarray:
    """R, a k x k residual, once no entry exceeds HORN_RESIDUAL_TOL * max(1, k)."""
    dev = float(np.max(np.abs(R)))
    if dev > HORN_RESIDUAL_TOL * max(1, R.shape[0]):
        raise ValueError(f"reconstruction residual {dev:.3e} exceeds tolerance")
    return R


def _place_vectors(pool: list[RankOneTerm], target_weights) -> list[RankOneTerm]:
    """horn_decompose's placement, without its reconstruction check: one
    ``mix_two`` per mix as the schedule reaches it, since its overlap gamma
    depends on the vectors earlier mixes made."""
    targets = [float(t) for t in target_weights]
    vectors = [p.vector for p in pool]
    placed: list[RankOneTerm | None] = [None] * len(targets)
    dim = len(vectors[0]) if vectors else 0
    for idx, slot, mix in _horn_schedule([p.weight for p in pool], targets, dim):
        if mix is not None:
            sa, sb, a, b, t = mix
            res = mix_two(a, b, vectors[sa], vectors[sb], t, a + b - t)
            vectors += (res.w, res.w_prime)
        placed[idx] = RankOneTerm(targets[idx], vectors[slot])
    return placed


def _horn_schedule(weights, targets, dim: int, verdict=None):
    """The placement of ``targets`` against pool ``weights``, decided in the
    weights alone: yields (target index, slot, mix) per target, largest first,
    where the target takes the vector in ``slot``.  Slots below len(weights)
    are the pool's; the j-th mix, (slot a, slot b, a, b, t) with a >= t > b,
    makes slot len(weights) + 2j, the target's vector, and the next, its
    remainder of weight a + b - t; mix is None for every other target.
    ``dim`` scales the unconsumed-weight check.  A ``verdict`` on these
    weights at a tolerance of at most ``max(PLACE_TOL, PLACE_MAJORIZE_TOL)``
    that holds is not tested again.  A target within ``PLACE_TOL`` of a pool
    weight takes that slot; otherwise it mixes the nearest weights above (>=
    t) and below (< t), or is peeled off the smallest, which keeps its slot,
    when nothing lies below.  The pool is a list of (weight, slot) kept
    sorted, so every choice is a bisection and ties go to the earliest slot."""
    if any(t < 0.0 for t in targets):
        raise MajorizationError("target weights must be nonnegative")
    if not weights:
        raise DimensionError("need at least one source term")
    if verdict is None or not verdict.holds:
        verdict = majorizes(targets, weights, tol=max(PLACE_TOL, PLACE_MAJORIZE_TOL))
    if not verdict.holds:
        raise MajorizationError(
            "source weights do not majorize the targets"
            + (f" (partial sums cross at position {verdict.failing_index})"
               if verdict.failing_index else f" (totals differ by {verdict.sum_gap:.3e})"),
            failing_index=verdict.failing_index,
        )

    work = sorted((w, i) for i, w in enumerate(weights) if w > PLACE_TOL)
    made = count(len(weights), 2)  # the slot of each mix's target vector
    order = sorted(range(len(targets)), key=lambda i: (-targets[i], i))
    # weight that leaves the pool but counted in the majorization: entries of
    # at most PLACE_TOL, what hits within it take beyond their target, and mix
    # remainders of at most PLACE_TOL
    lost = math.fsum(w for w in weights if w <= PLACE_TOL)

    for idx in order:
        t = targets[idx]
        if t <= PLACE_TOL:  # along the anchor, the first pool vector
            yield idx, 0, None
            continue
        hit = _earliest_hit(work, t)
        if hit is not None:
            w, slot = work.pop(hit)
            lost += max(w - t, 0.0)
            yield idx, slot, None
            continue
        ka = bisect_left(work, (t,))  # the smallest weight >= t
        if ka == len(work):
            # a shortfall the lost weight makes up takes the largest entry
            # left, or the anchor once none is
            top = work[-1][0] if work else 0.0
            if t - top > PLACE_TOL + lost:
                raise MajorizationError(
                    f"no source weight reaches the target {t!r}; majorization bookkeeping broke"
                )
            yield idx, work.pop(bisect_left(work, (top,)))[1] if work else 0, None
            continue
        a, sa = work[ka]
        if ka == 0:
            # every pool weight exceeds the largest remaining target: peel
            # the target off the smallest entry along its own direction; what
            # is left is still the smallest, so it keeps its place
            work[0] = (a - t, sa)
            yield idx, sa, None
            continue
        kb = bisect_left(work, (work[ka - 1][0],), 0, ka)  # the largest weight < t
        b, sb = work[kb]
        slot = next(made)
        del work[ka], work[kb]  # kb < ka, so kb's index survives the first deletion
        if a + b - t > PLACE_TOL:
            insort(work, (a + b - t, slot + 1))
        else:
            lost += a + b - t
        yield idx, slot, (sa, sb, a, b, t)

    leftover = math.fsum(e[0] for e in work)
    if abs(leftover) > HORN_RESIDUAL_TOL * max(1, dim):
        raise MajorizationError(f"unconsumed source weight {leftover:.3e} after placement")


def _earliest_hit(work, t: float) -> int | None:
    """Index in the sorted pool of the earliest-arriving entry with
    abs(w - t) <= PLACE_TOL, or None.  Every such w lies within 2 PLACE_TOL of
    t, even when w - t rounds, so only that window is searched, one weight at
    a time: the first entry of each weight arrived earliest."""
    end = bisect_right(work, (t + 2.0 * PLACE_TOL, math.inf))
    i = bisect_left(work, (t - 2.0 * PLACE_TOL,))
    best = None
    while i < end:
        w, arrival = work[i][:2]
        if abs(w - t) <= PLACE_TOL and (best is None or arrival < work[best][1]):
            best = i
        i = bisect_right(work, (w, math.inf), i, end)
    return best


def schur_horn_matrix(eigenvalues, diagonal) -> np.ndarray:
    """Hermitian matrix with the given spectrum and diagonal.

    The diagonal must be majorized by the eigenvalue list (zero-padding the
    shorter one).  Built by placing the diagonal weights against the spectral
    basis and taking the Gram matrix of the scaled placement vectors.
    """
    lam = [float(v) for v in eigenvalues]
    xi = [float(v) for v in diagonal]
    n = len(lam)
    if n == 0 or not xi:
        raise DimensionError("need at least one eigenvalue and one diagonal entry")
    basis = np.eye(n, dtype=complex)
    sources = [RankOneTerm(lam[i], basis[:, i]) for i in range(n)]
    return gram_matrix(horn_decompose(sources, xi))
