"""Two-term mixing of rank-one projections and the finite Horn construction.

The 2x2 step rewrites eta1 u u* + eta2 u' u'* as xi1 w w* + xi2 w' w'* whenever
(xi1, xi2) sits between the etas with the same sum.  Chaining such steps over a
weight pool realizes any majorized target list, and in particular produces
Hermitian matrices with prescribed spectrum and diagonal.

Every mix takes its coefficients, and passes its checks, in one scalar core,
``_mix_coefficients``, which needs only the weights and gamma = |<u, u'>|.
``mix_two`` applies them to vectors; a block stage's placement applies them
to real coefficient rows, whose supports are disjoint, and a tail step to a
carry and a fresh stream vector orthogonal to it, so both take gamma = 0."""

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


def _sqrt_clamped(x: float) -> float:
    if x < -NEG_SQUARE_TOL:
        raise ValueError(f"mixing produced a negative square ({x:.3e})")
    return math.sqrt(max(x, 0.0))


def _mix_coefficients(e1, e2, x1, x2, gamma: float, tol: float = PLACE_TOL, check: bool = True):
    """The scalar core of every 2x2 mix: MixResult's (sigma, tau, sigma_prime,
    tau_prime, z_minus, z_o, h, alpha_coef, residual) for unit vectors whose
    overlap has modulus gamma.  Every check of the step is made here."""
    e1, e2, x1, x2 = float(e1), float(e2), float(x1), float(x2)
    for v in (e1, e2, x1, x2):
        if v < -tol:
            raise MajorizationError(f"weights must be nonnegative, got {v!r}")
    if abs((x1 + x2) - (e1 + e2)) > TRACE_TOL:
        raise MajorizationError(
            f"target weights {x1!r} + {x2!r} do not preserve the trace {e1 + e2!r}"
        )
    lo, hi = min(e1, e2), max(e1, e2)
    slack = max(tol, TRACE_TOL)
    if not (lo - slack <= x1 <= hi + slack and lo - slack <= x2 <= hi + slack):
        raise MajorizationError(
            f"targets ({x1!r}, {x2!r}) must lie between the sources ({e1!r}, {e2!r})"
        )

    if abs(x1 - e1) <= tol or abs(e1 - e2) <= tol:
        # targets coincide with sources (up to relabeling nothing moves)
        sigma, tau, sigma_p, tau_p = 1.0, 0.0, 0.0, 1.0
        z_minus = z_o = 1.0
        h = alpha = 0.0
    elif abs(x2 - e1) <= tol:
        # targets are the sources swapped
        sigma, tau, sigma_p, tau_p = 0.0, 1.0, 1.0, 0.0
        z_minus = z_o = 0.0
        h = alpha = 0.0
    else:
        if x1 <= tol or x2 <= tol:
            raise MajorizationError(
                f"vanishing target weight ({x1!r}, {x2!r}) needs a matching source weight"
            )
        # generic step: one real quadratic fixes every coefficient
        zo_over_e1 = (e1 - x2) / (x1 * (e1 - e2))
        z_o = e1 * zo_over_e1
        h = 4.0 * e1 * e2 * gamma * gamma / ((e1 - e2) * (e1 - e2))
        alpha = (e1 - e2) / (e1 - x2)
        disc = _sqrt_clamped(4.0 * (alpha - 1.0) * h + alpha * alpha * h * h)
        denom = 2.0 + alpha * h + disc
        z_minus = 2.0 * z_o / denom
        zm_over_e1 = 2.0 * zo_over_e1 / denom
        # the cross terms must carry the sign of e1 - e2 for w and w' to
        # come out unit vectors; the identity alone would allow either sign
        s = 1.0 if e1 > e2 else -1.0
        sigma = _sqrt_clamped(z_minus)
        tau = s * _sqrt_clamped(e2 * (1.0 / x1 - zm_over_e1))
        sigma_p = _sqrt_clamped((e1 - x1 * z_minus) / x2)
        tau_p = -s * _sqrt_clamped((x1 * e2 / x2) * zm_over_e1)

    # the identity lives in span{u, u''}: check it on the coefficients, with
    # the Gram matrix [[1, gamma], [gamma, 1]] of that pair
    residual = (1.0 + gamma) * math.hypot(
        x1 * sigma * sigma + x2 * sigma_p * sigma_p - e1,
        math.sqrt(2.0) * (x1 * sigma * tau + x2 * sigma_p * tau_p),
        x1 * tau * tau + x2 * tau_p * tau_p - e2,
    )
    if check:
        for a, b in ((sigma, tau), (sigma_p, tau_p)):
            drift = abs(math.sqrt(max(a * a + b * b + 2.0 * gamma * a * b, 0.0)) - 1.0)
            if drift > MIX_RESIDUAL_TOL:
                raise ValueError(f"mixed vector norm drifted by {drift:.3e}")
        if residual > MIX_RESIDUAL_TOL:
            raise ValueError(f"mixing identity residual {residual:.3e} exceeds tolerance")
    return sigma, tau, sigma_p, tau_p, z_minus, z_o, h, alpha, residual


def mix_two(eta1, eta2, u, u_prime, xi1, xi2, tol: float = PLACE_TOL, check: bool = True) -> MixResult:
    """Rewrite eta1 u u* + eta2 u' u'* as xi1 w w* + xi2 w' w'*.

    Requires xi1 + xi2 = eta1 + eta2 and both xis between min(eta) and
    max(eta); u and u' are unit vectors with arbitrary overlap.  The
    coefficients, and every check, come from the scalar core
    ``_mix_coefficients`` that block stages and tail steps call directly;
    here they are applied to u and to u'' = u' turned so that <u, u''> is
    real.  Bad vectors are refused before bad weights.
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
    c = _mix_coefficients(eta1, eta2, xi1, xi2, gamma, tol, check)
    sigma, tau, sigma_p, tau_p = c[:4]
    return MixResult(sigma * u + tau * up_rot, sigma_p * u + tau_p * up_rot, *c[:8], gamma, c[8])


def _mix_vectors(a, b, ua, na, ub, nb, t):
    """A placement's 2x2 step on unit vectors (their norms na, nb unused)."""
    res = mix_two(a, b, ua, ub, t, a + b - t, tol=PLACE_TOL)
    return res.w, res.w_prime, 1.0


def _mix_rows(a, b, ua, na, ub, nb, t):
    """A placement's 2x2 step on real coefficient rows ua, ub standing for the
    unit vectors ua / na, ub / nb.  Every pool row of a block stage has a
    support disjoint from the rest, so gamma = 0 exactly: two axpys, and the
    new remainder's norm is that of its coefficients."""
    sigma, tau, sigma_p, tau_p = _mix_coefficients(a, b, t, a + b - t, 0.0, PLACE_TOL)[:4]
    w = (sigma / na) * ua + (tau / nb) * ub
    return w, (sigma_p / na) * ua + (tau_p / nb) * ub, math.hypot(sigma_p, tau_p)


def _coerce_terms(source_terms) -> list[RankOneTerm]:
    out = []
    for t in source_terms:
        if isinstance(t, RankOneTerm):
            out.append(RankOneTerm(float(t.weight), unit_vector(t.vector)))
        else:
            w, v = t
            out.append(RankOneTerm(float(w), unit_vector(v)))
    return out


def horn_decompose(source_terms, target_weights) -> RankOneDecomp:
    """Rewrite sum eta_i u_i u_i* with the prescribed weights.

    ``target_weights`` must be majorized by the source weights (zero-padding
    the shorter list); the result's terms carry exactly the given weights, in
    the given order, and sum to the same operator, which is checked here.
    """
    pool = _coerce_terms(source_terms)
    decomp = RankOneDecomp(tuple(_horn_place(pool, target_weights)))
    dim = len(pool[0].vector)
    _checked(decomp.frame_operator(dim) - frame_operator(pool, dim=dim))
    return decomp


def _checked(R: np.ndarray) -> np.ndarray:
    """R, a k x k residual, once no entry exceeds HORN_RESIDUAL_TOL * max(1, k)."""
    dev = float(np.max(np.abs(R)))
    if dev > HORN_RESIDUAL_TOL * max(1, R.shape[0]):
        raise ValueError(f"reconstruction residual {dev:.3e} exceeds tolerance")
    return R


def _horn_place(
    pool: list[RankOneTerm], target_weights, *, verdict=None, mix=_mix_vectors
) -> list[RankOneTerm]:
    """horn_decompose's placement of unit-vector pool terms, without its
    reconstruction check: the caller checks the identity.  ``mix`` is the
    2x2 step, the loop's only varying part: ``_mix_vectors`` for unit vectors,
    ``_mix_rows`` for a block stage's coefficient rows.  A caller that has
    already tested the majorization of these targets by these pool weights at
    a tolerance of at most ``max(PLACE_TOL, PLACE_MAJORIZE_TOL)`` passes its
    ``verdict``; a holding one is not tested again.

    Targets are placed largest first.  A target within ``PLACE_TOL`` of a
    pool weight takes that entry's vector; otherwise it is mixed from the
    nearest weights above (``>= t``) and below (``< t``), or peeled off the
    smallest entry when nothing lies below.  The pool is a list sorted by (weight,
    arrival), where arrival numbers the source terms in order and each mixed
    remainder after them, so every choice is a bisection and ties go to the
    earliest arrival: O(log k) comparisons per target, plus the list's
    inserts and deletes.  Each entry's norm is kept beside it, 1 for the
    pool and whatever ``mix`` reports for a remainder."""
    targets = [float(t) for t in target_weights]
    if any(t < 0.0 for t in targets):
        raise MajorizationError("target weights must be nonnegative")
    if not pool:
        raise DimensionError("need at least one source term")
    dim = len(pool[0].vector)
    if verdict is None or not verdict.holds:
        verdict = majorizes(
            targets, [p.weight for p in pool], tol=max(PLACE_TOL, PLACE_MAJORIZE_TOL)
        )
    if not verdict.holds:
        raise MajorizationError(
            "source weights do not majorize the targets"
            + (f" (partial sums cross at position {verdict.failing_index})"
               if verdict.failing_index else f" (totals differ by {verdict.sum_gap:.3e})"),
            failing_index=verdict.failing_index,
        )

    anchor = pool[0].vector
    # (weight, arrival, vector, norm); arrivals are distinct, so vectors are never compared
    work = sorted((p.weight, i, p.vector, 1.0) for i, p in enumerate(pool) if p.weight > PLACE_TOL)
    arrivals = count(len(pool))
    order = sorted(range(len(targets)), key=lambda i: (-targets[i], i))
    placed: list[RankOneTerm | None] = [None] * len(targets)
    # weight that leaves the pool but counted in the majorization: entries of
    # at most PLACE_TOL, what hits within it take beyond their target, and mix
    # remainders of at most PLACE_TOL
    lost = math.fsum(p.weight for p in pool if p.weight <= PLACE_TOL)

    for idx in order:
        t = targets[idx]
        if t <= PLACE_TOL:
            placed[idx] = RankOneTerm(t, anchor)
            continue
        hit = _earliest_hit(work, t)
        if hit is not None:
            w, _, v, _ = work.pop(hit)
            lost += max(w - t, 0.0)
            placed[idx] = RankOneTerm(t, v)
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
            placed[idx] = RankOneTerm(t, work.pop(bisect_left(work, (top,)))[2] if work else anchor)
            continue
        a, arrival, ua, na = work[ka]
        if ka == 0:
            # every pool weight exceeds the largest remaining target: peel
            # the target off the smallest entry along its own direction; what
            # is left is still the smallest, so it keeps its place
            placed[idx] = RankOneTerm(t, ua)
            work[0] = (a - t, arrival, ua, na)
            continue
        kb = bisect_left(work, (work[ka - 1][0],), 0, ka)  # the largest weight < t
        b, _, ub, nb = work[kb]
        w, w_prime, n_prime = mix(a, b, ua, na, ub, nb, t)
        placed[idx] = RankOneTerm(t, w)
        del work[ka], work[kb]  # kb < ka, so kb's index survives the first deletion
        if a + b - t > PLACE_TOL:
            insort(work, (a + b - t, next(arrivals), w_prime, n_prime))
        else:
            lost += a + b - t

    leftover = math.fsum(e[0] for e in work)
    if abs(leftover) > HORN_RESIDUAL_TOL * max(1, dim):
        raise MajorizationError(f"unconsumed source weight {leftover:.3e} after placement")
    return placed


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
