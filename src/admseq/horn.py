"""Two-term mixing of rank-one projections and the finite Horn construction.

The 2x2 step rewrites eta1 u u* + eta2 u' u'* as xi1 w w* + xi2 w' w'* whenever
(xi1, xi2) sits between the etas with the same sum.  Chaining such steps over a
weight pool realizes any majorized target list, and in particular produces
Hermitian matrices with prescribed spectrum and diagonal.

A finite placement is three passes over a run of block stages.
``_schedule`` decides every stage in its weights alone (which pool slot each
target hits or peels, or which two it mixes); ``_place_rows`` mixes real
coefficient rows over each stage's basis of R^k in one call of the array
core ``_mix_coefficients``, with gamma = 0; ``_block_stages`` certifies each
stage once, C^T diag(x) C = diag(shares) in R^k, and writes the rows of C E.
The stage driver's block stages take them, and so do the finite-rank stage
and ``horn_decompose`` (against its pool's spectrum, on the eigenbasis of
its operator), each one stage.  ``mix_two`` calls the core on one-element
arrays, with any overlap gamma."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from ._np import np
from .bridge import gram_matrix
from .errors import AdmseqError, DimensionError, MajorizationError
from .operators import RankOneDecomp, RankOneTerm, _real_if_imag_zero, unit_vector
from .seqkit import _validated, majorizes

PLACE_TOL = 1e-12  # a weight within it of a target or of zero counts as equal
PLACE_MAJORIZE_TOL = 1e-11  # a placement tests majorization at max(PLACE_TOL, this)
MIX_RESIDUAL_TOL = 1e-10
NEG_SQUARE_TOL = 1e-9  # a mixing square above -NEG_SQUARE_TOL clamps to 0
HORN_RESIDUAL_TOL = 1e-9  # scaled by a stage's dimension k
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
    max(eta); u and u' are unit vectors with arbitrary overlap.  This is the
    2x2 lemma itself; placements mix coefficient rows instead.  The
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

    ``target_weights`` must be majorized by the operator's spectrum lambda =
    s^2 (zero-padding the shorter list), which majorizes the source weights,
    for the thin SVD B = P S W* of B, whose rows are sqrt(eta_i) u_i*.  They
    are placed against lambda on real coefficient rows C as one block stage,
    certified against diag(lambda) in R^k; the terms, the rows of C conj(W*),
    carry the given weights in the given order and sum to B* B.
    """
    pool = _coerce_terms(source_terms)
    targets = [float(t) for t in target_weights]
    _refuse_early(targets, pool)
    eta = np.array(_validated([p.weight for p in pool])[0])
    B = _real_if_imag_zero(np.sqrt(eta)[:, None] * np.array([p.vector for p in pool]).conj())
    _, s, Wh = np.linalg.svd(B, full_matrices=False)
    lam, (k, dim) = s * s, Wh.shape
    rows = np.zeros((len(targets), dim), dtype=complex)
    _place_stage(targets, len(targets), lam.tolist(), range(k), lam, np.zeros(k, dtype=np.intp), Wh.conj(), rows)
    return RankOneDecomp._of_rows(rows, targets, len(targets))


def _place_stage(x, m, weights, rows, shares, starts, entries, out) -> float:
    """One block stage through the three passes on the basis of R^k, k =
    len(shares): the first m weights of ``x`` placed against ``weights``, on
    ``rows`` as ``_schedule`` takes them, then certified and embedded into
    ``out`` by ``_block_stages``.  Returns the identity's Frobenius norm."""
    k = len(shares)
    takes, mixes, counts, refusal = _schedule([x[:m]], [weights], [rows], [k])
    if refusal is not None:
        raise refusal
    store, _ = _place_rows([k], counts, mixes)
    return _block_stages(np.array(x), shares, store, np.array(takes, dtype=np.intp), [len(x)], [k],
                         starts, entries, out)[0]


def _check_residuals(devs, ks) -> None:
    """Refuse the first of k x k residuals, the largest magnitude of whose
    entries is devs[i] for k = ks[i], that exceeds HORN_RESIDUAL_TOL * max(1, k)."""
    for dev, k in zip(devs, ks):
        if dev > HORN_RESIDUAL_TOL * max(1, k):
            raise ValueError(f"reconstruction residual {dev:.3e} exceeds tolerance")


def _refuse_early(targets, weights) -> None:
    """The refusals a placement makes before it tests majorization."""
    if any(t < 0.0 for t in targets):
        raise MajorizationError("target weights must be nonnegative")
    if not weights:
        raise DimensionError("need at least one source term")


def _schedule(targets, pools, rows, ks, verdicts=None):
    """Every stage of a run placed in its weights alone, in one pass.  Stage i
    places ``targets[i]`` against the pool weights ``pools[i]`` on its basis
    of ks[i] vectors.  Rows are numbered in one store for the whole run: the
    stages' bases first, stage by stage, then two rows per mix in the order
    they are made, the target's and the remainder's; ``rows[i]`` holds the
    basis row of each pool slot of stage i, then of each further term of the
    stage, which lies along it.  A ``verdicts[i]`` on these weights at a
    tolerance of at most ``max(PLACE_TOL, PLACE_MAJORIZE_TOL)`` that holds is
    not tested again.  Returns the row each term takes, stage by stage (the
    targets, then the further terms); every mix, flat, as (row a, row b, a,
    b, t) with a >= t > b, its remainder of weight a + b - t; the mixes of
    each stage scheduled; and the first refusal, or None, with every stage
    before it scheduled.

    Targets go largest first.  A target within ``PLACE_TOL`` of a pool weight
    takes that slot; otherwise it mixes the nearest weights above (>= t) and
    below (< t), or is peeled off the smallest, which keeps its slot, when
    nothing lies below.  A live pool is two parallel lists, weights sorted and
    their slots, so every choice is a bisection on floats; slots count pool
    entries first and then two per mix, so ties go to the earliest slot."""
    tol, major_tol = PLACE_TOL, max(PLACE_TOL, PLACE_MAJORIZE_TOL)
    takes, mixes, counts, made = [], [], [], sum(ks)  # made: the next mix's target row
    for ts, weights, prow, k, verdict in zip(targets, pools, rows, ks, verdicts or [None] * len(targets)):
        n, q, taken = len(weights), len(mixes), [0] * len(ts)
        row = list(prow[:n])  # each slot's row: the pool's, then two per mix
        try:
            if ts or weights:  # with neither, only terms along the basis
                _refuse_early(ts, weights)
                if verdict is None or not verdict.holds:
                    verdict = majorizes(ts, weights, tol=major_tol)
                if not verdict.holds:
                    cross = verdict.failing_index
                    raise MajorizationError("source weights do not majorize the targets" + (
                        f" (partial sums cross at position {cross})" if cross
                        else f" (totals differ by {verdict.sum_gap:.3e})"), failing_index=cross)
                slots = sorted(range(n), key=weights.__getitem__)
                live = [weights[j] for j in slots]
                # weight that leaves the pool but counts in the majorization: entries of at
                # most tol and what hits take beyond their target
                j = bisect_right(live, tol)
                lost = math.fsum(live[:j])
                del live[:j], slots[:j]
                for idx in sorted(range(len(ts)), key=ts.__getitem__, reverse=True):
                    t = ts[idx]
                    if t <= tol:  # along the anchor, the first pool vector
                        taken[idx] = row[0]
                        continue
                    ka = bisect_left(live, t)  # the smallest weight >= t
                    if (ka < len(live) and live[ka] <= t + 2.0 * tol) or (ka and live[ka - 1] >= t - 2.0 * tol):
                        # the earliest slot within tol of t: every such weight lies within 2 tol
                        # of t, even when w - t rounds; the first of each weight arrived earliest
                        hit, j = None, bisect_left(live, t - 2.0 * tol, 0, ka)
                        end = bisect_right(live, t + 2.0 * tol, ka)
                        while j < end:
                            w = live[j]
                            if abs(w - t) <= tol and (hit is None or slots[j] < slots[hit]):
                                hit = j
                            j = bisect_right(live, w, j, end)
                        if hit is not None:
                            lost += max(live.pop(hit) - t, 0.0)
                            taken[idx] = row[slots.pop(hit)]
                            continue
                    if ka == len(live):  # a shortfall within the lost weight and the
                        # majorization's slack takes the largest entry left, or the anchor
                        top = live[-1] if live else 0.0
                        if t - top > major_tol + lost:
                            raise MajorizationError(
                                f"no source weight reaches the target {t!r}; majorization bookkeeping broke"
                            )
                        j = bisect_left(live, top)
                        taken[idx] = row[slots.pop(j)] if live else row[0]
                        del live[j : j + 1]
                        continue
                    a, sa = live[ka], slots[ka]
                    if ka == 0:  # every weight exceeds the largest target left: peel it off
                        # the smallest along its own direction, which is still the smallest
                        live[0] = a - t
                        taken[idx] = row[sa]
                        continue
                    kb = bisect_left(live, live[ka - 1], 0, ka)  # the largest weight < t
                    b, sb = live[kb], slots[kb]
                    del live[ka], slots[ka], live[kb], slots[kb]  # kb < ka
                    j = bisect_right(live, a + b - t)  # after every earlier slot of its weight
                    live.insert(j, a + b - t)
                    slots.insert(j, len(row) + 1)
                    mixes += (row[sa], row[sb], a, b, t)
                    taken[idx] = made
                    row += (made, made + 1)
                    made += 2
                leftover = math.fsum(live)
                if abs(leftover) > HORN_RESIDUAL_TOL * max(1, k):
                    raise MajorizationError(f"unconsumed source weight {leftover:.3e} after placement")
        except AdmseqError as exc:
            del mixes[q:]
            return takes, mixes, counts, exc
        takes += taken
        takes += prow[n:]
        counts.append((len(mixes) - q) // 5)
    return takes, mixes, counts, None


def _place_rows(ks, counts, mixes, tails=()):
    """Every 2x2 mix of a run in one call of the array core, gamma = 0: the
    block stages' ``mixes``, ``counts`` per stage, as ``_schedule`` gives them
    for stages on bases of ``ks`` vectors, then the tail steps' (e1, e2, x1,
    x2).  Returns the store of the block stages' rows, as long as the largest
    k (each stage's basis rows, zero beyond its own k, then two per mix), and
    per tail step (sigma, tau, sigma', tau', residual).  The q-th mixes of
    all stages run at once: rows a and b, of norms na and nb (1, or
    hypot(sigma', tau') of the mix that made them), are gathered, and (sigma
    / na) a + (tau / nb) b and (sigma' / na) a + (tau' / nb) b scattered."""
    ks, counts = np.asarray(ks, dtype=np.intp), np.asarray(counts, dtype=np.intp)
    B, n = int(ks.sum()), len(mixes) // 5
    mixes = np.array(mixes, dtype=float).reshape(n, 5).T
    a, b, t = mixes[2:]
    tails = np.array(list(zip(*tails)) or [()] * 4, dtype=float)
    coef = np.array(_mix_coefficients(*np.concatenate(((a, b, t, (a + b) - t), tails), axis=1)))
    store = np.zeros((B + 2 * n, ks.max(initial=0)))
    store[np.arange(B), np.arange(B) - (ks.cumsum() - ks).repeat(ks)] = 1.0  # each basis row, in its stage's column
    q = np.arange(n) - (counts.cumsum() - counts).repeat(counts)  # each mix's index in its stage
    R = np.array((*mixes[:2].astype(np.intp), B + 2 * np.arange(n), B + 1 + 2 * np.arange(n)))  # a, b; w, w'
    norm = np.ones(len(store))
    norm[R[3]] = list(map(math.hypot, *coef[2:4, :n].tolist()))
    order = q.argsort(kind="stable")  # lockstep: the q-th mixes of all stages
    R = R[:, order]
    # (sigma / na, tau / nb) and (sigma' / na, tau' / nb) per mix
    M, R = coef[:4, order].reshape(2, 2, -1) / norm[R[:2]], R.reshape(2, 2, -1)
    bounds = [0, *np.bincount(q).cumsum().tolist()]
    for lo, hi in zip(bounds, bounds[1:]):
        m, U = M[..., lo:hi, None], store[R[0, :, lo:hi]]
        store[R[1, :, lo:hi]] = m[:, 0] * U[0] + m[:, 1] * U[1]
    return store, coef[[0, 1, 2, 3, 8], n:]


def _windows(a: np.ndarray, m: int, w: int) -> np.ndarray:
    """Every m x w window of the C-contiguous 2-D array ``a``, by its top-left
    corner, as a view; a write to windows that do not overlap lands in ``a``."""
    (r, c), (sr, sc) = a.shape, a.strides
    return np.ndarray((r - m + 1, c - w + 1, m, w), a.dtype, a, 0, (sr, sc, sr, sc))


def _block_stages(x, shares, store, terms, ms, ks, starts, entries, out):
    """Every block stage of a run in one array pass.  Stage i has ms[i] terms
    and ks[i] stream vectors, stage by stage: the terms' weights ``x`` and
    rows ``terms`` of ``store``, whose first ks[i] columns are its m x k
    coefficient matrix C, and the vectors' ``shares`` and supports,
    ``starts`` and ``entries``, as ``VectorStream._supports`` gives them.
    Stages of one shape, (m, k, w) for the w columns their stream vectors
    cover, are stacked: their identities C^T diag(x) C - diag(shares) are
    formed by one product, and the rows of C E, E the stream vectors over
    those columns, by another, written into ``out``, zero and one row per
    term in stage order.  Each identity is checked once, the earliest
    failing stage raising.  Returns the identities' Frobenius norms."""
    at, first = np.array(((0, *accumulate(ms)), (0, *accumulate(ks))), dtype=np.intp)
    L = entries.shape[1]  # each vector's entries from its first column
    lo = starts[first[:-1]]  # each stage's first column, and how many it covers
    w = starts[first[1:] - 1] - lo + L
    shape = (np.array(ms, dtype=np.intp) * (max(ks, default=0) + 1) + ks) * (int(w.max(initial=0)) + 1) + w
    order = shape.argsort(kind="stable")  # the stages of each shape together, in stage order
    shape = shape[order]
    bounds = [0, *(np.flatnonzero(shape[1:] != shape[:-1]) + 1).tolist(), len(ms)]
    norms, devs, grid = np.empty(len(ms)), np.empty(len(ms)), out.view(np.float64)
    for g0, g1 in zip(bounds, bounds[1:] if len(ms) else ()):
        idx = order[g0:g1]
        i, G = int(idx[0]), g1 - g0
        m, k, wd = ms[i], ks[i], int(w[i])
        if G == 1:  # a stage of its own shape: its terms and vectors by slices, C E straight into its window
            t, p = slice(at[i], at[i] + m), slice(first[i], first[i] + k)
        else:  # their terms and vectors, stage by stage
            t, p = at[idx, None] + np.arange(m), first[idx, None] + np.arange(k)
        C = store[:, :k][terms[t]]
        R = ((C.swapaxes(-1, -2) * x[t][..., None, :]) @ C).reshape(G, -1)
        R[:, :: k + 1] -= shares[p]  # the diagonals
        norms[idx], devs[idx] = np.sqrt(np.vecdot(R, R)), abs(R).max(axis=1)  # np.linalg.norm's
        E = np.zeros((G * k, wd), dtype=complex)
        _windows(E, 1, L)[np.arange(G * k), (starts[p] - lo[idx, None]).reshape(-1)] = entries[p].reshape(-1, 1, L)
        E = E.view(np.float64)  # both parts
        if G == 1:
            np.matmul(C, E, out=grid[at[i] : at[i] + m, 2 * lo[i] : 2 * (lo[i] + wd)])
        else:
            _windows(grid, m, 2 * wd)[at[idx], 2 * lo[idx]] = C @ E.reshape(G, k, 2 * wd)
    _check_residuals(devs.tolist(), ks)
    return norms.tolist()


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
    return gram_matrix(horn_decompose(zip(lam, np.eye(n)), xi))
