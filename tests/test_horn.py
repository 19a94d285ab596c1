import bisect
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admseq import carpenter, horn
from admseq.errors import DimensionError, MajorizationError, SequenceError
from admseq.horn import (
    HORN_RESIDUAL_TOL,
    PLACE_TOL,
    horn_decompose,
    mix_two,
    schur_horn_matrix,
)
from admseq.operators import RankOneTerm, eigh_desc, frame_operator, make_term
from admseq.seqkit import majorizes
from admseq.streams import VectorStream

RNG = np.random.default_rng(11)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def mix_residual(res, e1, e2, u, up, x1, x2):
    R = (
        x1 * np.outer(res.w, res.w.conj())
        + x2 * np.outer(res.w_prime, res.w_prime.conj())
        - e1 * np.outer(u, u.conj())
        - e2 * np.outer(up, up.conj())
    )
    return float(np.max(np.abs(R)))


def random_unit(n):
    v = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    return v / np.linalg.norm(v)


def test_mix_frozen_orthogonal_example():
    res = mix_two(1.0, 0.2, E1, E2, 0.7, 0.5)
    assert res.sigma**2 == pytest.approx(25.0 / 28.0, abs=1e-14)
    assert res.tau**2 == pytest.approx(3.0 / 28.0, abs=1e-14)
    assert res.sigma_prime**2 == pytest.approx(0.75, abs=1e-14)
    assert res.tau_prime**2 == pytest.approx(0.25, abs=1e-14)
    assert res.tau_prime < 0
    assert res.z_o == pytest.approx(25.0 / 28.0, abs=1e-14)
    assert res.z_minus == pytest.approx(res.z_o)  # gamma = 0 collapses the quadratic
    assert mix_residual(res, 1.0, 0.2, E1, E2, 0.7, 0.5) < 1e-12


def test_mix_identity_with_overlap():
    u = E1
    up = np.array([0.6, 0.8], dtype=complex)
    res = mix_two(1.0, 0.2, u, up, 0.7, 0.5)
    assert mix_residual(res, 1.0, 0.2, u, up, 0.7, 0.5) < 1e-11
    assert abs(np.linalg.norm(res.w) - 1.0) < 1e-12
    assert abs(np.linalg.norm(res.w_prime) - 1.0) < 1e-12
    assert res.z_minus <= res.z_o + 1e-12


def test_mix_handles_complex_phase_overlap():
    u = random_unit(3)
    up = random_unit(3)
    res = mix_two(0.9, 0.3, u, up, 0.8, 0.4)
    assert mix_residual(res, 0.9, 0.3, u, up, 0.8, 0.4) < 1e-11
    assert res.gamma == pytest.approx(abs(np.vdot(u, up)))


def test_mix_parallel_vectors_need_no_special_case():
    u = E1
    up = np.exp(1j * 0.7) * E1
    res = mix_two(0.6, 0.4, u, up, 0.5, 0.5)
    assert mix_residual(res, 0.6, 0.4, u, up, 0.5, 0.5) < 1e-11


def test_mix_degenerate_matching_targets():
    res = mix_two(0.7, 0.3, E1, E2, 0.7, 0.3)
    assert np.allclose(res.w, E1)
    assert (res.sigma, res.tau) == (1.0, 0.0)
    swapped = mix_two(0.7, 0.3, E1, E2, 0.3, 0.7)
    assert np.allclose(swapped.w, E2)
    assert np.allclose(swapped.w_prime, E1)


def test_mix_source_ordering_is_free():
    # the second source may be the larger one, as in the infinite recursion
    res = mix_two(0.6, 1.0, E1, E2, 0.85, 0.75)
    assert mix_residual(res, 0.6, 1.0, E1, E2, 0.85, 0.75) < 1e-12
    # at gamma = 0 the stable root hits its cap exactly
    assert res.z_minus == pytest.approx(0.6 * 0.15 / (0.85 * 0.4), abs=1e-14)


def test_mix_zero_weight_source():
    res = mix_two(0.5, 0.0, E1, E2, 0.2, 0.3)
    assert mix_residual(res, 0.5, 0.0, E1, E2, 0.2, 0.3) < 1e-12


def test_mix_rejects_trace_change():
    with pytest.raises(MajorizationError):
        mix_two(1.0, 0.2, E1, E2, 0.7, 0.6)


def test_mix_rejects_target_outside_sources():
    with pytest.raises(MajorizationError):
        mix_two(1.0, 0.2, E1, E2, 1.1, 0.1)


def test_mix_bounds_hold_in_descending_order():
    # with e1 >= x1, x2 >= e2 every coefficient except sigma' stays in [-1, 1]
    for _ in range(300):
        e1, e2 = sorted(RNG.uniform(0.0, 2.0, size=2), reverse=True)
        x1 = RNG.uniform(e2, e1)
        x2 = e1 + e2 - x1
        if not e2 <= x2 <= e1:
            continue
        u = random_unit(2)
        up = random_unit(2)
        res = mix_two(e1, e2, u, up, x1, x2)
        assert mix_residual(res, e1, e2, u, up, x1, x2) < 1e-10
        assert res.z_minus <= res.z_o + 1e-12
        assert res.sigma <= 1.0 + 1e-12
        assert abs(res.tau) <= 1.0 + 1e-12
        assert abs(res.tau_prime) <= 1.0 + 1e-12


def test_mix_unit_norms_in_either_order():
    for _ in range(300):
        e1, e2 = RNG.uniform(0.0, 2.0, size=2)
        lo, hi = min(e1, e2), max(e1, e2)
        x1 = RNG.uniform(lo, hi)
        x2 = e1 + e2 - x1
        if not lo <= x2 <= hi:
            continue
        u = random_unit(3)
        up = random_unit(3)
        res = mix_two(e1, e2, u, up, x1, x2)
        assert abs(np.linalg.norm(res.w) - 1.0) < 1e-11
        assert abs(np.linalg.norm(res.w_prime) - 1.0) < 1e-11
        assert res.z_minus <= res.z_o + 1e-12


# -- the finite construction -------------------------------------------

def basis_terms(weights):
    n = len(weights)
    eye = np.eye(n, dtype=complex)
    return [make_term_at(w, eye[:, i]) for i, w in enumerate(weights)]


def make_term_at(w, v):
    return make_term(w, v) if w >= 0 else None


def test_horn_splits_identity_into_halves():
    decomp = horn_decompose(basis_terms([1.0, 1.0]), [0.5, 0.5, 0.5, 0.5])
    assert decomp.weights() == (0.5, 0.5, 0.5, 0.5)
    S = frame_operator(decomp.terms, dim=2)
    assert np.allclose(S, np.eye(2), atol=1e-12)


def test_horn_preserves_target_order():
    decomp = horn_decompose(basis_terms([0.9, 0.6, 0.5]), [0.5, 0.8, 0.7])
    assert decomp.weights() == (0.5, 0.8, 0.7)
    S = frame_operator(decomp.terms, dim=3)
    assert np.allclose(S, np.diag([0.9, 0.6, 0.5]), atol=1e-10)


def test_horn_places_zero_targets():
    decomp = horn_decompose(basis_terms([1.0]), [0.0, 1.0, 0.0])
    assert decomp.weights() == (0.0, 1.0, 0.0)
    assert np.allclose(frame_operator(decomp.terms, dim=1), [[1.0]])


def test_horn_rejects_unmajorized_targets():
    with pytest.raises(MajorizationError) as info:
        horn_decompose(basis_terms([0.6, 0.4]), [0.8, 0.2])
    assert info.value.failing_index == 1


def test_horn_rejects_total_mismatch():
    with pytest.raises(MajorizationError):
        horn_decompose(basis_terms([0.6, 0.4]), [0.6, 0.3])


def test_horn_works_from_non_orthogonal_sources():
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([0.6, 0.8], dtype=complex)
    sources = [make_term(0.7, u), make_term(0.3, v)]
    A = frame_operator(sources, dim=2)
    lam = np.linalg.eigvalsh(A)[::-1]
    # targets strictly between the source weights work: validation is against
    # the spectrum of the pool's operator, which majorizes the formal weights
    decomp = horn_decompose(sources, [0.5, 0.5])
    assert np.allclose(frame_operator(decomp.terms, dim=2), A, atol=1e-10)
    assert lam[0] >= 0.5 >= lam[1]


def test_horn_places_the_spectrum_of_a_non_orthogonal_pool():
    # the spectrum (0.84, 0.16) is not majorized by the formal weights (0.7,
    # 0.3), yet it is the diagonal of the operator in its own eigenbasis
    sources = [make_term(0.7, E1), make_term(0.3, np.array([0.6, 0.8]))]
    A = frame_operator(sources, dim=2)
    lam = [float(v) for v in np.linalg.eigvalsh(A)[::-1]]
    assert not majorizes(lam, [0.7, 0.3]).holds
    decomp = horn_decompose(sources, lam)
    assert decomp.weights() == tuple(lam)
    assert np.max(np.abs(decomp.frame_operator(2) - A)) <= HORN_RESIDUAL_TOL * 2
    assert [np.linalg.norm(t.vector) for t in decomp.terms] == pytest.approx([1.0, 1.0], abs=1e-12)


def _svd_not_reached(*args, **kwargs):
    raise AssertionError("the pool's SVD ran before a refusal")


# refusals made before the pool's spectrum is formed, then those of its
# majorization test on orthonormal pools, each with the type, text and
# failing index the placement on the pool's own vectors gave; bad vectors
# come first, and negative targets before an empty pool, a bad weight and a
# failed majorization
REFUSALS = [
    ([(-0.1, E1), (1.1, E2)], [0.5, 0.5], SequenceError,
     "sequence entries must be nonnegative, got -0.1", None, True),
    ([(0.5, E1), (float("inf"), E2)], [0.5, 0.5], SequenceError,
     "sequence entries must be finite reals, got inf", None, True),
    ([], [1.0], DimensionError, "need at least one source term", None, True),
    ([], [-1.0], MajorizationError, "target weights must be nonnegative", None, True),
    ([(-0.1, E1)], [-1.0], MajorizationError, "target weights must be nonnegative", None, True),
    ([(-0.1, 2 * E1)], [-1.0], ValueError, "vector norm 2.0 is not 1", None, True),
    ([(0.6, E1), (0.4, E2)], [0.8, 0.2], MajorizationError,
     "source weights do not majorize the targets (partial sums cross at position 1)", 1, False),
    ([(0.6, E1), (0.4, E2)], [0.6, 0.3], MajorizationError,
     "source weights do not majorize the targets (totals differ by -1.000e-01)", None, False),
    ([(1.0, E1), (0.5, E2)], [], MajorizationError,
     "source weights do not majorize the targets (totals differ by -1.500e+00)", None, False),
]


@pytest.mark.parametrize("pool, targets, kind, text, failing, early", REFUSALS, ids=[
    "negative-weight", "infinite-weight", "empty-pool", "negative-target",
    "negative-target-first", "bad-vector-first", "not-majorized", "total-mismatch", "no-targets"])
def test_refusals_keep_their_type_text_and_order(monkeypatch, pool, targets, kind, text, failing, early):
    if early:
        monkeypatch.setattr(np.linalg, "svd", _svd_not_reached)
    with pytest.raises(kind) as info:
        horn_decompose(pool, targets)
    assert type(info.value) is kind and str(info.value) == text
    assert getattr(info.value, "failing_index", None) == failing


def test_horn_random_suite_small():
    for _ in range(50):
        n = int(RNG.integers(1, 7))
        eta = RNG.uniform(0.0, 1.0, size=n)
        # convex combination of permutations keeps the majorization exact
        m = int(RNG.integers(1, 4))
        coeffs = RNG.dirichlet(np.ones(m))
        xi = np.zeros(n)
        for c in coeffs:
            xi += c * RNG.permutation(eta)
        decomp = horn_decompose(basis_terms(list(eta)), list(xi))
        S = frame_operator(decomp.terms, dim=n)
        assert np.max(np.abs(S - np.diag(eta))) < 1e-9 * n


def test_schur_horn_matrix_diag_and_spectrum():
    lam = [1.0, 0.6, 0.2]
    xi = [0.7, 0.6, 0.5]
    G = schur_horn_matrix(lam, xi)
    assert np.allclose(np.diag(G).real, xi, atol=1e-10)
    assert np.allclose(np.linalg.eigvalsh(G)[::-1], lam, atol=1e-9)
    assert np.allclose(G, G.conj().T)


def test_schur_horn_matrix_pads_with_zero_eigenvalues():
    G = schur_horn_matrix([1.0, 1.0], [0.5, 0.5, 0.5, 0.5])
    assert G.shape == (4, 4)
    assert np.allclose(np.diag(G).real, 0.5)
    w = np.linalg.eigvalsh(G)
    assert np.allclose(np.sort(w), [0.0, 0.0, 1.0, 1.0], atol=1e-9)


def test_schur_horn_matrix_rejects_bad_diagonal():
    with pytest.raises(MajorizationError):
        schur_horn_matrix([1.0, 0.0], [0.9, 0.9])


def test_eigh_of_constructed_matrix_feeds_back():
    # round trip: build, re-diagonalize, build again
    G = schur_horn_matrix([0.9, 0.5, 0.1], [0.6, 0.5, 0.4])
    w, V = eigh_desc(G)
    sources = [make_term(w[i], V[:, i]) for i in range(3)]
    again = horn_decompose(sources, [0.6, 0.5, 0.4])
    S = frame_operator(again.terms, dim=3)
    assert np.allclose(S, G, atol=1e-9)
    assert [abs(t.vector @ t.vector.conj()) for t in again.terms] == pytest.approx([1, 1, 1])


# -- the schedule oracle ----------------------------------------------------

def stage_schedule(targets, sources, positions, colinear=(), verdict=None):
    """One block stage's placement, as the stage driver scheduled it stage by
    stage before ``horn._schedule`` took the whole run in one pass, kept as
    its oracle: (k, takes, mixes) on the basis of R^k for the k sorted
    ``positions``; of (position, weight) pairs, ``sources`` are the pool and
    ``colinear`` terms lie along their position.  Term j takes row takes[j]
    (that basis, then a mix's target's and remainder's), and each mix is
    (row a, row b, a, b, t)."""
    col = {pos: j for j, pos in enumerate(positions)}
    k, takes, mixes = len(positions), [0] * len(targets), []
    if targets or sources:  # with neither, only colinear terms
        row = [col[pos] for pos, _ in sources] + list(range(k, k + 2 * len(targets)))
        for idx, slot, mix in horn_schedule([c for _, c in sources], targets, k, verdict):
            takes[idx] = row[slot]
            if mix is not None:
                mixes.append((row[mix[0]], row[mix[1]], *mix[2:]))
    return k, takes + [col[pos] for pos, _ in colinear], mixes


def horn_schedule(weights, targets, dim: int, verdict=None):
    """The placement of ``targets`` against pool ``weights``, decided in the
    weights alone, one target at a time: yields (target index, slot, mix)
    per target, largest first, where the target takes the vector in
    ``slot``.  Slots below len(weights) are the pool's; the j-th mix, (slot
    a, slot b, a, b, t) with a >= t > b, makes slot len(weights) + 2j, the
    target's vector, and the next, its remainder of weight a + b - t; mix is
    None for every other target.  The pool is a list of (weight, slot) kept
    sorted, so every choice is a bisection on tuples and ties go to the
    earliest slot.  ``PLACE_TOL`` is read from ``horn`` at the call."""
    tol = horn.PLACE_TOL
    horn._refuse_early(targets, weights)
    if verdict is None or not verdict.holds:
        verdict = majorizes(targets, weights, tol=max(tol, horn.PLACE_MAJORIZE_TOL))
    if not verdict.holds:
        raise MajorizationError(
            "source weights do not majorize the targets"
            + (f" (partial sums cross at position {verdict.failing_index})"
               if verdict.failing_index else f" (totals differ by {verdict.sum_gap:.3e})"),
            failing_index=verdict.failing_index,
        )

    work = sorted((w, i) for i, w in enumerate(weights) if w > tol)
    made = itertools.count(len(weights), 2)  # the slot of each mix's target vector
    order = sorted(range(len(targets)), key=lambda i: (-targets[i], i))
    lost = math.fsum(w for w in weights if w <= tol)

    for idx in order:
        t = targets[idx]
        if t <= tol:  # along the anchor, the first pool vector
            yield idx, 0, None
            continue
        hit = earliest_hit(work, t, tol)
        if hit is not None:
            w, slot = work.pop(hit)
            lost += max(w - t, 0.0)
            yield idx, slot, None
            continue
        ka = bisect.bisect_left(work, (t,))  # the smallest weight >= t
        if ka == len(work):
            top = work[-1][0] if work else 0.0
            if t - top > tol + lost:
                raise MajorizationError(
                    f"no source weight reaches the target {t!r}; majorization bookkeeping broke"
                )
            yield idx, work.pop(bisect.bisect_left(work, (top,)))[1] if work else 0, None
            continue
        a, sa = work[ka]
        if ka == 0:  # peel the target off the smallest entry, which keeps its place
            work[0] = (a - t, sa)
            yield idx, sa, None
            continue
        kb = bisect.bisect_left(work, (work[ka - 1][0],), 0, ka)  # the largest weight < t
        b, sb = work[kb]
        slot = next(made)
        del work[ka], work[kb]
        if a + b - t > tol:
            bisect.insort(work, (a + b - t, slot + 1))
        else:
            lost += a + b - t
        yield idx, slot, (sa, sb, a, b, t)

    leftover = math.fsum(e[0] for e in work)
    if abs(leftover) > HORN_RESIDUAL_TOL * max(1, dim):
        raise MajorizationError(f"unconsumed source weight {leftover:.3e} after placement")


def earliest_hit(work, t: float, tol: float) -> int | None:
    """Index in the sorted pool of the earliest-arriving entry with
    abs(w - t) <= tol, or None.  Every such w lies within 2 tol of t, so only
    that window is searched, one weight at a time."""
    end = bisect.bisect_right(work, (t + 2.0 * tol, math.inf))
    i = bisect.bisect_left(work, (t - 2.0 * tol,))
    best = None
    while i < end:
        w, arrival = work[i][:2]
        if abs(w - t) <= tol and (best is None or arrival < work[best][1]):
            best = i
        i = bisect.bisect_right(work, (w, math.inf), i, end)
    return best


# -- placement against the list-scan reference ----------------------------

def _scan_place(pool, target_weights, tol):
    """The placement as it was before the pool was kept sorted: three scans
    of the pool, in arrival order, for each target, and a target that no
    entry reaches placed when the weight that left the pool uncounted makes
    up its shortfall.  The reference."""
    targets = [float(t) for t in target_weights]
    if any(t < 0.0 for t in targets):
        raise MajorizationError("target weights must be nonnegative")
    if not pool:
        raise DimensionError("need at least one source term")
    dim = len(pool[0].vector)
    verdict = majorizes(targets, [p.weight for p in pool], tol=max(tol, 1e-11))
    if not verdict.holds:
        raise MajorizationError(
            "source weights do not majorize the targets"
            + (f" (partial sums cross at position {verdict.failing_index})"
               if verdict.failing_index else f" (totals differ by {verdict.sum_gap:.3e})"),
            failing_index=verdict.failing_index,
        )

    anchor = pool[0].vector
    work = [[p.weight, p.vector] for p in pool if p.weight > tol]
    order = sorted(range(len(targets)), key=lambda i: (-targets[i], i))
    placed = [None] * len(targets)
    # dropped entries, what hits take beyond their targets, dropped remainders
    lost = math.fsum(p.weight for p in pool if p.weight <= tol)

    for idx in order:
        t = targets[idx]
        if t <= tol:
            placed[idx] = RankOneTerm(t, anchor)
            continue
        hit = next((k for k, (w, _) in enumerate(work) if abs(w - t) <= tol), None)
        if hit is not None:
            placed[idx] = RankOneTerm(t, work[hit][1])
            lost += max(work[hit][0] - t, 0.0)
            del work[hit]
            continue
        above = [k for k, (w, _) in enumerate(work) if w >= t]
        below = [k for k, (w, _) in enumerate(work) if w < t]
        if not above:
            # the weight that left the pool uncounted may make up the shortfall
            top = max((w for w, _ in work), default=0.0)
            if t - top > tol + lost:
                raise MajorizationError(
                    f"no source weight reaches the target {t!r}; majorization bookkeeping broke"
                )
            largest = [k for k, (w, _) in enumerate(work) if w == top]
            placed[idx] = RankOneTerm(t, work.pop(largest[0])[1] if largest else anchor)
            continue
        ka = min(above, key=lambda k: work[k][0])
        if not below:
            placed[idx] = RankOneTerm(t, work[ka][1])
            work[ka][0] -= t
            if work[ka][0] <= tol:
                del work[ka]
            continue
        kb = max(below, key=lambda k: work[k][0])
        a, ua = work[ka]
        b, ub = work[kb]
        with mock.patch.object(horn, "PLACE_TOL", tol):
            res = mix_two(a, b, ua, ub, t, a + b - t)
        placed[idx] = RankOneTerm(t, res.w)
        for k in sorted((ka, kb), reverse=True):
            del work[k]
        if a + b - t > tol:
            work.append([a + b - t, res.w_prime])
        else:
            lost += a + b - t

    leftover = math.fsum(w for w, _ in work)
    if abs(leftover) > HORN_RESIDUAL_TOL * max(1, dim):
        raise MajorizationError(f"unconsumed source weight {leftover:.3e} after placement")
    return placed


def place_vectors(pool, target_weights, log=None):
    """The placement on unit vectors that horn_decompose once made, kept as the
    oracle of the coefficient-row placement: the pool's own vectors, and one
    ``mix_two`` per mix as the schedule reaches it, since its overlap gamma
    depends on the vectors earlier mixes made.  Each (target index, slot,
    mix) of the schedule is appended to ``log`` as it is made."""
    targets = [float(t) for t in target_weights]
    vectors = [p.vector for p in pool]
    placed = [None] * len(targets)
    dim = len(vectors[0]) if vectors else 0
    for idx, slot, mix in horn_schedule([p.weight for p in pool], targets, dim):
        if log is not None:
            log.append((idx, slot, mix))
        if mix is not None:
            sa, sb, a, b, t = mix
            res = mix_two(a, b, vectors[sa], vectors[sb], t, a + b - t)
            vectors += (res.w, res.w_prime)
        placed[idx] = RankOneTerm(targets[idx], vectors[slot])
    return placed


def _place_at(pool, target_weights, tol):
    """The vector placement with PLACE_TOL set to tol for the call."""
    with mock.patch.object(horn, "PLACE_TOL", tol):
        return place_vectors(pool, target_weights)


def _outcome(place, weights, targets, tol):
    """Placed weights and vector bytes, or the error's type and text."""
    eye = np.eye(max(len(weights), 1), dtype=complex)
    pool = [RankOneTerm(w, eye[i]) for i, w in enumerate(weights)]
    try:
        placed = place(pool, targets, tol)
    except Exception as exc:  # noqa: BLE001 -- errors are part of the outcome
        return type(exc), str(exc)
    return [(t.weight.hex(), t.vector.tobytes()) for t in placed]


POOL_WEIGHTS = st.one_of(
    st.sampled_from([1.0, 0.75, 0.5, 0.25, 1.0 - 2.0**-40, 2e-12, 1e-13, 1e-300, 5e-324]),
    st.floats(0.0, 1.0),
)
FRACTIONS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
# a negative tol admits pool weights equal to a target, so the strict
# "< t" side of the bracket matters
TOLS = st.sampled_from([1e-12, 0.0, 1e-9, -1e-12])


@st.composite
def placements(draw):
    """A pool (many 1.0 entries among them) and targets drawn from it by
    splits and T-transforms, which keep the majorization, then perhaps
    nudged by up to 2e-11: near-ties, exact ties, zero and tiny targets,
    and, past the placement's own tolerance, its refusals."""
    pool = [1.0] * draw(st.integers(0, 6)) + draw(st.lists(POOL_WEIGHTS, max_size=8))
    if not pool:
        pool = [draw(POOL_WEIGHTS)]
    pool = draw(st.permutations(pool))
    targets = list(pool)
    for _ in range(draw(st.integers(0, 10))):
        i = draw(st.integers(0, len(targets) - 1))
        c = draw(FRACTIONS)
        if draw(st.booleans()):  # split one target in two
            x = targets[i]
            targets[i] = c * x
            targets.append(x - targets[i])
        else:  # move two targets towards each other
            j = draw(st.integers(0, len(targets) - 1))
            x, y = targets[i], targets[j]
            targets[i] = c * x + (1.0 - c) * y
            if j != i:
                targets[j] = x + y - targets[i]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(targets) - 1))
        j = draw(st.integers(0, len(targets) - 1))
        d = draw(st.sampled_from([1e-13, 5e-13, 1e-12, 2e-12, 5e-12, 2e-11]))
        targets[i] += d
        targets[j] = max(targets[j] - d, 0.0)
    return pool, draw(st.permutations(targets)), draw(TOLS)


@settings(max_examples=400, deadline=None)
@given(placements())
@example(([1.0, 0.5, 0.5, 0.5], [0.5, 0.5, 1.0, 0.5], 1e-12))  # exact ties: earliest first
@example(([1.0] * 6 + [2e-12], [1.0] * 6 + [2e-12], 0.0))  # exact ties at tol 0
@example(([1.0] * 5 + [0.5, 0.5], [0.75] + [1.0] * 4 + [0.5, 0.5, 0.25], 1e-12))  # many 1.0 entries
@example(([0.6, 0.6 + 4e-13, 0.6 - 4e-13, 0.3], [0.6 + 1e-13, 0.6, 0.6, 0.3], 1e-12))  # near-ties
@example(([1.0, 1.0], [0.25] * 8, 1e-12))  # the peel branch
@example(([0.5, 2e-12, 1e-13, 5e-324], [0.25, 0.25, 2e-12, 1e-13, 0.0], 1e-12))  # tiny weights
@example(([1.0], [0.0, 1.0], 0.0))  # a zero target at tol 0
@example(([1.0, 0.5], [1.0 + 5e-12, 0.5 - 5e-12], 1e-12))  # no source weight reaches
@example(([0.9, 0.5, 0.1], [0.5, 0.5, 0.5], -1e-12))  # a weight equal to t is not below it
# the remainder 4.5 - (0.5 + 2**-53) rounds to 4.0, tying the untouched 4.0: it arrived later
@example(([0.5, 4.0, 4.0], [0.5 + 2.0**-53] + [0.5] * 16, 0.0))
def test_sorted_pool_places_as_the_scans_did(case):
    weights, targets, tol = case
    assert _outcome(_place_at, weights, targets, tol) == _outcome(_scan_place, weights, targets, tol)


def test_unreachable_target_is_refused():
    weights, targets = [1.0, 0.5], [1.0 + 5e-12, 0.5 - 5e-12]
    want = (MajorizationError, f"no source weight reaches the target {targets[0]!r}; "
            "majorization bookkeeping broke")
    assert _outcome(_place_at, weights, targets, 1e-12) == want


# -- the run scheduler against the stage-by-stage oracle ----------------------

@st.composite
def schedule_runs(draw):
    """A run of one to four stages and the one PLACE_TOL it is placed at.
    Each stage is a pool and targets as ``placements`` draws them, sometimes
    with a near tie added (a pool weight and a target within 2 PLACE_TOL of
    it) or neither pool nor targets; a basis of distinct positions, which
    the pool takes in a shuffled order, with further terms along some of
    them; and sometimes the verdict the stage driver would pass."""
    tol, stages = draw(TOLS), []
    for _ in range(draw(st.integers(1, 4))):
        pool, targets = draw(placements())[:2] if draw(st.integers(0, 9)) else ([], [])
        if pool and draw(st.booleans()):
            w, d = draw(POOL_WEIGHTS), draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])) * 1e-12
            pool, targets = pool + [w], targets + [w + d]
        k = len(pool) + draw(st.integers(0 if pool else 1, 2))
        where = draw(st.permutations(range(k)))
        along = where[len(pool):] + draw(st.lists(st.sampled_from(where), max_size=2))
        colinear = [(p, draw(POOL_WEIGHTS)) for p in along]
        verdict = majorizes(targets, pool) if draw(st.booleans()) and min(targets, default=0.0) >= 0.0 else None
        stages.append((targets, tuple(zip(where, pool)), range(k), tuple(colinear), verdict))
    return stages, tol


def oracle_run(stages):
    """Each stage's (row of each term, mixes) as ``stage_schedule`` makes them,
    stage by stage, up to the first refusal, and that refusal's type and text."""
    out = []
    for targets, sources, positions, colinear, verdict in stages:
        try:
            _, takes, mixes = stage_schedule(targets, sources, positions, colinear, verdict)
        except Exception as exc:  # noqa: BLE001 -- errors are part of the outcome
            return out, (type(exc), str(exc))
        out.append((takes, [(ra, rb, a.hex(), b.hex(), t.hex()) for ra, rb, a, b, t in mixes]))
    return out, None


def run_schedule(stages):
    """The same from one ``horn._schedule`` call on the whole run, each row
    taken back to its stage's numbering: the run's bases come first, stage
    by stage, then two rows per mix."""
    rows, ks = [], [len(s[2]) for s in stages]
    for (_, sources, _, colinear, _), basis in zip(stages, itertools.accumulate([0, *ks])):
        rows.append([basis + p for p, _ in sources + colinear])
    takes, mixes, counts, refusal = horn._schedule(
        [s[0] for s in stages], [[c for _, c in s[1]] for s in stages], rows, ks, [s[4] for s in stages])
    out, at, g, mixes = [], 0, 0, [mixes[i : i + 5] for i in range(0, len(mixes), 5)]
    for (targets, _, _, colinear, _), k, basis, q in zip(stages, ks, itertools.accumulate([0, *ks]), counts):
        def local(r, k=k, basis=basis, g=g):  # a basis row, or the row of a mix this stage made
            return r - basis if r < sum(ks) else k + r - sum(ks) - 2 * g
        n = len(targets) + len(colinear)
        out.append(([local(r) for r in takes[at : at + n]],
                    [(local(ra), local(rb), a.hex(), b.hex(), t.hex()) for ra, rb, a, b, t in mixes[g : g + q]]))
        at, g = at + n, g + q
    assert at == len(takes) and g == len(mixes)
    return out, None if refusal is None else (type(refusal), str(refusal))


# two stages each: an exact tie, a near tie, the peel branch, a shortfall
# that dropped entries make up, and refusals in the second stage
@settings(deadline=None)
@given(schedule_runs())
@example(([([0.5, 0.5, 1.0, 0.5], ((1, 1.0), (0, 0.5), (2, 0.5), (3, 0.5)), range(4), (), None),
           ([0.6 + 1e-13, 0.6, 0.6, 0.3], ((0, 0.6), (1, 0.6 + 4e-13), (2, 0.6 - 4e-13), (3, 0.3)), range(4), (),
            None)], 1e-12))
@example(([([0.25] * 8, ((0, 1.0), (1, 1.0)), range(3), ((2, 0.5), (0, 0.25)), None),
           ([0.0746448379485975, 0.005916510091281203, 0.011354594096218211],
            ((1, 1e-12), (0, 0.0919159421350969)), range(2), (), None)], 1e-12))
@example(([([1.0], ((0, 1.0),), range(1), (), None), ([1.0, 0.5], ((0, 0.9), (1, 0.5)), range(2), (), None)],
          1e-12))
@example(([([1.0], ((0, 1.0),), range(1), (), None), ([0.5], ((0, 0.5), (1, 0.5)), range(2), (), None)], 0.0))
# a target just above a pool weight hits it though a larger weight is left
@example(([([0.5 + 5e-13, 0.4, 0.5 - 5e-13], ((0, 0.9), (1, 0.5)), range(2), (), None)], 1e-12))
# a shortfall between tied largest weights takes the earliest
@example(([([0.5 + 1.5e-12, 0.5 - 0.5e-12], ((0, 0.5), (1, 0.5), (2, 1e-12)), range(3), (), None)], 1e-12))
@example(([([0.5, 0.5], ((0, 0.9), (1, 0.1)), range(2), (), None), ([0.5 + 2.0**-53] + [0.5] * 16,
           ((0, 0.5), (1, 4.0), (2, 4.0)), range(3), (), None)], 0.0))
def test_run_schedule_is_the_oracle_stage_by_stage(case):
    stages, tol = case
    with mock.patch.object(horn, "PLACE_TOL", tol):
        assert run_schedule(stages) == oracle_run(stages)


# a verdict that holds where the weights do not majorize the targets: only
# the placement's own bookkeeping can refuse them
FORGED = majorizes([1.0], [1.0])
BOOKKEEPING_REFUSALS = [
    ([0.9], [0.5], "no source weight reaches the target 0.9; majorization bookkeeping broke"),
    ([1.0], [1.0, 1.0], "unconsumed source weight 1.000e+00 after placement"),
]


@pytest.mark.parametrize("targets, weights, text", BOOKKEEPING_REFUSALS, ids=["unreached", "unconsumed"])
def test_bookkeeping_refuses_under_a_forged_verdict(targets, weights, text):
    assert FORGED.holds and not majorizes(targets, weights).holds
    k = len(weights)
    takes, mixes, counts, refusal = horn._schedule([[0.5], targets], [[0.5], weights], [[0], range(1, k + 1)],
                                                   [1, k], [FORGED, FORGED])
    assert (takes, mixes, counts) == ([0], [], [0])  # the stage before it is scheduled
    assert (type(refusal), str(refusal)) == (MajorizationError, text)
    stages = [([0.5], ((0, 0.5),), range(1), (), FORGED), (targets, tuple(enumerate(weights)), range(k), (), FORGED)]
    assert oracle_run(stages) == ([([0], [])], (MajorizationError, text))


@pytest.mark.parametrize("targets, weights, text", BOOKKEEPING_REFUSALS, ids=["unreached", "unconsumed"])
def test_stage_driver_raises_the_bookkeeping_refusal(monkeypatch, targets, weights, text):
    # the batched verdicts forged to hold: the second stage's bookkeeping
    # refusal is raised once the first stage is placed and certified
    monkeypatch.setattr(carpenter, "_majorizes_many", lambda xs, es: [FORGED] * len(xs))
    certified = []
    real = carpenter._block_stages
    monkeypatch.setattr(carpenter, "_block_stages", lambda *args: certified.append(len(args[4])) or real(*args))
    plans = [carpenter.BlockPlan((1.0,), ((0, 1.0),)),
             carpenter.BlockPlan(tuple(targets), tuple(enumerate(weights, 1)))]
    with pytest.raises(MajorizationError) as refusal:
        carpenter.realize_block_plans(plans, VectorStream.basis())
    assert str(refusal.value) == text and certified == [1]  # one call, on the first stage


# pool entries of at most PLACE_TOL leave the pool but count in the
# majorization.  Each case: pool weights, targets, and the target placed
# last, with the pool vector horn_decompose gives it: the largest entry left
# (a case that test_coefficient_rows_place_as_unit_vectors draws), or the
# anchor once no entry is left.  horn_decompose places against its pool's
# spectrum, largest first, so its anchor is the top eigenvector, here e_2;
# the vector oracle's anchor is the first pool vector, e_0
DROPPED_SHORTFALLS = [
    ([1e-12, 0.0919159421350969],
     [0.0746448379485975, 0.005916510091281203, 0.011354594096218211], 1, 1),
    ([1e-12, 1e-12, 0.5], [0.5, 1.5e-12], 1, 2),
]


@pytest.mark.parametrize("weights, targets, last, source", DROPPED_SHORTFALLS,
                         ids=["largest", "anchor"])
def test_dropped_entries_make_up_a_shortfall(weights, targets, last, source):
    assert majorizes(targets, weights, tol=horn.PLACE_MAJORIZE_TOL).holds
    eye = np.eye(len(weights), dtype=complex)
    pool = [RankOneTerm(w, eye[i]) for i, w in enumerate(weights)]
    dec = horn_decompose(pool, targets)
    assert [t.weight for t in dec.terms] == targets
    assert np.array_equal(dec.terms[last].vector, eye[source])
    residual = frame_operator(dec.terms, dim=len(weights)) - frame_operator(pool)
    assert np.max(np.abs(residual)) <= 3e-12
    assert _outcome(_place_at, weights, targets, PLACE_TOL) == _outcome(
        _scan_place, weights, targets, PLACE_TOL)


# -- coefficient rows against unit vectors ---------------------------------

AWKWARD = [1e-12, 0.5 + 1e-12, 0.5 - 1e-12, 0.5, 1.0]


def awkward_case(rng, k):
    """A pool of k weights and targets it majorizes: weights of 1e-12 and
    0.5 +- 1e-12, near-equal pairs, T-transforms and splits of part of the
    pool, and the rest copied, in pairs nudged apart by less than PLACE_TOL."""
    pool = []
    while len(pool) < k:
        r = rng.random()
        if r < 0.4:
            pool.append(float(rng.choice(AWKWARD)))
        elif r < 0.7:
            v = float(rng.uniform(0.05, 1.0))
            pool += [v, v - float(rng.integers(1, 10)) * 1e-13]
        else:
            pool.append(float(rng.uniform(0.0, 1.0)))
    pool = pool[:k]
    order = [int(i) for i in rng.permutation(k)]
    copied = [pool[i] for i in order[: k // 3]]
    for a in range(0, min(len(copied) - 1, 16), 2):
        d = float(rng.choice([1e-13, 5e-13]))
        if copied[a + 1] >= d:
            copied[a] += d
            copied[a + 1] -= d
    moved = [pool[i] for i in order[k // 3:]]
    for _ in range(k):
        i, j = (int(x) for x in rng.integers(0, len(moved), 2))
        if rng.random() < 0.3:  # split one target in two
            x = moved[i]
            moved[i] = float(rng.random()) * x
            moved.append(x - moved[i])
        else:  # move two targets towards each other
            c, x, y = float(rng.random()), moved[i], moved[j]
            moved[i] = c * x + (1.0 - c) * y
            if j != i:
                moved[j] = x + y - moved[i]
    return pool, [float(t) for t in rng.permutation(copied + moved)]


def placement_log(weights, targets, rows):
    """The placement of targets against weights on the standard basis, as
    real coefficient rows or as the oracle's complex unit vectors
    (place_vectors): the schedule it followed (the row each target takes, and
    the mixes made, in order, with the rows they took and their weights) and
    the placed vectors, or the error's type and text and None.  Schedule
    rows are the pool's basis rows, then two per mix."""
    k = len(weights)
    try:
        if rows:
            takes, mixes, counts, refusal = horn._schedule([targets], [weights], [range(k)], [k])
            if refusal is not None:
                raise refusal
            return (takes, [tuple(mixes[i : i + 5]) for i in range(0, len(mixes), 5)]), \
                horn._place_rows([k], counts, mixes)[0][takes]
        eye = np.eye(k, dtype=complex)
        ops = []
        placed = place_vectors([RankOneTerm(w, eye[i]) for i, w in enumerate(weights)], targets, ops)
    except Exception as exc:  # noqa: BLE001 -- errors are part of the outcome
        return (type(exc), str(exc)), None
    takes = [0] * len(targets)
    for idx, slot, _ in ops:
        takes[idx] = slot
    return (takes, [mix for _, _, mix in ops if mix is not None]), np.array([t.vector for t in placed])


# (k, seed, draw) of awkward_case draws whose last target falls short of
# every entry left by more than the dropped pool entries: hits within
# PLACE_TOL took the rest beyond their targets
SHORT_BY_HITS = [(5, 2, 5), (8, 0, 9), (8, 0, 13), (30, 0, 3), (30, 1, 15), (30, 1, 17),
                 (64, 0, 7), (64, 0, 14)]


@pytest.mark.parametrize("k, seed, draw", SHORT_BY_HITS)
def test_hits_within_tol_make_up_a_shortfall(k, seed, draw):
    rng = np.random.default_rng([k, seed])
    for _ in range(draw + 1):
        weights, targets = awkward_case(rng, k)
    row_log, C = placement_log(weights, targets, rows=True)
    assert C is not None and row_log == placement_log(weights, targets, rows=False)[0]
    eye = np.eye(k, dtype=complex)
    pool = [RankOneTerm(w, eye[i]) for i, w in enumerate(weights)]
    dec = horn_decompose(pool, targets)  # checks the reconstruction
    assert [t.weight for t in dec.terms] == targets
    assert _outcome(_place_at, weights, targets, PLACE_TOL) == _outcome(
        _scan_place, weights, targets, PLACE_TOL)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 30, 64, 120, 200])
def test_coefficient_rows_place_as_unit_vectors(k, seed):
    rng = np.random.default_rng([k, seed])
    # a pool weight of exactly PLACE_TOL is dropped from the pool but counted
    # by the majorization test; a target it leaves short of every entry takes
    # the largest one, so those cases place too.  A refusal, if any, must be
    # alike on both paths
    placed = 0
    for _ in range(20):
        if placed == 2:
            break
        weights, targets = awkward_case(rng, k)
        row_log, C = placement_log(weights, targets, rows=True)
        vec_log, V = placement_log(weights, targets, rows=False)
        # the same hits, peels and mixes, in the same order, with the same weights
        assert row_log == vec_log
        if C is None:
            continue
        placed += 1
        assert C.dtype == np.float64
        assert not np.any(V.imag)
        assert np.max(np.abs(C - V.real), initial=0.0) <= 1e-13
    assert placed == 2


NEAR_TIES = [1e-9, 0.5 + 1e-9, 0.5 - 1e-9, 0.5, 1.0]


def orthonormal_case(rng):
    """An orthonormal pool, standard basis vectors or the rows of a complex QR
    factor, of weights 1e-9, 0.5 +- 1e-9 and uniform ones, and targets made
    from its weights by splits and T-transforms, most of them near ties: two
    targets moved towards each other by a fraction within 1e-9 of 0 or 1."""
    k = int(rng.integers(1, 9))
    weights = [NEAR_TIES[int(rng.integers(len(NEAR_TIES)))] if rng.random() < 0.6
               else float(rng.random()) for _ in range(k)]
    dim = k + int(rng.integers(0, 3))
    if rng.random() < 0.5:
        E = np.eye(dim, dtype=complex)[:k]
    else:
        E = np.linalg.qr(rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k)))[0].T
    targets = list(weights)
    for _ in range(int(rng.integers(1, 2 * k + 1))):
        i, j = (int(x) for x in rng.integers(0, len(targets), 2))
        if rng.random() < 0.2:  # split one target in two
            x = targets[i]
            targets[i] = float(rng.random()) * x
            targets.append(x - targets[i])
            continue
        c = [1e-9, 1.0 - 1e-9, float(rng.random())][int(rng.integers(3))]
        x, y = targets[i], targets[j]
        targets[i] = c * x + (1.0 - c) * y
        if j != i:
            targets[j] = x + y - targets[i]
    return list(zip(weights, E)), [float(t) for t in rng.permutation(targets)]


def reference_decompose(sources, targets):
    """horn_decompose as the vector oracle makes it: the placement on the
    pool's own vectors, then the same reconstruction check."""
    pool = [make_term(w, v) for w, v in sources]
    placed = place_vectors(pool, targets)
    dim = len(pool[0].vector)
    R = frame_operator(placed, dim) - frame_operator(pool, dim)
    horn._check_residuals([float(np.max(np.abs(R)))], [dim])
    return placed


def test_orthonormal_pools_refuse_only_where_the_oracle_does():
    # the spectrum of an orthonormal pool is its weights up to rounding, so
    # horn_decompose refuses where the vector oracle does, except that
    # rounding may tip a mix across the norm-drift check of ROADMAP item 2:
    # of 3,000 draws from this seed, draws 1381 and 1804 are refused that way
    # by horn_decompose alone
    rng = np.random.default_rng(2)
    refused, drifted = 0, []
    for draw in range(1400):
        sources, targets = orthonormal_case(rng)
        try:
            dec = horn_decompose(sources, targets)
        except (MajorizationError, ValueError, ZeroDivisionError) as exc:
            refused += 1
            try:
                reference_decompose(sources, targets)
            except (MajorizationError, ValueError, ZeroDivisionError):
                continue
            assert str(exc).startswith("mixed vector norm drifted by ")
            drifted.append(draw)
            continue
        assert dec.weights() == tuple(targets)  # its reconstruction is checked inside
    assert 0 < refused < 300 and len(drifted) <= 3


def test_stage_check_refuses_a_corrupted_row():
    rng = np.random.default_rng(5)
    weights, targets = awkward_case(rng, 30)
    while placement_log(weights, targets, rows=True)[1] is None:
        weights, targets = awkward_case(rng, 30)
    stream = VectorStream.basis()
    out = np.zeros((len(targets), 30), dtype=complex)
    takes, mixes, counts, _ = horn._schedule([targets], [weights], [range(30)], [30])
    store, _ = horn._place_rows([30], counts, mixes)
    args = (np.array(targets), np.array(weights), store, np.array(takes), [len(targets)], [30],
            *stream._supports(np.arange(30)), out)
    (residual,) = horn._block_stages(*args)
    assert residual <= 1e-10
    # one mixed row turned a little off, after every mix passed its checks
    C = store[takes]
    i = next(i for i, row in enumerate(C) if np.count_nonzero(row) > 1)
    store[takes[i], np.flatnonzero(C[i])[0]] += 1e-6
    with pytest.raises(ValueError, match="reconstruction residual .* exceeds tolerance"):
        horn._block_stages(*args)


def test_coefficient_rows_divide_out_a_mix_norm_drift():
    # mixing 0.6254 with 3e-6 into a target 1.4e-8 below 0.6254 leaves a
    # remainder whose coefficients have norm 1 - 1.4e-11, inside the mix's
    # own check; mixed again, it stands for its row divided by that norm, as
    # the vector path's unit_vector divides by the vector's norm
    a, b, t = 0.6253875181091617, 3.0278341805276837e-06, 0.6253875039706138
    weights = [1e-7, b, a]
    targets = [t, 2e-6, (a + b - t) + 1e-7 - 2e-6]
    sigma_p, tau_p = (float(c[0]) for c in horn._mix_coefficients([a], [b], [t], [a + b - t])[2:4])
    assert abs(math.hypot(sigma_p, tau_p) - 1.0) > 1e-11
    row_log, C = placement_log(weights, targets, rows=True)
    vec_log, V = placement_log(weights, targets, rows=False)
    assert row_log == vec_log
    # the first mix takes pool rows 2 and 1, the second its remainder (row
    # 3 + 1, after the pool's 3 and the first mix's target) and pool row 0
    assert [m[:2] for m in row_log[1]] == [(2, 1), (4, 0)]
    assert np.max(np.abs(C - V.real)) <= 1e-13


# -- the array core against the scalar formulas ------------------------------

def scalar_mix_coefficients(e1, e2, x1, x2, gamma, check=True):
    """The scalar 2x2 step that every mix once took, kept as the oracle of the
    array core: (sigma, tau, sigma', tau', z_minus, z_o, h, alpha, residual),
    with ``horn``'s tolerances as they stand at the call."""
    tol = horn.PLACE_TOL

    def sqrt_clamped(x):
        if x < -horn.NEG_SQUARE_TOL:
            raise ValueError(f"mixing produced a negative square ({x:.3e})")
        return math.sqrt(max(x, 0.0))

    e1, e2, x1, x2 = float(e1), float(e2), float(x1), float(x2)
    for v in (e1, e2, x1, x2):
        if v < -tol:
            raise MajorizationError(f"weights must be nonnegative, got {v!r}")
    if abs((x1 + x2) - (e1 + e2)) > horn.TRACE_TOL:
        raise MajorizationError(
            f"target weights {x1!r} + {x2!r} do not preserve the trace {e1 + e2!r}"
        )
    lo, hi = min(e1, e2), max(e1, e2)
    slack = max(tol, horn.TRACE_TOL)
    if not (lo - slack <= x1 <= hi + slack and lo - slack <= x2 <= hi + slack):
        raise MajorizationError(
            f"targets ({x1!r}, {x2!r}) must lie between the sources ({e1!r}, {e2!r})"
        )
    if abs(x1 - e1) <= tol or abs(e1 - e2) <= tol:
        sigma, tau, sigma_p, tau_p = 1.0, 0.0, 0.0, 1.0
        z_minus = z_o = 1.0
        h = alpha = 0.0
    elif abs(x2 - e1) <= tol:
        sigma, tau, sigma_p, tau_p = 0.0, 1.0, 1.0, 0.0
        z_minus = z_o = 0.0
        h = alpha = 0.0
    else:
        if x1 <= tol or x2 <= tol:
            raise MajorizationError(
                f"vanishing target weight ({x1!r}, {x2!r}) needs a matching source weight"
            )
        zo_over_e1 = (e1 - x2) / (x1 * (e1 - e2))
        z_o = e1 * zo_over_e1
        h = 4.0 * e1 * e2 * gamma * gamma / ((e1 - e2) * (e1 - e2))
        alpha = (e1 - e2) / (e1 - x2)
        disc = sqrt_clamped(4.0 * (alpha - 1.0) * h + alpha * alpha * h * h)
        denom = 2.0 + alpha * h + disc
        z_minus = 2.0 * z_o / denom
        zm_over_e1 = 2.0 * zo_over_e1 / denom
        s = 1.0 if e1 > e2 else -1.0
        sigma = sqrt_clamped(z_minus)
        tau = s * sqrt_clamped(e2 * (1.0 / x1 - zm_over_e1))
        sigma_p = sqrt_clamped((e1 - x1 * z_minus) / x2)
        tau_p = -s * sqrt_clamped((x1 * e2 / x2) * zm_over_e1)
    residual = (1.0 + gamma) * math.hypot(
        x1 * sigma * sigma + x2 * sigma_p * sigma_p - e1,
        math.sqrt(2.0) * (x1 * sigma * tau + x2 * sigma_p * tau_p),
        x1 * tau * tau + x2 * tau_p * tau_p - e2,
    )
    if check:
        for a, b in ((sigma, tau), (sigma_p, tau_p)):
            drift = abs(math.sqrt(max(a * a + b * b + 2.0 * gamma * a * b, 0.0)) - 1.0)
            if drift > horn.MIX_RESIDUAL_TOL:
                raise ValueError(f"mixed vector norm drifted by {drift:.3e}")
        if residual > horn.MIX_RESIDUAL_TOL:
            raise ValueError(f"mixing identity residual {residual:.3e} exceeds tolerance")
    return sigma, tau, sigma_p, tau_p, z_minus, z_o, h, alpha, residual


def _bits(run):
    """float.hex of each value run() returns, or its error's type and text."""
    try:
        return [[float(v).hex() for v in vals] for vals in run()]
    except Exception as exc:  # noqa: BLE001 -- errors are part of the outcome
        return type(exc), str(exc)


def _scalar_batch(cases, check):
    """The oracle on a batch: every mix's values, mix by mix, until one fails."""
    return [scalar_mix_coefficients(*case, check=check) for case in cases]


def _array_batch(cases, check):
    """The array core on a batch, read back mix by mix."""
    cols = [list(col) for col in zip(*cases)]
    out = horn._mix_coefficients(*cols[:4], np.array(cols[4]), check)
    return [[v[i] for v in out] for i in range(len(cases))]


@st.composite
def mix_cases(draw):
    """Sources e1, e2 in [1e-12, 1] and targets in the coincide, swap or
    generic branch, or just outside the sources, with the trace kept or,
    rarely, broken; gamma 0 or any overlap modulus."""
    weights = st.one_of(st.floats(1e-12, 1.0), st.sampled_from([1e-12, 2e-12, 0.5, 1.0]))
    e1, e2 = draw(weights), draw(weights)
    lo, hi = min(e1, e2), max(e1, e2)
    near = st.sampled_from([0.0, 5e-13, -5e-13, 2e-12, -2e-12, 1e-9, -1e-9, 2e-9])
    branch = draw(st.sampled_from(["generic", "coincide", "swap", "edge"]))
    if branch == "generic":
        x1 = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    elif branch == "coincide":
        x1 = e1 + draw(near)
    elif branch == "swap":
        x1 = e2 + draw(near)
    else:
        x1 = draw(st.sampled_from([lo, hi])) + draw(near)
    x2 = e1 + e2 - x1 + draw(st.sampled_from([0.0] * 6 + [1e-8]))
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    return e1, e2, x1, x2, gamma


@settings(max_examples=600, deadline=None)
@given(mix_cases(), st.booleans())
def test_array_core_matches_the_scalar_formulas(case, check):
    e1, e2, x1, x2, gamma = case
    want = _bits(lambda: [scalar_mix_coefficients(e1, e2, x1, x2, gamma, check)])
    assert _bits(lambda: _array_batch([case], check)) == want
    # mix_two's call: one-element arrays and a float gamma
    got = _bits(lambda: [[c[0] for c in horn._mix_coefficients([e1], [e2], [x1], [x2], gamma, check)]])
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(mix_cases(), min_size=1, max_size=12), st.booleans())
def test_array_core_raises_for_the_first_failing_mix(cases, check):
    assert _bits(lambda: _array_batch(cases, check)) == _bits(lambda: _scalar_batch(cases, check))


# one mix per check of the scalar step, in its order, with the text it raises
FAILING_MIXES = [
    ((0.5, -2e-12, 0.25, 0.25 - 2e-12, 0.0), "weights must be nonnegative, got -2e-12"),
    ((0.5, 0.25, 0.375, 0.375 + 1e-8, 0.0), "do not preserve the trace"),
    ((0.5, 0.25, 0.5 + 1e-6, 0.25 - 1e-6, 0.0), "must lie between the sources"),
    ((2.3096103082881043e-10, 4.613087121242089e-06, -6.402497203616284e-13,
      4.613318722522638e-06, 0.0), "vanishing target weight"),
    ((0.020943287259997598, 0.4813179801443985, 0.4813179805438673, 0.02094328686052882,
      0.999999999), "float division by zero"),
    ((0.02609418191414998, 1.897468280338513e-06, 0.02609418225697293, 1.897125457388238e-06,
      0.0), "mixing produced a negative square (-1.807e-04)"),
    ((1.025702739944923e-05, 0.0708632799706832, 0.0708632808285744, 1.0256169508240931e-05,
      0.8564005663967557), "mixed vector norm drifted by 4.246e-04"),
    ((0.71386991449318, 0.6825550974993021, 0.713869914498348, 0.6825550974941341, 0.0),
     "mixing identity residual 1.630e-10 exceeds tolerance"),
]


@pytest.mark.parametrize("case, text", FAILING_MIXES, ids=[t.split(" (")[0] for _, t in FAILING_MIXES])
def test_every_failing_check_raises_the_scalar_error(case, text):
    want = _bits(lambda: [scalar_mix_coefficients(*case)])
    assert text in want[1]
    good = (0.7, 0.3, 0.6, 0.4, 0.0)
    # alone, and after a mix that passes: the failing one is named
    assert _bits(lambda: _array_batch([case], True)) == want
    assert _bits(lambda: _array_batch([good, case, case], True)) == want
