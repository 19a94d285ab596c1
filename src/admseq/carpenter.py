"""Staged decomposition of projections into rank-one terms with prescribed weights.

Given a weight sequence xi passing the integrality test and an orthonormal
stream E_0, E_1, ..., these constructions write sum_i xi_i w_i w_i* equal to
the projection sum_j E_j E_j*, consuming the stream in stages.  Each stage is
a finite Horn placement against a majorant of the form (1, ..., 1, s..., r),
where fractional weights carry one boundary vector from stage to stage, or a
single 2x2 mix in the tail recursion.  Which staging applies is decided by how
the small entries mu (at most 1/2) and the defects lam = 1 - (large entries)
sum up; truncating at a stage budget leaves an explicit remainder term.

Each case is a planner feeding one stage driver, which runs every stage in
its own coordinates (C^k for the k stream vectors of a block stage, span{carry,
fresh} for a tail step) and checks its identity there once.  Only the emitted
terms reach the stream, a block stage's as E c for the dim x k matrix E of
those stream vectors.  No stage builds an operator on the ambient space."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice

from ._np import np
from .errors import (
    DimensionError,
    KadisonError,
    PlanningError,
    TraceMismatchError,
)
from .horn import _checked, _horn_place, mix_two
from .operators import RankOneDecomp, RankOneTerm, frame_operator, unit_vector
from .seqkit import (
    INT_SNAP,
    MajorizationVerdict,
    SplitSeq,
    WeightSeq,
    kadison_check,
    majorizes,
    split_mu_lambda,
    strip_zeros_ones,
)
from .streams import VectorStream

INF = math.inf

CASE_FINITE_RANK = "finite-rank"
CASE_MU_DIVERGES = "mu-divergent"
CASE_LAMBDA_DIVERGES = "lambda-divergent"
CASE_BOTH_SUMMABLE = "both-summable"
CASE_M_FINITE = "mu-finite"

TRACE_MATCH_TOL = 1e-10
DEFAULT_STAGES = 10
DEFAULT_EXTEND_LIMIT = 10_000
CARRY = -1  # source position of the tail steps' running carry


@dataclass(frozen=True)
class CaseTag:
    """Which staged construction applies, with the split bookkeeping.

    ``k`` is the integer sum(lam) - sum(mu) when both sums are finite;
    ``M`` and ``N`` count the small entries and the defects (inf allowed).
    """

    tag: str
    k: int | None
    M: float
    N: float


@dataclass(frozen=True)
class BlockPlan:
    """One stage: Horn-place ``targets`` against the pooled ``sources``.

    ``sources`` lists (stream position, coefficient) pairs; coefficient 1
    consumes the vector outright, fractions carry boundary vectors between
    stages.  ``colinear`` terms are emitted directly along a single stream
    vector and bypass the Horn step.  A source at position ``CARRY`` is the
    running carry of the tail steps; only tail steps have one."""

    targets: tuple[float, ...]
    sources: tuple[tuple[int, float], ...]
    colinear: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class _TailStep(BlockPlan):
    """A tail step of ``_plan_tail``, with the cap on its mixing coefficient."""

    sigma_cap: float | None = None


@dataclass(frozen=True)
class StageCertificate:
    """Per-stage evidence: what was consumed, the majorization that licensed
    the placement, and the reconstruction residual of the stage identity.
    2x2 steps also record their mixing coefficient and its proven cap.

    ``residual`` is the Frobenius norm of the stage identity's residual in
    the stage's local coordinates: sum_j x_j c_j c_j* - diag(consumed) on C^k
    for a block stage, the coefficient bound of ``MixResult.residual`` for a
    2x2 step.  The stream vectors map C^k isometrically into the ambient
    space, so it bounds every entry of the ambient residual."""

    stage: int
    consumed: tuple[tuple[int, float], ...]
    targets: tuple[float, ...]
    majorization: MajorizationVerdict
    residual: float
    sigma: float | None = None
    sigma_cap: float | None = None


def _stage_residual(local_terms, consumed) -> float:
    """Check sum_j x_j c_j c_j* - diag(consumed) on C^k once; its Frobenius norm."""
    k = len(consumed)
    R = frame_operator(local_terms, dim=k) - np.diag(np.asarray(consumed, dtype=complex))
    return float(np.linalg.norm(_checked(R)))


def _embed(local_terms, stream: VectorStream, positions, dim: int) -> list[RankOneTerm]:
    """Terms on C^k mapped to the stream: c becomes sum_i c_i E_i for the
    stream vectors E_i at ``positions``, in C^dim."""
    if not local_terms:
        return []
    rows = np.array([stream.vector(pos, dim) for pos in positions])
    dense = np.array([t.vector for t in local_terms]) @ rows
    return [RankOneTerm(t.weight, v) for t, v in zip(local_terms, dense)]


def _snap_int(x: float, tol: float = INT_SNAP) -> int:
    n = round(x)
    if abs(x - n) > tol:
        raise PlanningError(f"expected an integer within {tol}, got {x!r}")
    return int(n)


def _classify(seq: WeightSeq) -> tuple[CaseTag, SplitSeq]:
    """Gate seq and split it once: the case tag and the split it was read from."""
    rep = kadison_check(seq)
    if not rep.satisfied:
        raise KadisonError(
            f"weights fail the integrality test (a={rep.a!r}, b={rep.b!r})"
        )
    sp = split_mu_lambda(seq)
    mu_sum, lam_sum = sp.totals
    k = _snap_int(lam_sum - mu_sum) if mu_sum < INF and lam_sum < INF else None
    if sp.N < INF and mu_sum < INF:  # finite total core weight
        return CaseTag(CASE_FINITE_RANK, k, sp.M, sp.N), sp
    if mu_sum == INF:
        return CaseTag(CASE_MU_DIVERGES, None, sp.M, sp.N), sp
    if lam_sum == INF:
        return CaseTag(CASE_LAMBDA_DIVERGES, None, sp.M, sp.N), sp
    if sp.M == INF and sp.N == INF:
        return CaseTag(CASE_BOTH_SUMMABLE, k, sp.M, sp.N), sp
    return CaseTag(CASE_M_FINITE, k, sp.M, sp.N), sp


def classify_case(xi) -> CaseTag:
    """Decide which construction handles xi (0 and 1 entries set aside).

    Requires the integrality condition; the order of tests is: finite total
    core weight, divergent mu, divergent lam, both summable with infinitely
    many entries of each kind, and finally finitely many mu entries."""
    return _classify(xi if isinstance(xi, WeightSeq) else WeightSeq.finite(xi))[0]


# -- the finite construction ------------------------------------------

def _trace_count(vals) -> int:
    """The integer n = sum(vals): how many stream vectors the weights fill."""
    total = math.fsum(vals)
    n = round(total)
    if abs(total - n) > TRACE_MATCH_TOL:
        raise TraceMismatchError(
            f"total weight {total!r} is not an integer, so no projection matches"
        )
    return n


def decompose_finite_rank(values, stream: VectorStream, tol: float = 1e-12):
    """Write a finite [0,1] weight list against exactly n = sum(values)
    orthonormal vectors: a Horn placement of the head against (1,...,1,r)
    and the remaining weights peeled along the last vector."""
    vals = [float(v) for v in values]
    if any(v < 0.0 or v > 1.0 for v in vals):
        raise PlanningError("finite-rank weights must lie in [0, 1]")
    n = _trace_count(vals)
    if stream.count is None:
        raise TraceMismatchError("finite total weight needs a finite stream")
    if stream.count != n:
        raise TraceMismatchError(
            f"total weight {n} but the stream provides {stream.count} vectors"
        )
    if n == 0:
        raise TraceMismatchError("cannot decompose against an empty stream")
    return _finite_rank_stage(vals, stream, n, stream.min_dim(n - 1), tol)


def _finite_rank_stage(vals, stream: VectorStream, n: int, dim: int, tol: float):
    """The finite-rank placement of ``vals`` (summing to n) on stream vectors
    0..n-1 as one block stage, certified as taking all n vectors whole."""
    acc = 0.0
    m = 0
    for i, v in enumerate(vals):
        if acc + v < n - tol:
            acc += v
            m = i + 1
        else:
            break
    r = acc - (n - 1)  # in [0, 1) by maximality of m

    sources = [(i, 1.0) for i in range(n - 1)]
    if r > tol:
        sources.append((n - 1, r))
    plan = BlockPlan(tuple(vals[:m]), tuple(sources), tuple((n - 1, v) for v in vals[m:]))
    local = _place(plan, range(n), tol)
    cert = StageCertificate(
        stage=0,
        consumed=tuple((stream.base_index(j), 1.0) for j in range(n)),
        targets=tuple(vals),
        majorization=majorizes(vals, [1.0] * n),
        residual=_stage_residual(local, [1.0] * n),
    )
    return tuple(_embed(local, stream, range(n), dim)), (cert,)


# -- staged planners ---------------------------------------------------

def _padded(seq: WeightSeq):
    yield from seq
    while True:  # only reached for the finite kind
        yield 0.0


def plan_mu_diverges(mu: WeightSeq, lam: WeightSeq, extend_limit: int = DEFAULT_EXTEND_LIMIT):
    """Stages for divergent mu: each consumes a run of mu entries plus one
    large entry (while lam lasts), against (1 - r_prev, 1, r_new); after lam
    is exhausted, mu-only runs against (1 - r_prev, r_new)."""
    mu_it = iter(mu)

    def take_run(need: float, stage: int) -> tuple[list[float], float]:
        run: list[float] = []
        run_sum = 0.0
        while run_sum < need - 1e-15:
            if len(run) >= extend_limit:
                raise PlanningError(
                    f"stage {stage} needs more than {extend_limit} small entries"
                )
            v = next(mu_it)
            run.append(v)
            run_sum += v
        return run, max(math.fsum(run) - need, 0.0)

    next_idx = 0
    r_prev = 0.0
    stage = 0
    for lam_val in lam:  # ends when the defects run out
        run, r_new = take_run(2.0 - r_prev - (1.0 - lam_val), stage)
        sources = [(next_idx, 1.0 - r_prev), (next_idx + 1, 1.0)]
        if r_new > 0.0:
            sources.append((next_idx + 2, r_new))
        yield BlockPlan(tuple(run) + (1.0 - lam_val,), tuple(sources))
        next_idx += 2
        r_prev = r_new
        stage += 1
    while True:  # lam exhausted: mu-only stages
        run, r_new = take_run(1.0 - r_prev, stage)
        sources = [(next_idx, 1.0 - r_prev)]
        if r_new > 0.0:
            sources.append((next_idx + 1, r_new))
        yield BlockPlan(tuple(run), tuple(sources))
        next_idx += 1
        r_prev = r_new
        stage += 1


def plan_lambda_diverges(
    mu: WeightSeq, lam: WeightSeq, extend_limit: int = DEFAULT_EXTEND_LIMIT
):
    """Stages for divergent lam with finitely many mu entries.

    The mu entries are first-fit packed into bins of capacity 1, each bin
    emitted along its own stream vector; the first stage places a long run
    of large entries against the bins' slack plus fresh vectors, and later
    stages carry only the boundary fraction."""
    if not mu.is_finite:
        raise PlanningError("this staging needs finitely many small entries")
    bins: list[list[float]] = []
    sums: list[float] = []
    for v in mu.values:
        for i, s in enumerate(sums):
            if s + v <= 1.0 + 1e-12:
                bins[i].append(v)
                sums[i] += v
                break
        else:
            bins.append([v])
            sums.append(v)
    K = len(bins)

    lam_it = iter(lam)
    stage = 0
    next_idx = K
    r_prev = 0.0
    while True:
        slacks = [1.0 - s for s in sums] if stage == 0 else ([1.0 - r_prev] if r_prev > 0.0 else [])
        kp = K if stage == 0 else (1 if r_prev > 0.0 else 0)
        threshold = 2.0 * kp + 1.0
        run: list[float] = []
        run_sum = 0.0
        while run_sum < threshold - 1e-15:
            if len(run) >= extend_limit:
                raise PlanningError(
                    f"stage {stage} needs more than {extend_limit} large entries"
                )
            v = next(lam_it)
            run.append(v)
            run_sum += v
        x = math.fsum(1.0 - v for v in run) - math.fsum(slacks)
        n_full = int(math.floor(x))
        r_new = x - n_full
        if n_full < kp + 1:
            raise PlanningError(f"stage {stage} cannot reach enough full vectors")
        if stage == 0:
            sources = [(k, 1.0 - sums[k]) for k in range(K) if 1.0 - sums[k] > 0.0]
            sources += [(K + i, 1.0) for i in range(n_full)]
            boundary = K + n_full
            colinear = tuple(
                (k, w) for k in range(K) for w in bins[k]
            )
        else:
            start = next_idx
            if r_prev > 0.0:
                sources = [(start, 1.0 - r_prev)]
                first_fresh = start + 1
            else:  # previous boundary vector was left untouched
                sources = []
                first_fresh = start
            sources += [(first_fresh + i, 1.0) for i in range(n_full)]
            boundary = first_fresh + n_full
            colinear = ()
        if r_new > 0.0:
            sources.append((boundary, r_new))
        yield BlockPlan(tuple(1.0 - v for v in run), tuple(sources), colinear)
        next_idx = boundary
        r_prev = r_new
        stage += 1


def plan_both_summable(
    mu: WeightSeq, lam: WeightSeq, extend_limit: int = DEFAULT_EXTEND_LIMIT
):
    """Stages for summable mu and lam with infinitely many entries of each.

    Stage boundaries n_j, m_j are chosen so the tail sums interlock:
    lam-tail(n_j+1) dominates mu-tail(m_j+1), making each carried fraction
    r_j = lam-tail - mu-tail land in [0, 1/2).  The targets are read from one
    iterator over mu and one over lam, each entry once."""
    k = _snap_int(lam.total() - mu.total())
    n_j = max(k + 1, 1)
    guard = 0
    while lam.tail_sum(n_j) >= 0.5:
        n_j += 1
        guard += 1
        if guard > extend_limit:
            raise PlanningError("could not find a starting boundary")
    m_j = 0
    while mu.tail_sum(m_j) > lam.tail_sum(n_j):
        m_j += 1
        if m_j > extend_limit:
            raise PlanningError("could not align the small-entry boundary")
    r_j = lam.tail_sum(n_j) - mu.tail_sum(m_j)
    mu_it, lam_it = iter(mu), iter(lam)
    targets = tuple(islice(mu_it, m_j)) + tuple(1.0 - v for v in islice(lam_it, n_j))
    sources = [(i, 1.0) for i in range(n_j - k)]
    if r_j > 0.0:
        sources.append((n_j - k, r_j))
    yield BlockPlan(targets, tuple(sources))

    boundary = n_j - k
    while True:
        n_next = n_j + 2
        guard = 0
        while lam.tail_sum(n_next) > mu.tail_sum(m_j):
            n_next += 1
            guard += 1
            if guard > extend_limit:
                raise PlanningError("could not advance the large-entry boundary")
        m_next = m_j + 1
        guard = 0
        while mu.tail_sum(m_next) > lam.tail_sum(n_next):
            m_next += 1
            guard += 1
            if guard > extend_limit:
                raise PlanningError("could not advance the small-entry boundary")
        r_next = lam.tail_sum(n_next) - mu.tail_sum(m_next)
        targets = tuple(islice(mu_it, m_next - m_j)) + tuple(
            1.0 - v for v in islice(lam_it, n_next - n_j)
        )
        fresh = n_next - n_j - 1
        sources = [(boundary, 1.0 - r_j)] if r_j > 0.0 else [(boundary, 1.0)]
        sources += [(boundary + 1 + i, 1.0) for i in range(fresh)]
        new_boundary = boundary + 1 + fresh
        if r_next > 0.0:
            sources.append((new_boundary, r_next))
        yield BlockPlan(targets, tuple(sources))
        n_j, m_j, r_j, boundary = n_next, m_next, r_next, new_boundary


# -- the stage driver --------------------------------------------------

def _place(plan: BlockPlan, positions, tol: float, verdict=None) -> list[RankOneTerm]:
    """A block stage's terms on C^k, its k sorted positions as the standard
    basis; ``verdict`` is the stage's majorization test, if already made."""
    basis = dict(zip(positions, np.eye(len(positions), dtype=complex)))
    local: list[RankOneTerm] = []
    if plan.targets:
        pool = [RankOneTerm(c, basis[pos]) for pos, c in plan.sources]
        local += _horn_place(pool, plan.targets, tol, verdict=verdict)
    return local + [RankOneTerm(w, basis[pos]) for pos, w in plan.colinear]


def realize_block_plans(
    plans,
    stream: VectorStream,
    dim: int | None = None,
    first_stage: int = 0,
    tol: float = 1e-12,
):
    """Carry out Horn placements for each plan, returning terms and
    certificates (the stage driver, without its remainder)."""
    return _realize(plans, stream, dim, first_stage, tol)[:2]


def _realize(plans, stream: VectorStream, dim=None, first_stage=0, tol=1e-12, carry=None):
    """The stage driver.  A block stage's k consumed stream positions are the
    standard basis of C^k: the placement runs there and the stage identity is
    checked once, against diag(consumed), as a k x k residual.  A tail step
    mixes the carry with one fresh vector and hands the new carry on; the
    first carry is ``carry``, which block stages leave alone.  Returns the
    terms in C^dim, the certificates and the remainder: the last carry, or
    for block stages alone what is left of their last boundary vector."""
    plans = list(plans)
    if dim is None:
        top = max((pos for p in plans for pos, _ in p.sources + p.colinear), default=0)
        dim = stream.min_dim(top)
    terms: list[RankOneTerm] = []
    certs: list[StageCertificate] = []
    used: dict[int, float] = {}  # each position's share over all stages
    for i, plan in enumerate(plans):
        consumed: dict[int, float] = {}
        for pos, c in plan.sources + plan.colinear:
            if pos != CARRY:
                consumed[pos] = consumed.get(pos, 0.0) + c
                used[pos] = used.get(pos, 0.0) + c
        positions = sorted(consumed)
        # the certificate's verdict, at SUM_TOL; it also licenses the placement,
        # whose own tolerance max(tol, 1e-11) is looser
        majorization = majorizes(plan.targets, [c for _, c in plan.sources])
        sigma = sigma_cap = None
        if isinstance(plan, _TailStep):
            fresh = stream.vector(positions[0], dim)
            # one 2x2 mix in span{carry, fresh}, where carry is (1, 0) and fresh
            # (g, sqrt(1 - |g|^2)) in an orthonormal basis; the dense w and w'
            # are then formed once from the mixing coefficients
            g = complex(np.vdot(carry.vector, fresh))
            carry_local = np.array([1.0, 0.0], dtype=complex)
            fresh_local = np.array([g, math.sqrt(max(1.0 - abs(g) ** 2, 0.0))])
            (_, e1), (_, e2) = plan.sources
            res = mix_two(e1, e2, carry_local, fresh_local, *plan.targets, tol=tol)
            phase = np.exp(-1j * np.angle(g)) if g else 1.0
            w = res.sigma * carry.vector + (res.tau * phase) * fresh
            w_prime = res.sigma_prime * carry.vector + (res.tau_prime * phase) * fresh
            terms.append(RankOneTerm(plan.targets[1], w_prime))
            nrm = float(np.linalg.norm(w))
            carry = RankOneTerm(plan.targets[0], w / nrm if nrm > 0 else w)
            targets, residual = plan.targets[1:], res.residual
            sigma, sigma_cap = res.sigma, plan.sigma_cap
        else:
            local = _place(plan, positions, tol, majorization)
            residual = _stage_residual(local, [consumed[pos] for pos in positions])
            terms += _embed(local, stream, positions, dim)
            targets = plan.targets + tuple(w for _, w in plan.colinear)
        certs.append(
            StageCertificate(
                stage=first_stage + i,
                consumed=tuple((stream.base_index(pos), consumed[pos]) for pos in positions),
                targets=targets,
                majorization=majorization,
                residual=residual,
                sigma=sigma,
                sigma_cap=sigma_cap,
            )
        )
    if carry is None and used:  # block stages alone: the rest of their top position
        top = max(used)
        if 1.0 - used[top] > 1e-15:
            carry = RankOneTerm(1.0 - used[top], stream.vector(top, dim))
    return tuple(terms), tuple(certs), () if carry is None else (carry,)


# -- the tail recursion -------------------------------------------------

def keycase_recursion(
    lam: WeightSeq,
    stream: VectorStream,
    steps: int,
    dim: int | None = None,
    first_stage: int = 0,
    carry_vector=None,
    tol: float = 1e-12,
):
    """Decompose (1 - S(0)) E_0 E_0* + sum_{t>=1} E_t E_t* into weights
    1 - lam_t, one 2x2 mix per step, carrying a shrinking remainder.

    Requires sum(lam) < 1.  Returns the emitted terms, one certificate per
    step (with the mixing coefficient and its cap), and the final carry
    term (1 - S(steps)) x x*.
    """
    s_prev = lam.total()
    if not s_prev < 1.0:
        raise PlanningError(f"tail recursion needs total defect below 1, got {s_prev!r}")
    if steps < 0:
        raise PlanningError("step count must be nonnegative")
    if dim is None:
        dim = stream.min_dim(steps)
    carry = stream.vector(0, dim) if carry_vector is None else np.asarray(carry_vector, dtype=complex)
    if len(carry) != dim:
        raise DimensionError("carry vector does not match the working dimension")
    carry = RankOneTerm(1.0 - s_prev, unit_vector(carry))
    steps_ = islice(_plan_tail(_padded(lam), lam, 1), steps)
    terms, certs, (carry,) = _realize(steps_, stream, dim, first_stage, tol, carry)
    return terms, certs, carry


def _plan_tail(lam_it, lam: WeightSeq, fresh: int):
    """Tail steps with S(t) = lam.tail_sum(t) in closed form: step t mixes the
    carry, weight 1 - S(t), with the stream vector at position fresh + t into
    the carry 1 - S(t+1) and the emitted 1 - lam_t, lam_t read from lam_it."""
    s_prev = lam.total()
    for t in count():
        lam_t = next(lam_it)
        s_next = lam.tail_sum(t + 1)
        cap = None
        if s_prev > 0.0 and s_next < 1.0:
            cap = (1.0 - s_prev) * s_next / (s_prev * (1.0 - s_next))
        yield _TailStep(
            (1.0 - s_next, 1.0 - lam_t),
            ((CARRY, 1.0 - s_prev), (fresh + t, 1.0)),
            sigma_cap=None if cap is None else math.sqrt(max(cap, 0.0)),
        )
        s_prev = s_next


def decompose_m_finite(
    mu: WeightSeq,
    lam: WeightSeq,
    stream: VectorStream,
    stages: int,
    extend_limit: int = DEFAULT_EXTEND_LIMIT,
    tol: float = 1e-12,
):
    """Finitely many small entries, summable defects, infinitely many large
    entries: one Horn head block against (1,...,1, r), then the tail
    recursion, whose first carry is the boundary vector n - k with weight
    1 - r (all of it when r is 0 and the head leaves it untouched).  The
    emitted weights come from one pass over lam, each its input entry."""
    if not mu.is_finite:
        raise PlanningError("this staging needs finitely many small entries")
    k = _snap_int(lam.total() - mu.total())
    n = max(k + 2, 0)
    guard = 0
    while lam.tail_sum(n) >= 1.0:
        n += 1
        guard += 1
        if guard > extend_limit:
            raise PlanningError("could not find a head boundary with a small tail")
    r = lam.tail_sum(n)

    lam_it = _padded(lam)
    head_targets = tuple(mu.values) + tuple(1.0 - next(lam_it) for _ in range(n))
    sources = [(i, 1.0) for i in range(n - k)]
    if r > 0.0:
        sources.append((n - k, r))
    tail = lam.drop(n)
    plans = [BlockPlan(head_targets, tuple(sources))]
    plans += islice(_plan_tail(lam_it, tail, n - k + 1), max(stages - 1, 0))
    dim = stream.min_dim(n - k + len(plans) - 1)
    carry = RankOneTerm(1.0 - tail.total(), unit_vector(stream.vector(n - k, dim)))
    terms, certs, (carry,) = _realize(plans, stream, dim, tol=tol, carry=carry)
    return terms, certs, carry


# -- the orchestrator ---------------------------------------------------

def carpenter_decompose(
    xi,
    stream: VectorStream,
    stages: int = DEFAULT_STAGES,
    extend_limit: int = DEFAULT_EXTEND_LIMIT,
    tol: float = 1e-12,
):
    """Decompose the stream's projection with the prescribed weights.

    Returns (decomposition, certificates, case tag).  The decomposition's
    ordinary terms carry exactly the requested weights; remainder terms
    record partially consumed boundary vectors of the truncated staging, so
    terms plus remainder reproduce the compression onto everything touched.

    With infinite total weight the staged construction sees only the core,
    the entries strictly inside (0, 1).  Each entry 1 takes a whole stream
    vector; each entry 0 takes none and is emitted first, with weight 0 on
    the first vector used.  The ones are laid out in one of three ways:
    finitely many ones take the first stream vectors and the core the rest;
    infinitely many ones beside an infinite core take the even vectors
    (``thin(0, 2)``) and the core the odd ones (``thin(1, 2)``); infinitely
    many ones after a finite core take the vectors after the core's.  An
    infinite count of ones or zeros is truncated to ``stages`` terms.
    """
    seq = xi if isinstance(xi, WeightSeq) else WeightSeq.finite(xi)
    tag, sp = _classify(seq)  # raises KadisonError when the test fails
    if stages < 1:
        raise PlanningError("need at least one stage")

    if tag.tag == CASE_FINITE_RANK and sp.ones_count < INF:
        if seq.kind not in ("finite", "finitely-supported"):
            raise PlanningError(
                "finite total weight with infinite support is out of scope here"
            )
        terms, certs = decompose_finite_rank(seq.values, stream, tol=tol)
        return RankOneDecomp(terms), certs, tag

    if stream.count is not None:
        raise TraceMismatchError("infinite total weight needs an infinite stream")

    # where the ones go: (ones stream, core stream, ones first)
    n_ones = int(sp.ones_count) if sp.ones_count < INF else stages
    if sp.ones_count < INF:
        ones_stream, core_stream, ones_first = stream, stream.drop(n_ones), True
    elif tag.tag != CASE_FINITE_RANK:
        ones_stream, core_stream, ones_first = stream.thin(0, 2), stream.thin(1, 2), True
    else:
        core = strip_zeros_ones(seq)[0]
        if not core.is_finite:
            raise PlanningError(
                "finite core weight with infinite support is out of scope here"
            )
        m0 = _trace_count(core.values)
        ones_stream, core_stream, ones_first = stream.drop(m0), stream, False

    if ones_first:
        core_terms, certs, remainder = _decompose_core(
            tag, sp, core_stream, stages, extend_limit, tol
        )
        # a staged core takes a fresh stream vector in every stage, so its
        # dimension already holds the ones before or beside it
        dim = len(core_terms[0].vector)
    else:  # a finite core is placed in the dimension the ones after it need
        dim = ones_stream.min_dim(n_ones - 1)
        core_terms, certs = (
            _finite_rank_stage(core.values, core_stream, m0, dim, tol) if m0 else ((), ())
        )
        remainder = ()
    ones = tuple(RankOneTerm(1.0, ones_stream.vector(j, dim)) for j in range(n_ones))
    terms = ones + core_terms if ones_first else core_terms + ones

    n_zero = int(sp.zeros_count) if sp.zeros_count < INF else stages
    zero_terms = tuple(RankOneTerm(0.0, terms[0].vector) for _ in range(n_zero))
    return RankOneDecomp(zero_terms + terms, remainder), certs, tag


def _decompose_core(tag, sp, stream, stages, extend_limit, tol):
    """Plan the stripped core's first ``stages`` stages and realize them."""
    if tag.tag == CASE_MU_DIVERGES:
        gen = plan_mu_diverges(sp.mu, sp.lam, extend_limit=extend_limit)
    elif tag.tag == CASE_LAMBDA_DIVERGES:
        gen = plan_lambda_diverges(sp.mu, sp.lam, extend_limit=extend_limit)
    elif tag.tag == CASE_BOTH_SUMMABLE:
        gen = plan_both_summable(sp.mu, sp.lam, extend_limit=extend_limit)
    elif tag.tag == CASE_M_FINITE:
        terms, certs, carry = decompose_m_finite(sp.mu, sp.lam, stream, stages, extend_limit, tol)
        return terms, certs, (carry,)
    else:
        raise PlanningError(f"no staged construction for case {tag.tag!r}")
    return _realize(islice(gen, stages), stream, tol=tol)
