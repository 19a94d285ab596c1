"""Staged decomposition of projections into rank-one terms with prescribed weights.

Given a weight sequence xi passing the integrality test and an orthonormal
stream E_0, E_1, ..., these constructions write sum_i xi_i w_i w_i* equal to
the projection sum_j E_j E_j*, consuming the stream in stages.  Each stage is
a finite Horn placement against a majorant of the form (1, ..., 1, s..., r),
where fractional weights carry one boundary vector from stage to stage, or a
single 2x2 mix in the tail recursion.  Which staging applies is decided by how
the small entries mu (at most 1/2) and the defects lam = 1 - (large entries)
sum up; truncating at a stage budget leaves an explicit remainder term.

``carpenter_decompose`` is the one public entry into the finite-rank case
(Kadison's carpenter's theorem), a single block stage, and into the
mu-finite case, a Horn head block followed by the 2x2 tail recursion.  Each
staged case is a planner feeding one stage driver, which runs every stage in
its own coordinates (R^k for the k stream vectors of a block stage, the
orthonormal pair span{carry, fresh} for a tail step) and checks its identity
there once.  Every mix there has gamma = 0, so a block stage's placement is
decided in its weights and every mix of a run is computed in one call of
the array core; no stage depends on the ambient dimension, and an S-stage
run is the first S stages of a longer one.  Each layer takes the whole run
in one pass: one batched majorization of every stage, then ``horn``'s
passes, which schedule every block stage in flat lists of weights and rows,
place every mix, and certify and embed every block stage, stacking stages
of one shape (the finite-rank stage is a run of one).  A block stage's terms
are the rows of C E for its real coefficient matrix C and the matrix E of
its stream vectors over the columns they cover, written into one matrix for
the whole run, which becomes the decomposition's ``RankOneDecomp.rows``.

The planners share one vocabulary for what a stage is: ``_take_run`` draws
the run of weights it places, ``_sources`` lays out the pool it places them
against (the carried fraction 1 - r_prev, whole stream vectors, then r_new of
the boundary vector), and ``_advance`` finds the boundary indices n_j, m_j
where the tail sums interlock, asking for each tail sum once."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice

from ._np import np
from .errors import KadisonError, PlanningError, TraceMismatchError
from .horn import PLACE_TOL, _block_stages, _place_rows, _place_stage, _schedule
from .operators import RankOneDecomp
from .seqkit import (
    INT_SNAP,
    KIND_FINITE,
    KIND_FINITELY_SUPPORTED,
    MajorizationVerdict,
    SplitSeq,
    WeightSeq,
    _majorizes_many,
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
RUN_SLACK = 1e-15  # a run's entries meet its need when they sum to need - RUN_SLACK
BIN_SLACK = 1e-12  # a first-fit bin of small entries holds up to 1 + BIN_SLACK
REMAINDER_FLOOR = 1e-15  # a top vector's leftover at most this leaves no remainder term
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
    the stage's local coordinates: C^T diag(x) C - diag(consumed) on R^k
    for a block stage, the coefficient bound of ``MixResult.residual`` for a
    2x2 step.  The stream vectors map R^k isometrically into the ambient
    space, so it bounds every entry of the ambient residual."""

    stage: int
    consumed: tuple[tuple[int, float], ...]
    targets: tuple[float, ...]
    majorization: MajorizationVerdict
    residual: float
    sigma: float | None = None
    sigma_cap: float | None = None


def _snap_int(x: float) -> int:
    n = round(x)
    if abs(x - n) > INT_SNAP:
        raise PlanningError(f"expected an integer within {INT_SNAP}, got {x!r}")
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


def _finite_rank_stage(vals, stream: VectorStream, n: int, dim: int, lead=0, trail=0):
    """The finite-rank placement of ``vals`` (summing to n) on stream vectors
    0..n-1 as one block stage, certified as taking all n vectors whole.
    Returns one matrix in C^dim of ``lead`` rows left to the caller, the term
    vectors and ``trail`` rows left to the caller, the terms' weights and the
    certificates.  For n = 0 no stage runs and no term is emitted."""
    vals = vals if n else ()
    rows = np.zeros((lead + len(vals) + trail, dim), dtype=complex)
    if not vals:
        return rows, [], ()
    acc, m = 0.0, 0
    while m < len(vals) and acc + vals[m] < n - PLACE_TOL:
        acc += vals[m]
        m += 1
    r = acc - (n - 1)  # in [0, 1) by maximality of m
    sources, _ = _sources(0, 0.0, n - 1, r if r > PLACE_TOL else 0.0)
    m = m if sources else 0  # no pool (n = 1, a head of at most PLACE_TOL): all along vector 0
    along = [p for p, _ in sources] + [n - 1] * (len(vals) - m)  # the pool's vectors, then the rest along n - 1
    weights = [float(v) for v in vals]
    residual = _place_stage(weights, m, [c for _, c in sources], along, np.ones(n), *stream._supports(np.arange(n)),
                            rows[lead:])
    consumed, verdict = tuple((stream.base_index(j), 1.0) for j in range(n)), majorizes(vals, [1.0] * n)
    return rows, weights, (StageCertificate(0, consumed, tuple(vals), verdict, residual),)


# -- staged planners ---------------------------------------------------

def _padded(seq: WeightSeq):
    yield from seq
    while True:  # only reached for the finite kind
        yield 0.0


def _take_run(it, need: float, stage: int, what: str) -> list[float]:
    """Entries drawn from ``it`` until they sum to ``need`` (``RUN_SLACK`` short),
    at most ``DEFAULT_EXTEND_LIMIT`` of them; a finite ``it`` may run out first."""
    run: list[float] = []
    run_sum = 0.0
    while run_sum < need - RUN_SLACK:
        if len(run) >= DEFAULT_EXTEND_LIMIT:
            raise PlanningError(
                f"stage {stage} needs more than {DEFAULT_EXTEND_LIMIT} {what} entries"
            )
        v = next(it, None)
        if v is None:
            raise PlanningError(f"stage {stage} ran out of {what} entries")
        run.append(v)
        run_sum += v
    return run


def _sources(lead: int, first: float, n_full: int, r_new: float):
    """A stage's pool from stream position ``lead`` on: ``first`` of the vector
    at ``lead`` when positive (the carried fraction 1 - r_prev), then
    ``n_full`` whole vectors, then ``r_new`` of the boundary vector after them
    when positive.  Returns the pool and the boundary position."""
    pool = [(lead, first)] if first > 0.0 else []
    fresh = lead + len(pool)
    pool += [(fresh + i, 1.0) for i in range(n_full)]
    boundary = fresh + n_full
    if r_new > 0.0:
        pool.append((boundary, r_new))
    return tuple(pool), boundary


def _advance(tail, i: int, past, what: str) -> tuple[int, float]:
    """The first index from ``i`` on whose tail sum fails ``past``, and that
    tail sum, in at most ``DEFAULT_EXTEND_LIMIT`` steps; each tail sum is
    asked once."""
    start = i
    while past(s := tail(i)):
        if i - start >= DEFAULT_EXTEND_LIMIT:
            raise PlanningError(what)
        i += 1
    return i, s


def plan_mu_diverges(mu: WeightSeq, lam: WeightSeq):
    """Stages for divergent mu: each consumes a run of mu entries plus one
    large entry (while lam lasts), against (1 - r_prev, 1, r_new); after lam
    is exhausted, mu-only runs against (1 - r_prev, r_new)."""
    mu_it, lam_it = iter(mu), iter(lam)
    lead = 0
    r_prev = 0.0
    for stage in count():
        lam_val = next(lam_it, None)
        if lam_val is None:  # lam exhausted: a mu-only stage
            need, large = 1.0 - r_prev, ()
        else:
            need, large = 2.0 - r_prev - (1.0 - lam_val), (1.0 - lam_val,)
        run = _take_run(mu_it, need, stage, "small")
        r_new = max(math.fsum(run) - need, 0.0)
        sources, lead = _sources(lead, 1.0 - r_prev, len(large), r_new)
        yield BlockPlan(tuple(run) + large, sources)
        r_prev = r_new


def plan_lambda_diverges(mu: WeightSeq, lam: WeightSeq):
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
            if s + v <= 1.0 + BIN_SLACK:
                bins[i].append(v)
                sums[i] += v
                break
        else:
            bins.append([v])
            sums.append(v)

    lam_it = iter(lam)
    slacks = [1.0 - s for s in sums]  # the fractions a stage carries in
    slack = tuple((i, c) for i, c in enumerate(slacks) if c > 0.0)
    colinear = tuple((i, w) for i, b in enumerate(bins) for w in b)
    lead, first = len(bins), 0.0
    for stage in count():
        kp = len(slacks)
        run = _take_run(lam_it, 2.0 * kp + 1.0, stage, "large")
        x = math.fsum(1.0 - v for v in run) - math.fsum(slacks)
        n_full = int(math.floor(x))
        r_new = x - n_full
        if n_full < kp + 1:
            raise PlanningError(f"stage {stage} cannot reach enough full vectors")
        sources, lead = _sources(lead, first, n_full, r_new)
        yield BlockPlan(tuple(1.0 - v for v in run), slack + sources, colinear)
        # later stages carry only the boundary fraction; an untouched
        # boundary vector (r_new = 0) counts among the next stage's whole ones
        first = 1.0 - r_new if r_new > 0.0 else 0.0
        slacks, slack, colinear = [first] if first else [], (), ()


def plan_both_summable(mu: WeightSeq, lam: WeightSeq):
    """Stages for summable mu and lam with infinitely many entries of each.

    Stage boundaries n_j, m_j are chosen so the tail sums interlock:
    lam-tail(n_j+1) dominates mu-tail(m_j+1), making each carried fraction
    r_j = lam-tail - mu-tail land in [0, 1/2).  The targets are read from one
    iterator over mu and one over lam, each entry once, and each boundary's
    tail sum is asked for once."""
    k = _snap_int(lam.total() - mu.total())
    n_j, lam_n = _advance(
        lam.tail_sum, max(k + 1, 1), lambda s: s >= 0.5, "could not find a starting boundary"
    )
    m_j, mu_m = _advance(
        mu.tail_sum, 0, lambda s: s > lam_n, "could not align the small-entry boundary"
    )
    mu_it, lam_it = iter(mu), iter(lam)
    targets = tuple(islice(mu_it, m_j)) + tuple(1.0 - v for v in islice(lam_it, n_j))
    r_j = lam_n - mu_m
    sources, boundary = _sources(0, 0.0, n_j - k, r_j)
    yield BlockPlan(targets, sources)
    while True:
        n_next, lam_n = _advance(
            lam.tail_sum, n_j + 2, lambda s: s > mu_m, "could not advance the large-entry boundary"
        )
        m_next, mu_m = _advance(
            mu.tail_sum, m_j + 1, lambda s: s > lam_n, "could not advance the small-entry boundary"
        )
        targets = tuple(islice(mu_it, m_next - m_j)) + tuple(
            1.0 - v for v in islice(lam_it, n_next - n_j)
        )
        r_next = lam_n - mu_m
        sources, boundary = _sources(boundary, 1.0 - r_j, n_next - n_j - 1, r_next)
        yield BlockPlan(targets, sources)
        n_j, m_j, r_j = n_next, m_next, r_next


# -- the stage driver --------------------------------------------------

def realize_block_plans(plans, stream: VectorStream):
    """Carry out Horn placements for each plan, returning terms and
    certificates (the stage driver, without its remainder)."""
    rows, weights, certs, n = _realize(plans, stream)
    return RankOneDecomp._of_rows(rows, weights, n).terms, certs


def _realize(plans, stream: VectorStream, carry=None, lead: int = 0):
    """The stage driver: every stage's majorization verdict comes from one
    batched pass, every block stage is scheduled in one pass on the basis of
    R^k for its k consumed positions, every mix of the run computed at once,
    and every block stage certified and embedded in one pass, its identity
    checked once, against diag(consumed), as a k x k residual; positions,
    shares and the row each term takes are flat arrays over the run.  A tail
    step mixes the carry, in the span of consumed stream vectors, with a
    fresh one orthogonal to it (gamma = 0); the first carry is given as
    (stream position, weight).  Returns one matrix of term vectors in C^dim,
    dim the least holding every position used, with ``lead`` rows left to
    the caller first and the remainder, if any (the last carry, or what block
    stages leave of their last boundary vector), last; the weights of its
    other rows, the certificates and the number of rows before it."""
    plans = list(plans)
    tails = [p for p in plans if isinstance(p, _TailStep)]  # planners yield them last
    blocks = plans[: len(plans) - len(tails)]
    pools = [[c for _, c in p.sources] for p in plans]
    verdicts = _majorizes_many([p.targets for p in plans], pools)
    del pools[len(blocks) :]  # done with: kept, they would only slow the garbage collector
    xs = [p.targets + tuple(w for _, w in p.colinear) for p in blocks]  # each block stage's terms
    # the (position, share) of every block stage's sources and colinear terms, stage by stage
    sizes = [len(p.sources) + len(p.colinear) for p in blocks]
    pos, share = np.array([e for p in blocks for e in p.sources + p.colinear], dtype=float).reshape(-1, 2).T
    top = max(int(pos.max(initial=0)), *(p.sources[1][0] for p in tails), carry[0] if carry else 0)
    dim = stream.min_dim(top)
    carry = carry and (carry[1], stream.vector(carry[0], dim))  # (weight, vector) from here on
    rows = np.zeros((lead + sum(map(len, xs)) + len(tails) + 1, dim), dtype=complex)
    # each stage's positions, sorted, numbered over the run; the share taken
    # of each, added left to right; and the number of each entry's position
    key = np.arange(len(blocks)).repeat(sizes) * (top + 1) + pos  # exact in float64
    where = np.sort(key)
    where = where[np.append(True, where[1:] != where[:-1])[: len(where)]]  # each once
    row = where.searchsorted(key)
    shares = np.bincount(row, share, len(where))
    first = where.searchsorted(np.arange(len(blocks) + 1) * (top + 1)).tolist()  # each stage's first position
    ks, row, at = [e - f for f, e in zip(first, first[1:])], row.tolist(), [0, *accumulate(sizes)]
    takes, mixes, counts, refusal = _schedule([p.targets for p in blocks], pools,
                                              [row[a:b] for a, b in zip(at, at[1:])], ks, verdicts)
    done = len(counts)  # every block stage, or those before the refused one
    if refusal is not None:
        tails = []
    store, coefs = _place_rows(ks, counts, mixes, [(p.sources[0][1], p.sources[1][1], *p.targets) for p in tails])
    # every stream vector the run reads: the block stages', then each tail step's fresh one
    P = first[done]
    where = np.concatenate((where[:P] % (top + 1), [p.sources[1][0] for p in tails])).astype(np.intp)
    (starts, entries), index = stream._supports(where), stream.base_index(where).tolist()
    x = np.fromiter(chain.from_iterable(xs[:done]), np.float64, len(takes))
    residuals = _block_stages(x, shares, store, np.array(takes, dtype=np.intp),
                              [len(t) for t in xs[:done]], ks[:done], starts[:P], entries[:P], rows[lead:])
    weights, certs, shares = x.tolist(), [], shares.tolist()
    for i, (targets, majorization, residual, f, e) in enumerate(zip(xs, verdicts, residuals, first, first[1:])):
        certs.append(StageCertificate(i, tuple(zip(index[f:e], shares[f:e])), targets, majorization, residual))
    if refusal is not None:
        raise refusal
    # w and w' of each mix in span{carry, fresh} at once, from (sigma, sigma') and (tau, tau')
    pairs = coefs[[0, 2, 1, 3]].T.reshape(-1, 2, 2, 1).astype(complex)
    for i, (plan, verdict, (sigma, *_, residual), (S, T), index, start, entry) in enumerate(
            zip(tails, verdicts[len(blocks):], coefs.T.tolist(), pairs, index[P:], starts[P:].tolist(),
                entries[P:]), len(blocks)):
        e = np.zeros(dim, dtype=complex)  # the fresh stream vector, as stream.vector has it
        e[start : start + len(entry)] = entry
        w, rows[lead + len(weights)] = S * carry[1] + T * e
        weights.append(plan.targets[1])
        nrm = math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag))  # np.linalg.norm's
        carry = plan.targets[0], (w / nrm if nrm > 0 else w)
        certs.append(StageCertificate(i, ((index, plan.sources[1][1]),), plan.targets[1:], verdict, residual,
                                      sigma, plan.sigma_cap))
    if carry is None and len(pos):  # block stages alone: the rest of their top position
        used = 0.0
        for c in share[pos == pos.max()].tolist():
            used += c  # left to right, as the stages consumed it
        if 1.0 - used > REMAINDER_FLOOR:
            carry = 1.0 - used, stream.vector(int(pos.max()), dim)
    n_terms = lead + len(weights)
    if carry is not None:
        rows[n_terms] = carry[1]
        weights.append(carry[0])
    return rows[: lead + len(weights)], weights, tuple(certs), n_terms


# -- the tail recursion -------------------------------------------------

def keycase_recursion(lam: WeightSeq, stream: VectorStream, steps: int):
    """Decompose (1 - S(0)) E_0 E_0* + sum_{t>=1} E_t E_t* into weights
    1 - lam_t, one 2x2 mix per step, carrying a shrinking remainder.

    Requires sum(lam) < 1.  The carry starts as E_0 and stays in the span of
    E_0, ..., E_t, so step t mixes it with the orthogonal E_{t+1}.  Returns
    the emitted terms, one certificate per step (with the mixing coefficient
    and its cap), and the final carry term (1 - S(steps)) x x*.
    """
    s_prev = lam.total()
    if not s_prev < 1.0:
        raise PlanningError(f"tail recursion needs total defect below 1, got {s_prev!r}")
    if steps < 0:
        raise PlanningError("step count must be nonnegative")
    steps_ = islice(_plan_tail(_padded(lam), lam, 1), steps)
    rows, weights, certs, n = _realize(steps_, stream, (0, 1.0 - s_prev))
    decomp = RankOneDecomp._of_rows(rows, weights, n)
    return decomp.terms, certs, decomp.remainder[0]


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


# -- the orchestrator ---------------------------------------------------

def carpenter_decompose(xi, stream: VectorStream, stages: int = DEFAULT_STAGES):
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
    infinite count of ones or zeros is truncated to ``stages`` terms.  A
    finite total weight n with finitely many ones needs a finite stream of
    exactly n vectors, and is placed in one stage.
    """
    return _decompose(xi, stream, stages)[:3]


def _decompose(xi, stream: VectorStream, stages: int):
    """``carpenter_decompose``, and an iterator over the stream positions
    the decomposition touched: every position a certificate consumed, then
    those of the entries equal to 1.  Its terms plus remainder sum to their
    projection (``streams.touched_projection``)."""
    seq = xi if isinstance(xi, WeightSeq) else WeightSeq.finite(xi)
    tag, sp = _classify(seq)  # raises KadisonError when the test fails
    if stages < 1:
        raise PlanningError("need at least one stage")

    if tag.tag == CASE_FINITE_RANK and sp.ones_count < INF:
        if seq.kind not in (KIND_FINITE, KIND_FINITELY_SUPPORTED):
            raise PlanningError(
                "finite total weight with infinite support is out of scope here"
            )
        n = _trace_count(seq.values)
        if stream.count is None:
            raise TraceMismatchError("finite total weight needs a finite stream")
        if stream.count != n:
            raise TraceMismatchError(
                f"total weight {n} but the stream provides {stream.count} vectors"
            )
        if n == 0:
            raise TraceMismatchError("cannot decompose against an empty stream")
        rows, weights, certs = _finite_rank_stage(seq.values, stream, n, stream.min_dim(n - 1))
        return RankOneDecomp._of_rows(rows, weights, len(rows)), certs, tag, _touched(certs, ())

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

    # the core's rows come after the zeros and, if first, the ones
    n_zero = int(sp.zeros_count) if sp.zeros_count < INF else stages
    if ones_first:
        rows, weights, certs, n = _decompose_core(
            tag, sp.mu, sp.lam, core_stream, stages, n_zero + n_ones
        )
        # a staged core takes a fresh stream vector in every stage, so its
        # dimension already holds the ones before or beside it
        ones_at, weights = n_zero, [1.0] * n_ones + weights
    else:  # a finite core is placed in the dimension the ones after it need
        dim = ones_stream.min_dim(n_ones - 1)
        rows, weights, certs = _finite_rank_stage(core.values, core_stream, m0, dim, n_zero, n_ones)
        ones_at, weights, n = len(rows) - n_ones, weights + [1.0] * n_ones, len(rows)
    for j in range(n_ones):
        rows[ones_at + j] = ones_stream.vector(j, rows.shape[1])
    rows[:n_zero] = rows[n_zero]  # along the first vector used
    ones = map(ones_stream.base_index, range(n_ones))
    return RankOneDecomp._of_rows(rows, [0.0] * n_zero + weights, n), certs, tag, _touched(certs, ones)


def _touched(certs, ones):
    """The stream positions every certificate consumed, then ``ones``, lazily."""
    return chain((p for c in certs for p, _ in c.consumed), ones)


def _decompose_core(tag: CaseTag, mu, lam, stream, stages, lead=0):
    """Plan the stripped core's first ``stages`` stages, at least one, and
    realize them after ``lead`` rows.  Every search is bounded by
    ``DEFAULT_EXTEND_LIMIT`` as it stands at the call."""
    carry = None
    if tag.tag == CASE_MU_DIVERGES:
        plans = plan_mu_diverges(mu, lam)
    elif tag.tag == CASE_LAMBDA_DIVERGES:
        plans = plan_lambda_diverges(mu, lam)
    elif tag.tag == CASE_BOTH_SUMMABLE:
        plans = plan_both_summable(mu, lam)
    else:  # mu-finite: a head block, then tail steps from its boundary vector
        n, r = _advance(
            lam.tail_sum, max(tag.k + 2, 0), lambda s: s >= 1.0,
            "could not find a head boundary with a small tail",
        )
        lam_it = _padded(lam)
        head_targets = tuple(mu.values) + tuple(1.0 - next(lam_it) for _ in range(n))
        tail = lam.drop(n)
        plans = [BlockPlan(head_targets, _sources(0, 0.0, n - tag.k, r)[0])]
        plans += islice(_plan_tail(lam_it, tail, n - tag.k + 1), max(stages - 1, 0))
        carry = (n - tag.k, 1.0 - tail.total())
    return _realize(islice(plans, max(stages, 1)), stream, carry, lead)
