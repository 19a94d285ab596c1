import hashlib
import json
import math
from itertools import islice

import numpy as np
import pytest

from admseq import carpenter
from admseq.carpenter import (
    CASE_BOTH_SUMMABLE,
    CASE_FINITE_RANK,
    CASE_LAMBDA_DIVERGES,
    CASE_M_FINITE,
    CASE_MU_DIVERGES,
    carpenter_decompose,
    classify_case,
    keycase_recursion,
    plan_both_summable,
    plan_lambda_diverges,
    plan_mu_diverges,
    realize_block_plans,
)
from admseq.cli import main
from admseq.errors import KadisonError, PlanningError, TraceMismatchError
from admseq.operators import RankOneTerm, frame_operator
from admseq.seqkit import WeightSeq, seq_to_json, split_mu_lambda
from admseq.streams import VectorStream, stream_to_json

BASIS = VectorStream.basis()
ONE = VectorStream.explicit([np.eye(1)[0]])
GEO8 = WeightSeq.geometric([], 0.125, 0.5)


def take(gen, n):
    return [next(gen) for _ in range(n)]


def total_operator(decomp):
    return frame_operator(list(decomp.terms) + list(decomp.remainder), dim=decomp.dim)


def assert_projection_onto_consumed(decomp, tol=1e-10):
    """Terms plus remainder must reproduce a compression: a 0/1 diagonal
    when the stream is the standard basis."""
    op = total_operator(decomp)
    d = np.round(np.real(np.diag(op)))
    assert set(d.tolist()) <= {0.0, 1.0}
    assert np.max(np.abs(op - np.diag(d))) <= tol


ONES_STREAMS = [
    pytest.param(BASIS, id="basis"),
    pytest.param(VectorStream.block_overlap(3), id="block3"),
]


def consumed_positions(certs) -> set[int]:
    return {i for c in certs for i, _ in c.consumed}


def assert_on_stream(terms, stream, positions):
    """Each term's vector is exactly the stream vector at that base index."""
    assert len(terms) == len(positions)
    for t, i in zip(terms, positions):
        assert np.array_equal(t.vector, stream.vector(i, len(t.vector)))


def assert_covers(decomp, stream, positions, tol=1e-9):
    """Terms plus remainder sum to the projection onto the stream vectors at
    the given base indices."""
    dim = decomp.dim
    want = frame_operator([RankOneTerm(1.0, stream.vector(i, dim)) for i in positions], dim=dim)
    assert np.max(np.abs(total_operator(decomp) - want)) <= tol


class TestClassify:
    def test_finite_rank(self):
        tag = classify_case(WeightSeq.finite([0.5, 0.5, 0.5, 0.5]))
        assert tag.tag == CASE_FINITE_RANK
        assert (tag.k, tag.M, tag.N) == (-2, 4, 0)

    def test_mu_divergent(self):
        tag = classify_case(WeightSeq.periodic([], (0.4, 0.9)))
        assert tag.tag == CASE_MU_DIVERGES
        assert tag.k is None and tag.M == math.inf and tag.N == math.inf

    def test_lambda_divergent(self):
        tag = classify_case(WeightSeq.periodic([0.6, 0.5], (0.75,)))
        assert tag.tag == CASE_LAMBDA_DIVERGES
        assert tag.M == 1  # 0.6 > 1/2 contributes a defect, 0.5 is small

    def test_both_summable(self):
        tag = classify_case(WeightSeq.interleave(GEO8, WeightSeq.one_minus(GEO8)))
        assert tag.tag == CASE_BOTH_SUMMABLE
        assert tag.k == 0

    def test_m_finite(self):
        tag = classify_case(WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6)))
        assert tag.tag == CASE_M_FINITE
        assert (tag.k, tag.M, tag.N) == (1, 0, math.inf)

    def test_integrality_required(self):
        with pytest.raises(KadisonError):
            classify_case(WeightSeq.finite([0.3, 0.9, 0.9]))


class TestFiniteRank:
    def test_worked_example_structure(self):
        # four halves against two vectors: head of three, one colinear peel
        stream = VectorStream.explicit([np.eye(4)[0], np.eye(4)[1]])
        decomp, certs, _ = carpenter_decompose(WeightSeq.finite([0.5] * 4), stream)
        terms = decomp.terms
        assert [t.weight for t in terms] == [0.5] * 4
        # the last weight rides along E_1 untouched
        assert np.allclose(terms[-1].vector, np.eye(4)[1])
        op = frame_operator(terms, dim=4)
        want = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        assert np.max(np.abs(op - want)) <= 1e-12
        (cert,) = certs
        assert cert.majorization.holds
        assert cert.consumed == ((0, 1.0), (1, 1.0))

    def test_zero_and_one_entries(self):
        stream = VectorStream.explicit([np.eye(3)[0], np.eye(3)[1]])
        decomp, _, _ = carpenter_decompose(WeightSeq.finite([1.0, 0.0, 0.7, 0.3]), stream)
        assert [t.weight for t in decomp.terms] == [1.0, 0.0, 0.7, 0.3]
        op = frame_operator(decomp.terms, dim=3)
        assert np.max(np.abs(op - np.diag([1, 1, 0]).astype(complex))) <= 1e-12

    def test_non_integer_total_refused(self):
        stream = VectorStream.explicit([np.eye(2)[0]])
        with pytest.raises(KadisonError):
            carpenter_decompose(WeightSeq.finite([0.5, 0.7]), stream)

    def test_stream_count_must_match(self):
        stream = VectorStream.explicit([np.eye(3)[0]])
        with pytest.raises(
            TraceMismatchError, match="^total weight 2 but the stream provides 1 vectors$"
        ):
            carpenter_decompose(WeightSeq.finite([0.5] * 4), stream)

    @pytest.mark.parametrize(
        "values, stream, message",
        [
            ([0.5] * 4, BASIS, "finite total weight needs a finite stream"),
            ([0.0], ONE.drop(1), "cannot decompose against an empty stream"),
        ],
        ids=["infinite", "empty"],
    )
    def test_stream_must_be_finite_and_not_empty(self, values, stream, message):
        with pytest.raises(TraceMismatchError, match=f"^{message}$"):
            carpenter_decompose(WeightSeq.finite(values), stream)

    def test_terms_are_rows_of_the_stage_matrix(self, monkeypatch):
        # the decomposition holds the matrix the stage wrote, not a copy
        made = []
        real = carpenter._finite_rank_stage

        def capturing(*args):
            out = real(*args)
            made.append(out[0])
            return out

        monkeypatch.setattr(carpenter, "_finite_rank_stage", capturing)
        stream = VectorStream.explicit([np.eye(4)[0], np.eye(4)[1]])
        decomp, _, _ = carpenter_decompose(WeightSeq.finite([0.5] * 4), stream)
        (rows,) = made
        assert np.shares_memory(decomp.rows, rows)

    @pytest.mark.parametrize(
        "xi, stream",
        [
            (WeightSeq.finite([0.0, 1.0]), ONE),
            (WeightSeq.finite([1e-13, 0.9999999999999]), ONE),
            (WeightSeq.finitely_supported([0.0, 1.0]), ONE),
            (WeightSeq.periodic([1e-13, 1 - 1e-13], (1.0,)), BASIS),
        ],
        ids=["zero-first", "tiny-first", "finitely-supported", "ones-after-core"],
    )
    def test_light_head_on_one_vector(self, tmp_path, capsys, xi, stream):
        # on one stream vector, weights before a last one summing to at most
        # PLACE_TOL leave no pool to place them against: they are laid along
        # that vector with the rest
        decomp, certs, _ = carpenter_decompose(xi, stream, stages=3)
        assert [w.hex() for w in decomp.weights()] == [w.hex() for w in xi.head(len(decomp.terms))]
        assert decomp.remainder == ()
        assert max(c.residual for c in certs) <= 1e-8
        # the core's two terms fill vector 0, each one after them a vector of its own
        assert_covers(decomp, stream, range(len(decomp.terms) - 1), tol=1e-8)
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"weights": seq_to_json(xi), "stream": stream_to_json(stream)}))
        assert main(["decompose", str(inp), "--stages", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


class TestMuDivergesPlan:
    def test_frozen_two_stage_trace(self):
        sp = split_mu_lambda(WeightSeq.periodic([], (0.4, 0.9)))
        p1, p2 = take(plan_mu_diverges(sp.mu, sp.lam), 2)
        assert p1.targets == (0.4, 0.4, 0.4, 0.9)
        assert p1.sources[:2] == ((0, 1.0), (1, 1.0))
        assert p1.sources[2][0] == 2
        assert p1.sources[2][1] == pytest.approx(0.1)
        assert p2.targets == (0.4, 0.4, 0.4, 0.9)
        assert p2.sources[0][0] == 2
        assert p2.sources[0][1] == pytest.approx(0.9)
        assert p2.sources[2][1] == pytest.approx(0.2)

    def test_mu_only_stages_after_defects_end(self):
        mu = WeightSeq.periodic([], (0.35,))
        lam = WeightSeq.finite([0.1])
        plans = take(plan_mu_diverges(mu, lam), 4)
        # stage 0 spends the lone defect, later stages are mu-only
        assert plans[0].targets[-1] == pytest.approx(0.9)
        for p in plans[1:]:
            assert all(v == pytest.approx(0.35) for v in p.targets)
        # every vector behind the final boundary ends up fully consumed
        consumed: dict = {}
        for p in plans:
            for i, c in p.sources:
                consumed[i] = consumed.get(i, 0.0) + c
        for i in range(max(consumed)):
            assert consumed.get(i, 0.0) == pytest.approx(1.0)

    def test_extend_limit_guard(self):
        mu = WeightSeq.periodic([], (0.01,))
        lam = WeightSeq.periodic([], (0.25,))
        with pytest.raises(PlanningError, match="^stage 0 needs more than 50 small entries$"):
            next(plan_mu_diverges(mu, lam, extend_limit=50))

    def test_run_slack(self):
        # ten entries 0.1 add up to 1 - 2^-53 left to right: within the run's
        # 1e-15 slack, so the first mu-only stage takes exactly ten
        mu = WeightSeq.periodic([], (0.1,))
        p = next(plan_mu_diverges(mu, WeightSeq.finite([]), extend_limit=10))
        assert len(p.targets) == 10

    def test_finite_small_entries_run_out(self):
        mu = WeightSeq.finite([0.3] * 2)
        with pytest.raises(PlanningError, match="^stage 0 ran out of small entries$"):
            next(plan_mu_diverges(mu, WeightSeq.finite([])))


class TestLambdaDivergesPlan:
    def test_frozen_two_stage_trace(self):
        mu = WeightSeq.finite([0.6, 0.5])
        lam = WeightSeq.periodic([], (0.25,))
        q1, q2 = take(plan_lambda_diverges(mu, lam), 2)
        # first-fit bins: (0.6), (0.5); slack 0.4 and 0.5 enter the pool
        assert q1.colinear == ((0, 0.6), (1, 0.5))
        assert q1.sources[0] == (0, pytest.approx(0.4))
        assert q1.sources[1] == (1, pytest.approx(0.5))
        assert len(q1.targets) == 20  # smallest run with defects summing >= 5
        fulls = [s for s in q1.sources if s[1] == 1.0]
        assert len(fulls) == 14
        assert q1.sources[-1] == (16, pytest.approx(0.1))
        assert len(q2.targets) == 12  # defects sum >= 3 with one carried slack
        assert q2.sources[0] == (16, pytest.approx(0.9))
        assert q2.sources[-1] == (25, pytest.approx(0.1))

    def test_extend_limit_guard(self):
        # no bins: the first run needs four defects 0.25
        lam = WeightSeq.periodic([], (0.25,))
        next(plan_lambda_diverges(WeightSeq.finite([]), lam, extend_limit=4))
        with pytest.raises(PlanningError, match="^stage 0 needs more than 3 large entries$"):
            next(plan_lambda_diverges(WeightSeq.finite([]), lam, extend_limit=3))

    def test_first_fit_shares_a_bin(self):
        # 0.5 and the second 0.25 join the first bin, which fills exactly and
        # leaves no slack; 0.4 opens a second bin with slack 0.6
        mu = WeightSeq.finite([0.25, 0.5, 0.25, 0.4])
        q1 = next(plan_lambda_diverges(mu, WeightSeq.periodic([], (0.2,))))
        assert q1.colinear == ((0, 0.25), (0, 0.5), (0, 0.25), (1, 0.4))
        assert q1.sources[0] == (1, pytest.approx(0.6))
        assert all(pos != 0 for pos, _ in q1.sources)

    def test_finite_defects_run_out(self):
        lam = WeightSeq.finite([0.25] * 3)
        with pytest.raises(PlanningError, match="^stage 0 ran out of large entries$"):
            next(plan_lambda_diverges(WeightSeq.finite([]), lam))

    def test_needs_finitely_many_small_entries(self):
        mu = WeightSeq.geometric([], 0.125, 0.5)
        lam = WeightSeq.periodic([], (0.25,))
        with pytest.raises(PlanningError):
            next(plan_lambda_diverges(mu, lam))

    def test_no_small_entries_at_all(self):
        lam = WeightSeq.periodic([], (0.25,))
        p1 = next(plan_lambda_diverges(WeightSeq.finite([]), lam))
        assert p1.colinear == ()
        assert all(c == 1.0 for _, c in p1.sources[:-1])


_G4 = WeightSeq.geometric([], 0.25, 0.5)
_INTERLEAVED = split_mu_lambda(
    WeightSeq.interleave(_G4, GEO8, WeightSeq.one_minus(_G4), WeightSeq.one_minus(GEO8))
)
_PERIODIC = split_mu_lambda(WeightSeq.periodic([], (0.4, 0.9)))
_QUARTERS = WeightSeq.periodic([], (0.25,))
PLAN_INPUTS = {
    "geo8": (plan_both_summable, GEO8, GEO8),
    "heads": (
        plan_both_summable,
        WeightSeq.geometric([0.3, 0.2], 0.125, 0.5),
        WeightSeq.geometric([0.5], 0.0625, 0.75),
    ),
    "interleaved": (plan_both_summable, _INTERLEAVED.mu, _INTERLEAVED.lam),
    "mu-periodic": (plan_mu_diverges, _PERIODIC.mu, _PERIODIC.lam),
    # three defects, then mu-only stages
    "mu-lam-runs-out": (
        plan_mu_diverges, WeightSeq.periodic([], (0.35,)), WeightSeq.finite([0.1, 0.25, 0.4])
    ),
    "lam-bins": (plan_lambda_diverges, WeightSeq.finite([0.6, 0.5]), _QUARTERS),
    # 0.5 and the second 0.25 are packed into the first bin
    "lam-bins-shared": (
        plan_lambda_diverges, WeightSeq.finite([0.25, 0.5, 0.25, 0.4]),
        WeightSeq.periodic([], (0.2,)),
    ),
    # no small entries: every stage takes four defects and carries r_new = 0
    "lam-no-small": (plan_lambda_diverges, WeightSeq.finite([]), _QUARTERS),
}
# sha256 of the first 160 plans' targets, sources and colinear terms, by float.hex
PLAN_DIGESTS = {
    "geo8": "b74345a68ad2d21cf457af161a238c7c65f5297afbe4e24905d65cd9f509ad81",
    "heads": "6d4c6c64dc4d07c175a978cb3fc281b19044d39951c9b0088e5a4f107bf3aae4",
    "interleaved": "e103d57d80d8dc1f0faf4a86a72e0ac42fdeeb7e020d9a1fd5db3d349f782089",
    "mu-periodic": "91dddc8575faa045c09f3ec20e5278e2595536b390fb6e32d4ddef03337dc46b",
    "mu-lam-runs-out": "3df59936b95ea4221a67b0ba276041a1f02c2d9541cb7af286bbee157f8abb7b",
    "lam-bins": "aed5bf13e50e2f12e49ebc8b5ea97a6fdd5a058f092b14424952a57808e78091",
    "lam-bins-shared": "7494fd853051d62dcb29d6f5ba9941ff0b933b6b5206bb1a1c7a85ebf940774d",
    "lam-no-small": "78ad436d9336d8c38cfd236037cb9bde8cb7c76779c8b17e1c60165afa146b99",
}

# (mu, lam, stages drawn, increments the search takes, its error message):
# each input makes one boundary search of plan_both_summable take more
# increments than every search before it
BOUNDARY_SEARCHES = {
    "start": (
        WeightSeq.geometric([], 0.25, 0.75), WeightSeq.geometric([], 0.125, 0.875),
        1, 5, "could not find a starting boundary",
    ),
    "align": (
        WeightSeq.geometric([], 0.125, 0.875), WeightSeq.geometric([], 0.25, 0.75),
        1, 7, "could not align the small-entry boundary",
    ),
    "large": (
        WeightSeq.geometric([], 0.25, 0.5), WeightSeq.geometric([], 0.03125, 0.9375),
        2, 8, "could not advance the large-entry boundary",
    ),
    "small": (
        WeightSeq.geometric([], 0.0625, 0.875), WeightSeq.geometric([], 0.25, 0.5),
        2, 9, "could not advance the small-entry boundary",
    ),
}


class TestBothSummablePlan:
    def test_frozen_three_stage_trace(self):
        b1, b2, b3 = take(plan_both_summable(GEO8, GEO8), 3)
        assert b1.targets == (0.125, 0.875)
        assert b1.sources == ((0, 1.0),)  # r_1 = 0: nothing carried
        assert b2.targets == (0.0625, 0.03125, 0.9375, 0.96875)
        assert b2.sources == ((1, 1.0), (2, 1.0))
        assert b3.targets == (0.015625, 0.0078125, 0.984375, 0.9921875)
        assert b3.sources == ((3, 1.0), (4, 1.0))

    def test_carried_fraction_stays_small(self):
        mu = WeightSeq.geometric([], 0.3, 0.4)
        lam = WeightSeq.geometric([], 0.3, 0.4)
        for plan in take(plan_both_summable(mu, lam), 6):
            frac = [c for _, c in plan.sources if c != 1.0]
            assert all(0.0 < c < 0.5 or 0.5 < c <= 1.0 for c in frac)
            # the trailing fraction is the next stage's boundary
            assert sum(w for w in plan.targets) == pytest.approx(
                math.fsum(c for _, c in plan.sources)
            )


    def test_reads_each_entry_once(self, monkeypatch):
        # one iterator over mu and one over lam: 640 stages draw exactly the
        # entries they place, where re-reading heads from index 0 would draw
        # about S^2 of them
        draws = {}
        real_iter = WeightSeq.__iter__

        def counting(seq):
            for v in real_iter(seq):
                draws[id(seq)] = draws.get(id(seq), 0) + 1
                yield v

        monkeypatch.setattr(WeightSeq, "__iter__", counting)
        mu = WeightSeq.geometric([], 0.125, 0.5)
        lam = WeightSeq.geometric([], 0.125, 0.5)
        plans = list(islice(plan_both_summable(mu, lam), 640))
        assert set(draws) <= {id(mu), id(lam)}
        assert sum(draws.values()) == sum(len(p.targets) for p in plans)

    def test_asks_each_tail_sum_once(self, monkeypatch):
        # each boundary search starts past the last one's index and hands its
        # last tail sum on, so no (sequence, index) pair is asked for twice
        asked = []
        real_tail_sum = WeightSeq.tail_sum

        def counting(seq, start):
            asked.append((id(seq), start))
            return real_tail_sum(seq, start)

        monkeypatch.setattr(WeightSeq, "tail_sum", counting)
        mu = WeightSeq.geometric([], 0.125, 0.5)
        lam = WeightSeq.geometric([], 0.125, 0.5)
        for seqs in [(mu, lam), (_INTERLEAVED.mu, _INTERLEAVED.lam)]:
            asked.clear()
            list(islice(plan_both_summable(*seqs), 160))
            assert len(asked) == len(set(asked))
            assert {i for i, _ in asked} == {id(s) for s in seqs}

    @pytest.mark.parametrize("name", sorted(BOUNDARY_SEARCHES))
    def test_boundary_search_guard(self, name):
        # a search may take extend_limit increments, and no more
        mu, lam, stages, need, message = BOUNDARY_SEARCHES[name]
        take(plan_both_summable(mu, lam, extend_limit=need), stages)
        with pytest.raises(PlanningError, match=f"^{message}$"):
            take(plan_both_summable(mu, lam, extend_limit=need - 1), stages)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_guard_without_increments(self, limit):
        # a start index that already stops the search needs no increment;
        # any increment is refused
        lam = WeightSeq.geometric([0.5, 0.5], 0.125, 0.5)  # k = 1, tail(2) = 0.25
        b1 = next(plan_both_summable(GEO8, lam, extend_limit=limit))
        assert b1.sources == ((0, 1.0),)
        mu, lam, _, _, message = BOUNDARY_SEARCHES["start"]
        with pytest.raises(PlanningError, match=f"^{message}$"):
            next(plan_both_summable(mu, lam, extend_limit=limit))

    @pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
    def test_plans_match_recorded_digest(self, name):
        # the both-summable digests were recorded when each stage re-read the
        # heads of mu and lam, the others before the planners shared helpers
        planner, mu, lam = PLAN_INPUTS[name]
        h = hashlib.sha256()
        for p in islice(planner(mu, lam), 160):
            h.update(repr((
                [t.hex() for t in p.targets],
                [(i, c.hex()) for i, c in p.sources],
                p.colinear,
            )).encode())
        assert h.hexdigest() == PLAN_DIGESTS[name]


class TestKeycase:
    def test_sigma_matches_cap_on_orthonormal_stream(self):
        # fresh vectors are orthogonal to the carry, so the mixing
        # coefficient sits exactly at its cap
        lam = WeightSeq.geometric([], 0.25, 0.5)
        _, certs, _ = keycase_recursion(lam, BASIS, 8)
        assert certs[0].sigma_cap == pytest.approx(math.sqrt(1.0 / 3.0))
        for c in certs:
            assert c.sigma == pytest.approx(c.sigma_cap, abs=1e-12)
            assert c.residual <= 1e-12
            assert c.majorization.holds

    def test_identity_with_carry(self):
        lam = WeightSeq.geometric([], 0.25, 0.5)
        steps = 10
        terms, _, carry = keycase_recursion(lam, BASIS, steps)
        assert [t.weight for t in terms] == pytest.approx(
            [1.0 - 0.25 * 0.5**t for t in range(steps)]
        )
        assert carry.weight == pytest.approx(1.0 - lam.tail_sum(steps))
        op = frame_operator(list(terms) + [carry], dim=steps + 1)
        want = np.diag([1.0 - lam.total()] + [1.0] * steps).astype(complex)
        assert np.max(np.abs(op - want)) <= 1e-9

    def test_coefficient_decay_bound(self):
        lam = WeightSeq.geometric([], 0.25, 0.5)
        n = 20
        _, _, carry = keycase_recursion(lam, BASIS, n)
        s = [lam.tail_sum(t) for t in range(n + 1)]
        for k in range(n + 1):
            bound = (1.0 - s[k]) * s[n] / (s[k] * (1.0 - s[n]))
            assert abs(carry.vector[k]) ** 2 <= bound + 1e-12

    def test_requires_defect_total_below_one(self):
        with pytest.raises(PlanningError):
            keycase_recursion(WeightSeq.geometric([], 0.5, 0.5), BASIS, 3)

    def test_exhausted_defects_emit_full_vectors(self):
        lam = WeightSeq.finite([0.25])
        terms, _, carry = keycase_recursion(lam, BASIS, 3)
        assert [t.weight for t in terms] == pytest.approx([0.75, 1.0, 1.0])
        assert carry.weight == pytest.approx(1.0)


def m_finite(f, q, mu=()):
    """Large entries 1 - f q^j, after finitely many small entries ``mu``
    (interleaved with them): its split is mu and the geometric lam bit for
    bit."""
    xi = WeightSeq.one_minus(WeightSeq.geometric([], f, q))
    return WeightSeq.interleave(WeightSeq.finite(mu), xi) if mu else xi


class TestMFinite:
    def test_frozen_head_trace(self):
        xi = m_finite(0.4, 0.6)  # lam sums to 1, so k = 1
        lam = split_mu_lambda(xi).lam
        decomp, certs, _ = carpenter_decompose(xi, BASIS, stages=4)
        head = certs[0]
        assert head.consumed[:2] == ((0, 1.0), (1, 1.0))
        assert head.consumed[2][0] == 2
        assert head.consumed[2][1] == pytest.approx(0.216)
        assert head.targets == pytest.approx((0.6, 0.76, 0.856))
        # keycase stages continue from the boundary vector
        assert certs[1].consumed == ((3, 1.0),)
        (carry,) = decomp.remainder
        assert carry.weight == pytest.approx(1.0 - lam.tail_sum(6))

    @pytest.mark.parametrize("limit", [2, 1, 0, -1])
    def test_head_search_guard(self, monkeypatch, limit):
        # k = 2: the search starts at n = 4, where lam's tail is 1.17, and
        # takes two increments to get below 1
        monkeypatch.setattr(carpenter, "DEFAULT_EXTEND_LIMIT", limit)
        xi = m_finite(0.25, 0.875)
        if limit < 2:
            with pytest.raises(
                PlanningError, match="^could not find a head boundary with a small tail$"
            ):
                carpenter_decompose(xi, BASIS, 1)
        else:
            carpenter_decompose(xi, BASIS, 1)
        if limit <= 0:  # a start index that already stops the search passes
            carpenter_decompose(m_finite(0.4, 0.6), BASIS, 1)

    def test_small_entries_consumed_in_head(self):
        # lam totals 0.75: mu [0.4] leaves k fractional, which the gate refuses
        with pytest.raises(KadisonError):
            carpenter_decompose(m_finite(0.375, 0.5, [0.4]), BASIS, stages=2)
        decomp, certs, _ = carpenter_decompose(m_finite(0.375, 0.5, [0.5, 0.25]), BASIS, stages=3)
        assert certs[0].targets[:2] == (0.5, 0.25)
        op = total_operator(decomp)
        d = np.round(np.real(np.diag(op)))
        assert np.max(np.abs(op - np.diag(d))) <= 1e-9

    @pytest.mark.parametrize("stream", [BASIS, VectorStream.block_overlap(4)], ids=["basis", "block4"])
    def test_emitted_weights_are_the_input_entries(self, stream):
        # the tail weights come from the same pass over lam as the head, not
        # from lam.drop(n), whose entries are (f q^n) q^j
        xi = WeightSeq.one_minus(WeightSeq.geometric([], 0.38, 0.62))
        dec, _, _ = carpenter_decompose(xi, stream, stages=10)
        assert dec.terms[4].weight.hex() == "0x1.e3404c10f3c4fp-1"
        assert [t.weight for t in dec.terms] == xi.head(len(dec.terms))


class TestCarpenter:
    def test_finite_rank_end_to_end(self):
        stream = VectorStream.explicit([np.eye(4)[0], np.eye(4)[1]])
        decomp, certs, tag = carpenter_decompose(WeightSeq.finite([0.5] * 4), stream)
        assert tag.tag == CASE_FINITE_RANK
        assert decomp.remainder == ()
        assert_projection_onto_consumed(decomp)

    @pytest.mark.parametrize(
        "xi,case",
        [
            (WeightSeq.periodic([], (0.4, 0.9)), CASE_MU_DIVERGES),
            (WeightSeq.periodic([0.6, 0.5], (0.75,)), CASE_LAMBDA_DIVERGES),
            (WeightSeq.interleave(GEO8, WeightSeq.one_minus(GEO8)), CASE_BOTH_SUMMABLE),
            (WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6)), CASE_M_FINITE),
        ],
    )
    def test_staged_cases_reproduce_compressions(self, xi, case):
        decomp, certs, tag = carpenter_decompose(xi, BASIS, stages=5)
        assert tag.tag == case
        assert len(decomp.remainder) <= 1
        assert_projection_onto_consumed(decomp)
        assert all(c.majorization.holds for c in certs)
        assert max(c.residual for c in certs) <= 1e-10

    @pytest.mark.parametrize("stream", ONES_STREAMS)
    def test_lambda_divergent_shared_bin(self, stream):
        # first-fit packs 0.25, 0.5 and 0.25 into one bin
        xi = WeightSeq.interleave(
            WeightSeq.finite([0.25, 0.5, 0.25, 0.4]), WeightSeq.periodic([], (0.8,))
        )
        decomp, certs, tag = carpenter_decompose(xi, stream, stages=5)
        assert tag.tag == CASE_LAMBDA_DIVERGES
        assert sorted(t.weight for t in decomp.terms if t.weight != 0.8) == [0.25, 0.25, 0.4, 0.5]
        assert all(c.majorization.holds for c in certs)
        assert max(c.residual for c in certs) <= 1e-10
        assert_covers(decomp, stream, sorted(consumed_positions(certs)))

    def test_emitted_weights_follow_the_plan(self):
        decomp, certs, _ = carpenter_decompose(
            WeightSeq.periodic([], (0.4, 0.9)), BASIS, stages=3
        )
        assert [t.weight for t in decomp.terms] == pytest.approx(
            [0.4, 0.4, 0.4, 0.9] * 3
        )

    def test_block_overlap_stream(self):
        blk = VectorStream.block_overlap(3)
        decomp, certs, _ = carpenter_decompose(
            WeightSeq.periodic([], (0.4, 0.9)), blk, stages=4
        )
        dim = decomp.dim
        op = total_operator(decomp)
        # consumed vectors plus the remainder cover whole stream vectors
        consumed = sorted({i for c in certs for i, _ in c.consumed})
        want = frame_operator(
            [RankOneTerm(1.0, blk.vector(j, dim)) for j in range(max(consumed) + 1)],
            dim=dim,
        )
        assert np.max(np.abs(op - want)) <= 1e-9

    @pytest.mark.parametrize("stream", ONES_STREAMS)
    def test_finite_ones_and_zeros_prefix(self, stream):
        xi = WeightSeq.periodic([1.0, 0.0, 1.0, 0.4], (0.4, 0.9))
        decomp, certs, tag = carpenter_decompose(xi, stream, stages=3)
        assert tag.tag == CASE_MU_DIVERGES
        weights = [t.weight for t in decomp.terms]
        assert weights[0] == 0.0
        assert weights[1:3] == [1.0, 1.0]
        # the ones take stream vectors 0 and 1, the zero sits on the first
        assert_on_stream(decomp.terms[1:3], stream, [0, 1])
        assert np.array_equal(decomp.terms[0].vector, decomp.terms[1].vector)
        # staged certificates reference vectors after the ones prefix
        consumed = consumed_positions(certs)
        assert min(consumed) >= 2
        assert_covers(decomp, stream, {0, 1} | consumed)

    @pytest.mark.parametrize("stream", ONES_STREAMS)
    def test_infinite_ones_split_even_odd(self, stream):
        xi = WeightSeq.periodic([], (1.0, 0.4, 0.9))
        decomp, certs, tag = carpenter_decompose(xi, stream, stages=4)
        assert tag.tag == CASE_MU_DIVERGES
        ones = [t for t in decomp.terms if t.weight == 1.0]
        evens = [stream.thin(0, 2).base_index(j) for j in range(4)]
        assert evens == [0, 2, 4, 6]
        assert_on_stream(ones, stream, evens)
        consumed = consumed_positions(certs)
        assert all(i % 2 == 1 for i in consumed)
        assert_covers(decomp, stream, set(evens) | consumed)

    @pytest.mark.parametrize("stream", ONES_STREAMS)
    def test_infinite_ones_finite_core(self, stream):
        xi = WeightSeq.periodic([0.5, 0.5], (1.0,))
        decomp, certs, tag = carpenter_decompose(xi, stream, stages=5)
        assert tag.tag == CASE_FINITE_RANK
        # the core fills stream vector 0, the ones come after it
        assert [c.consumed for c in certs] == [((0, 1.0),)]
        assert [t.weight for t in decomp.terms] == [0.5, 0.5] + [1.0] * 5
        assert_on_stream(decomp.terms[2:], stream, [1, 2, 3, 4, 5])
        assert decomp.remainder == ()
        assert_covers(decomp, stream, set(range(6)))

    @pytest.mark.parametrize("values", [[1e-11], [1e-11, 0.0]], ids=["core", "core-and-zero"])
    def test_infinite_ones_after_a_core_of_trace_zero(self, values):
        # the core passes the integrality test but rounds to no stream vector,
        # so it emits no term, and the ones take the vectors from 0 on
        xi = WeightSeq.periodic(values, (1.0,))
        decomp, certs, tag = carpenter_decompose(xi, BASIS, stages=4)
        assert tag.tag == CASE_FINITE_RANK and certs == ()
        n_zero = values.count(0.0)
        assert len(decomp.rows) == len(decomp.row_weights) == n_zero + 4
        assert decomp.weights() == (0.0,) * n_zero + (1.0,) * 4
        assert all(np.linalg.norm(t.vector) == 1.0 for t in decomp.terms)
        assert_on_stream(decomp.terms[n_zero:], BASIS, [0, 1, 2, 3])
        assert decomp.remainder == ()

    @pytest.mark.parametrize("stream", ONES_STREAMS)
    def test_infinite_ones_mu_finite_core(self, stream):
        # the keycase carry runs on the odd vectors, beside the ones
        xi = WeightSeq.interleave(
            WeightSeq.periodic([], (1.0,)), WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6))
        )
        decomp, certs, tag = carpenter_decompose(xi, stream, stages=4)
        assert tag.tag == CASE_M_FINITE
        ones = [t for t in decomp.terms if t.weight == 1.0]
        evens = [stream.thin(0, 2).base_index(j) for j in range(4)]
        assert_on_stream(ones, stream, evens)
        consumed = consumed_positions(certs)
        assert all(i % 2 == 1 for i in consumed)
        assert [c.sigma is not None for c in certs] == [False, True, True, True]
        (carry,) = decomp.remainder
        assert 0.0 < carry.weight < 1.0
        assert_covers(decomp, stream, set(evens) | consumed)

    def test_entry_rounding_to_one_takes_a_vector(self):
        # 1 - 1e-20 is 1.0 in float64: the split counts it as a one, so it
        # must get a stream vector of its own rather than vanish
        xi = WeightSeq.one_minus(WeightSeq.geometric([1e-20], 0.4, 0.6))
        decomp, certs, tag = carpenter_decompose(xi, BASIS, stages=3)
        assert tag.tag == CASE_M_FINITE
        assert [t.weight for t in decomp.terms] == xi.head(len(decomp.terms))
        assert_on_stream(decomp.terms[:1], BASIS, [0])
        assert min(consumed_positions(certs)) == 1
        assert_projection_onto_consumed(decomp)

    @pytest.mark.parametrize("stages", [3, 10, 40])
    def test_interleaved_lam_keeps_its_order_after_the_head(self, stages):
        # the tail recursion reads lam.drop(n), which must go on with the
        # round-robin where the head block left it
        xi = WeightSeq.one_minus(WeightSeq.interleave(
            WeightSeq.geometric([], 0.25, 0.5), WeightSeq.geometric([], 0.125, 0.75)))
        decomp, certs, tag = carpenter_decompose(xi, BASIS, stages=stages)
        assert tag.tag == CASE_M_FINITE
        assert [t.weight for t in decomp.terms] == xi.head(len(decomp.terms))
        assert all(c.majorization.holds for c in certs)
        assert max(c.residual for c in certs) <= 1e-13
        assert_projection_onto_consumed(decomp)

    @pytest.mark.parametrize(
        "xi,stream",
        [
            (WeightSeq.periodic([1.0, 0.0, 1.0, 0.4], (0.4, 0.9)), BASIS),
            (WeightSeq.periodic([], (1.0, 0.4, 0.9)), BASIS),
            (WeightSeq.periodic([0.5, 0.5], (1.0,)), BASIS),
            (WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6)), BASIS),
            (WeightSeq.finite([0.5] * 4), VectorStream.explicit([np.eye(2)[0], np.eye(2)[1]])),
        ],
        ids=["ones-prefix", "ones-beside-core", "ones-after-core", "mu-finite", "finite-rank"],
    )
    def test_splits_input_once(self, monkeypatch, xi, stream):
        import admseq.carpenter as carpenter_mod

        calls = []

        def counting_split(seq):
            calls.append(seq)
            return split_mu_lambda(seq)

        monkeypatch.setattr(carpenter_mod, "split_mu_lambda", counting_split)
        carpenter_decompose(xi, stream, stages=3)
        assert len(calls) == 1

    def test_remainder_completes_boundary(self):
        decomp, certs, _ = carpenter_decompose(
            WeightSeq.periodic([], (0.4, 0.9)), BASIS, stages=2
        )
        (rem,) = decomp.remainder
        boundary = max(i for c in certs for i, _ in c.consumed)
        consumed = math.fsum(
            w for c in certs for i, w in c.consumed if i == boundary
        )
        assert rem.weight == pytest.approx(1.0 - consumed)
        assert abs(rem.vector[boundary]) == pytest.approx(1.0)

    def test_integrality_gate(self):
        with pytest.raises(KadisonError):
            carpenter_decompose(WeightSeq.finite([0.3, 0.9, 0.9]), BASIS)

    def test_trace_mismatch_both_ways(self):
        with pytest.raises(TraceMismatchError):
            carpenter_decompose(WeightSeq.finite([0.5] * 4), BASIS)
        stream = VectorStream.explicit([np.eye(2)[0], np.eye(2)[1]])
        with pytest.raises(TraceMismatchError):
            carpenter_decompose(WeightSeq.periodic([], (0.4, 0.9)), stream)

    def test_summable_infinite_support_out_of_scope(self):
        with pytest.raises(PlanningError):
            carpenter_decompose(WeightSeq.geometric([], 0.5, 0.5), BASIS)
