import math

import numpy as np
import pytest

from admseq.checkers import (
    SumOfProjReport,
    adm_transform,
    ineq_check,
    projection_diag_check,
    sum_of_projections_check,
)
from admseq.errors import DimensionError
from admseq.operators import RankOneDecomp, RankOneTerm, frame_operator, make_term
from admseq.seqkit import WeightSeq, majorizes


class TestSumOfProjections:
    def test_diag_two_is_two_projections(self):
        rep, decomp = sum_of_projections_check(np.diag([2.0]), witness=True)
        assert rep.decomposable and rep.num_projections == 2
        assert rep.excess == pytest.approx(1.0)
        assert rep.deficiency == pytest.approx(0.0)
        op = frame_operator(decomp.terms, dim=1)
        assert np.max(np.abs(op - np.diag([2.0]))) <= 1e-10

    def test_halves_fail(self):
        rep, _ = sum_of_projections_check(np.diag([0.5, 0.5, 0.5, 0.5]))
        assert not rep.decomposable
        assert rep.reason == "trace falls below the rank"
        # excess - deficiency = trace - rank = -2 here
        assert rep.excess - rep.deficiency == pytest.approx(rep.trace - rep.rank)

    def test_non_integer_trace_fails(self):
        rep, _ = sum_of_projections_check(np.diag([1.0, 0.7]))
        assert not rep.decomposable and rep.reason == "trace is not an integer"

    def test_negative_eigenvalue_fails(self):
        rep, _ = sum_of_projections_check(np.diag([2.0, -0.5]))
        assert not rep.decomposable
        assert rep.reason == "operator has a negative eigenvalue"

    def test_witness_off_diagonal(self):
        a = np.array([[1.5, 0.25], [0.25, 0.5]], dtype=complex)
        rep, decomp = sum_of_projections_check(a, witness=True)
        assert rep.decomposable and rep.num_projections == 2
        assert all(t.weight == pytest.approx(1.0) for t in decomp.terms)
        assert all(
            np.linalg.norm(t.vector) == pytest.approx(1.0) for t in decomp.terms
        )
        assert np.max(np.abs(frame_operator(decomp.terms, dim=2) - a)) <= 1e-8

    def test_zero_operator(self):
        rep, decomp = sum_of_projections_check(np.zeros((3, 3)), witness=True)
        assert rep.decomposable and rep.num_projections == 0
        assert decomp.terms == ()

    def test_operator_on_no_dimensions_is_the_empty_sum(self):
        for witness in (False, True):
            rep, decomp = sum_of_projections_check(np.zeros((0, 0)), witness=witness)
            assert rep == SumOfProjReport(True, 0, 0.0, 0, 0.0, 0.0)
            if witness:
                assert decomp.terms == () and decomp.remainder == ()
            else:
                assert decomp is None

    def test_agrees_with_majorization_oracle(self):
        rng = np.random.default_rng(7)
        grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        for _ in range(200):
            dim = rng.integers(1, 5)
            diag = rng.choice(grid, size=dim)
            rep, _ = sum_of_projections_check(np.diag(diag))
            n = round(float(diag.sum()))
            oracle = (
                abs(diag.sum() - n) <= 1e-9
                and majorizes([1.0] * n, diag.tolist()).holds
            )
            assert rep.decomposable == oracle


class TestIneq:
    def test_holds_for_dominated_frame(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        decomp = RankOneDecomp((make_term(1.5, v),))
        a = frame_operator(decomp.terms, dim=2) + 0.1 * np.eye(2)
        rep = ineq_check(a, decomp)
        assert rep.holds
        assert rep.domination_margin == pytest.approx(0.1)
        # one weight above 1: excess inequality is tight up to the bump
        assert rep.weight_excess == pytest.approx(0.5)
        assert rep.excess_margin >= -1e-9

    def test_detects_non_domination(self):
        v = np.eye(2)[0]
        decomp = RankOneDecomp((make_term(2.0, v),))
        rep = ineq_check(np.eye(2), decomp)
        assert not rep.holds
        assert rep.domination_margin < -0.5

    def test_dimension_mismatch(self):
        decomp = RankOneDecomp((make_term(1.0, np.eye(3)[0]),))
        with pytest.raises(DimensionError):
            ineq_check(np.eye(2), decomp)

    def test_random_dominated_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            terms = []
            for _ in range(k):
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                v /= np.linalg.norm(v)
                terms.append(RankOneTerm(float(rng.uniform(0, 2)), v))
            decomp = RankOneDecomp(tuple(terms))
            b = frame_operator(terms, dim=dim)
            bump = rng.uniform(0, 1)
            rep = ineq_check(b + bump * np.eye(dim), decomp)
            assert rep.holds
            assert rep.excess_margin >= -1e-9


class TestProjectionDiag:
    def test_finite_rank_match(self):
        rep = projection_diag_check(WeightSeq.finite([0.5, 0.5, 1.0]), 2, 1)
        assert rep.ok
        assert rep.trace == pytest.approx(2.0)
        assert rep.cotrace == pytest.approx(1.0)

    def test_finite_rank_mismatch(self):
        rep = projection_diag_check(WeightSeq.finite([0.5, 0.5]), 2, 0)
        assert not rep.ok and "rank" in rep.reason

    def test_infinite_rank_needs_integrality(self):
        good = WeightSeq.periodic([], (0.5, 0.5))
        rep = projection_diag_check(good, math.inf, math.inf)
        assert rep.ok and rep.kadison is not None and rep.kadison.satisfied
        # a = 0.4, b = 0.2: a - b is not an integer, both tails infinite
        bad = WeightSeq.interleave(
            WeightSeq.geometric([], 0.2, 0.5),
            WeightSeq.one_minus(WeightSeq.geometric([], 0.1, 0.5)),
        )
        rep2 = projection_diag_check(bad, math.inf, math.inf)
        assert not rep2.ok and rep2.reason == "integrality test fails"

    def test_inf_finite_disagreement(self):
        rep = projection_diag_check(WeightSeq.periodic([], (0.5,)), 3, math.inf)
        assert not rep.ok

    @pytest.mark.parametrize("corank", [math.inf, 3], ids=["infinite", "finite"])
    def test_corank_mismatch(self, corank):
        # trace 1 and cotrace 1: the rank matches, the corank does not
        rep = projection_diag_check(WeightSeq.finite([0.5, 0.5]), 1, corank)
        assert not rep.ok and rep.reason == "total defect does not match the corank"

    def test_bad_rank_argument(self):
        with pytest.raises(ValueError):
            projection_diag_check(WeightSeq.finite([0.5]), 1.5, math.inf)


class TestTransforms:
    def setup_method(self):
        self.d1 = RankOneDecomp((make_term(0.5, np.eye(2)[0]), make_term(1.0, np.eye(2)[1])))
        self.d2 = RankOneDecomp((make_term(0.25, np.eye(2)[1]),))

    def test_direct_sum(self):
        out = adm_transform(self.d1, self.d2, mode="direct-sum")
        assert out.dim == 4
        op = frame_operator(out.terms, dim=4)
        want = np.diag([0.5, 1.0, 0.0, 0.25]).astype(complex)
        assert np.max(np.abs(op - want)) <= 1e-12

    def test_convex_mix(self):
        out = adm_transform(self.d1, self.d2, mode="convex-mix", t=0.25)
        op = frame_operator(out.terms, dim=2)
        want = 0.25 * frame_operator(self.d1.terms, dim=2) + 0.75 * frame_operator(
            self.d2.terms, dim=2
        )
        assert np.max(np.abs(op - want)) <= 1e-12
        with pytest.raises(ValueError):
            adm_transform(self.d1, self.d2, mode="convex-mix", t=1.5)

    def test_split_preserves_frame(self):
        out = adm_transform(self.d1, mode="split", eta=[0.25, 0.25, 0.5])
        assert len(out.terms) == 6
        op = frame_operator(out.terms, dim=2)
        assert np.max(np.abs(op - frame_operator(self.d1.terms, dim=2))) <= 1e-12
        with pytest.raises(ValueError):
            adm_transform(self.d1, mode="split", eta=[0.25, 0.25])

    def test_remainders_map_as_terms(self):
        e = np.eye(2)
        d1 = RankOneDecomp(self.d1.terms, (make_term(0.125, e[1]),))
        d2 = RankOneDecomp(self.d2.terms, (make_term(0.375, e[0]), make_term(0.0625, e[1])))
        out = adm_transform(d1, d2, mode="direct-sum")
        assert [t.weight for t in out.remainder] == [0.125, 0.375, 0.0625]
        assert [int(np.flatnonzero(t.vector)[0]) for t in out.remainder] == [1, 2, 3]
        out = adm_transform(d1, d2, mode="convex-mix", t=0.25)
        assert [t.weight for t in out.terms] == [0.125, 0.25, 0.1875]
        assert [t.weight for t in out.remainder] == [0.03125, 0.28125, 0.046875]
        assert all(a.vector.tobytes() == b.vector.tobytes()
                   for a, b in zip(out.remainder, d1.remainder + d2.remainder))

    @pytest.mark.parametrize("mode", ["direct-sum", "convex-mix"])
    def test_two_operand_modes_need_a_second_decomposition(self, mode):
        with pytest.raises(ValueError, match=f"^{mode} needs a second decomposition$"):
            adm_transform(self.d1, mode=mode)

    def test_convex_mix_refuses_unequal_dimensions(self):
        d3 = RankOneDecomp((make_term(1.0, np.eye(3)[0]),))
        with pytest.raises(DimensionError, match="^convex-mix needs matching dimensions$"):
            adm_transform(self.d1, d3, mode="convex-mix")

    def test_split_refuses_a_missing_or_negative_eta(self):
        with pytest.raises(ValueError, match="^split needs a probability vector$"):
            adm_transform(self.d1, mode="split")
        with pytest.raises(ValueError, match="^split weights must be nonnegative$"):
            adm_transform(self.d1, mode="split", eta=[1.5, -0.5])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            adm_transform(self.d1, self.d2, mode="tensor")
