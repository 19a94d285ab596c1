"""Decision procedures and admissibility algebra.

Finite-dimensional checks: when is a positive operator a finite sum of
rank-one projections, the trace-excess inequality every dominated
decomposition satisfies, and the transforms that combine admissible
decompositions into new ones.
"""

import numpy as np

from admseq import (
    RankOneDecomp,
    RankOneTerm,
    WeightSeq,
    adm_transform,
    ineq_check,
    projection_diag_check,
    sum_of_projections_check,
)

# sums of projections: trace must be an integer at least the rank
A = np.diag([2.0, 1.0, 1.0]).astype(complex)
rep, wit = sum_of_projections_check(A, witness=True)
print("diag(2, 1, 1):", rep.decomposable, "-", rep.num_projections, "projections")
print("  excess above 1:", rep.excess, " deficiency below 1:", rep.deficiency)
S = wit.frame_operator()
print("  witness residual:", np.max(np.abs(S - A)))

rep, _ = sum_of_projections_check(np.diag([0.5, 0.5]).astype(complex))
print("diag(0.5, 0.5):", rep.decomposable, "-", rep.reason)

# the inequality: if B = sum w_j v_j v_j* is dominated by A, the weight
# mass above 1 is controlled by tr((A - I)_+)
e1 = np.array([1.0, 0.0], dtype=complex)
d = RankOneDecomp((RankOneTerm(1.4, e1),))
A = np.diag([1.5, 1.5]).astype(complex)
rep = ineq_check(A, d)
print("\ntrace excess", rep.operator_excess, ">= weight excess", rep.weight_excess, "->", rep.holds)

# projection diagonals with prescribed rank and corank
print("\n(0.5, 0.5) as the diagonal of a rank-1 projection:",
      projection_diag_check(WeightSeq.finite([0.5, 0.5]), 1, 1).ok)
geo = WeightSeq.geometric([], 0.25, 0.5)
xi = WeightSeq.interleave(geo, WeightSeq.one_minus(geo))
print("interleaved geometric, infinite rank and corank:",
      projection_diag_check(xi, float("inf"), float("inf")).ok)

# admissibility is closed under direct sums, convex mixes, and splits
d1 = RankOneDecomp((RankOneTerm(1.0, e1),))
d2 = RankOneDecomp((RankOneTerm(0.5, e1), RankOneTerm(0.5, np.array([0, 1.0], dtype=complex))))

both = adm_transform(d1, d2, mode="direct-sum")
print("\ndirect sum lives in C^4:", both.dim, "dims,", len(both.terms), "terms")

mixed = adm_transform(d2, d2, mode="convex-mix", t=0.25)
print("convex mix weights:", mixed.weights())

split = adm_transform(d1, mode="split", eta=[0.3, 0.2, 0.5])
print("split weights:", split.weights(), "- same frame operator:",
      np.allclose(split.frame_operator(dim=2), d1.frame_operator(dim=2)))
