import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admseq.errors import SequenceError
from admseq.seqkit import (
    _ARRAY_MIN,
    WeightSeq,
    _majorizes_many,
    kadison_check,
    majorizes,
    seq_from_json,
    seq_to_json,
    split_mu_lambda,
    strip_zeros_ones,
)

INF = math.inf

unit_vals = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)
unit_lists = st.lists(unit_vals, min_size=0, max_size=8)


# -- construction and closed-form arithmetic --------------------------

def test_negative_entry_rejected():
    with pytest.raises(SequenceError):
        WeightSeq.finite([0.2, -0.1])


def test_geometric_head_then_tail_iteration():
    s = WeightSeq.geometric([0.9], 0.25, 0.5)
    assert s.head(4) == [0.9, 0.25, 0.125, 0.0625]


def test_geometric_zero_first_collapses():
    s = WeightSeq.geometric([0.3], 0.0, 0.5)
    assert s.kind == "finitely-supported"
    assert s.values == (0.3,)


def test_geometric_zero_ratio_collapses():
    s = WeightSeq.geometric([0.3], 0.5, 0.0)
    assert s.kind == "finitely-supported"
    assert s.values == (0.3, 0.5)


def test_geometric_total_closed_form():
    s = WeightSeq.geometric([], 0.25, 0.5)
    assert s.total() == pytest.approx(0.5, abs=1e-15)


def test_tail_sum_counts_entries_from_zero():
    # sum from the entry at index 1 (the 2nd entry) on
    assert WeightSeq.finite([0.2, 0.3]).tail_sum(1) == pytest.approx(0.3)


def test_tail_sum_geometric_exact():
    s = WeightSeq.geometric([], 0.25, 0.5)  # entries 2^-(j+2) for j = 0, 1, ...
    assert s.tail_sum(0) == pytest.approx(0.5, abs=1e-15)
    assert s.tail_sum(1) == pytest.approx(0.25, abs=1e-15)
    assert s.tail_sum(4) == pytest.approx(2.0**-5, abs=1e-18)


def test_tail_sum_periodic_diverges():
    s = WeightSeq.periodic([0.1], [0.4, 0.9])
    assert s.total() == INF
    assert s.tail_sum(100) == INF


def test_one_minus_of_finitely_supported_is_periodic():
    s = WeightSeq.one_minus(WeightSeq.finitely_supported([0.2, 0.7]))
    assert s.kind == "periodic-tail"
    assert s.head(4) == pytest.approx([0.8, 0.3, 1.0, 1.0])


def test_one_minus_of_geometric_keeps_closed_form():
    s = WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6))
    assert s.kind == "one-minus"
    assert s.head(3) == pytest.approx([0.6, 0.76, 0.856])
    assert s.total() == INF


def test_one_minus_is_an_involution():
    inner = WeightSeq.geometric([0.5], 0.25, 0.5)
    assert WeightSeq.one_minus(WeightSeq.one_minus(inner)) == inner


def test_interleave_round_robin_with_exhaustion():
    s = WeightSeq.interleave(
        WeightSeq.finite([1.0, 2.0]),
        WeightSeq.finite([10.0, 20.0, 30.0, 40.0]),
    )
    assert s.kind == "finite"
    assert list(s.values) == [1.0, 10.0, 2.0, 20.0, 30.0, 40.0]


def test_interleave_totals_add():
    s = WeightSeq.interleave(
        WeightSeq.geometric([], 0.25, 0.5),
        WeightSeq.finite([0.3]),
    )
    assert s.total() == pytest.approx(0.8)
    assert s.head(5) == pytest.approx([0.25, 0.3, 0.125, 0.0625, 0.03125])


def test_drop_crosses_into_geometric_tail():
    s = WeightSeq.geometric([0.9, 0.8], 0.25, 0.5)
    d = s.drop(3)
    assert d.head(3) == pytest.approx([0.125, 0.0625, 0.03125])
    assert d.total() == pytest.approx(s.total() - (0.9 + 0.8 + 0.25))


def test_drop_rotates_periodic_block():
    s = WeightSeq.periodic([], [0.1, 0.2, 0.3])
    assert s.drop(4).head(4) == [0.2, 0.3, 0.1, 0.2]


def test_drop_interleave_preserves_remaining_multiset():
    s = WeightSeq.interleave(
        WeightSeq.finite([1.0, 2.0, 3.0]),
        WeightSeq.finitely_supported([10.0]),
    )
    # first four entries are 1, 10, 2, 0
    d = s.drop(4)
    assert d.total() == pytest.approx(3.0)


@given(unit_lists, st.integers(min_value=0, max_value=10))
def test_drop_matches_iteration(vals, n):
    s = WeightSeq.finitely_supported(vals)
    assert s.drop(n).head(6) == s.head(n + 6)[n:]


# -- serialization -----------------------------------------------------

def test_json_round_trip_all_kinds():
    seqs = [
        WeightSeq.finite([0.5, 0.25]),
        WeightSeq.finitely_supported([1.0, 0.5]),
        WeightSeq.geometric([0.9], 0.25, 0.5),
        WeightSeq.periodic([0.1], [0.4, 0.9]),
        WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6)),
        WeightSeq.interleave(
            WeightSeq.geometric([], 0.125, 0.5),
            WeightSeq.one_minus(WeightSeq.geometric([], 0.125, 0.5)),
        ),
    ]
    for s in seqs:
        blob = json.dumps(seq_to_json(s))
        assert seq_from_json(json.loads(blob)) == s


def test_json_accepts_decimal_strings():
    s = seq_from_json({"kind": "finite", "values": ["0.1", 0.2, "3e-1"]})
    assert s.values == (0.1, 0.2, 0.3)


def test_json_rejects_unknown_kind():
    with pytest.raises(SequenceError):
        seq_from_json({"kind": "arithmetic-tail", "values": []})


def test_json_rejects_missing_field():
    with pytest.raises(SequenceError):
        seq_from_json({"kind": "geometric-tail", "values": [], "tail_first": 0.5})


# each refusal of the constructors, tail sums, reader and majorization that
# no other test reaches, on a closed-form input
SEQ_REFUSALS = [
    (lambda: WeightSeq.geometric([], 0.5, 1.0), "geometric tail ratio must lie in [0, 1), got 1.0"),
    (lambda: WeightSeq.periodic([0.5], []), "periodic tail needs a nonempty block"),
    (lambda: WeightSeq.finite([0.5]).tail_sum(-1), "tail start must be nonnegative"),
    (lambda: seq_from_json([]), "sequence JSON must be an object, got list"),
    (lambda: majorizes(WeightSeq.geometric([], 0.5, 0.5), [1.0]), "operation requires a finite sequence"),
]


@pytest.mark.parametrize("call, text", SEQ_REFUSALS, ids=[
    "ratio-one", "empty-block", "negative-tail-start", "json-not-object", "infinite-majorizes"])
def test_refusals_name_the_fault(call, text):
    with pytest.raises(SequenceError) as exc:
        call()
    assert str(exc.value) == text


# -- majorization ------------------------------------------------------

def test_majorizes_basic_hold():
    v = majorizes([0.5, 0.5], [1.0, 0.0])
    assert v.holds
    assert v.failing_index is None
    assert v.sum_gap == pytest.approx(0.0)


def test_majorizes_reports_first_failing_partial_sum():
    v = majorizes([1.0, 0.0], [0.5, 0.5])
    assert not v.holds
    assert v.failing_index == 1


def test_majorizes_requires_equal_totals():
    v = majorizes([0.25, 0.25], [1.0])
    assert not v.holds
    assert v.failing_index is None
    assert v.sum_gap == pytest.approx(-0.5)


def test_majorizes_zero_pads_shorter_side():
    assert majorizes([0.5, 0.25, 0.25], [1.0]).holds
    assert majorizes([0.4, 0.3, 0.3], [0.5, 0.5]).holds


# entries that take the padded pass and those left to majorizes: zero, -0.0,
# subnormal, overflowing, infinite, NaN and negative
pair_vals = st.one_of(st.floats(min_value=1e-12, max_value=2.0), st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 1.0, 1.0 + 1e-12, 1e308, INF, -INF, math.nan, -0.5]))
side_lists = st.lists(pair_vals, max_size=7)


@st.composite
def near_pairs(draw):
    """x and a rearrangement of it with mass moved between two entries by
    about SUM_TOL, so partial sums sit within SUM_TOL of crossing."""
    x = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5, 1.0 / 3.0, 0.7]) | unit_vals,
                      min_size=1, max_size=7))
    e = draw(st.permutations(x))
    i, j = draw(st.integers(0, len(e) - 1)), draw(st.integers(0, len(e) - 1))
    shift = draw(st.sampled_from([0.0, 4e-13, 9e-13, 1e-12, 1.1e-12, 2e-12]))
    e[i] += shift
    e[j] -= shift
    return x, e


@st.composite
def tail_pairs(draw):
    """Two-entry pairs with x1 + x2 = e1 + e2 up to rounding, as a tail step's."""
    (x1, _), (e1, e2) = draw(st.tuples(st.tuples(pair_vals, pair_vals), st.tuples(pair_vals, pair_vals)))
    x2 = e1 + e2 - x1 if math.isfinite(e1 + e2 - x1) else x1
    return [x1, x2], [e1, e2]


def outcome(f):
    """Every verdict's repr, or the type and text of the first error."""
    try:
        return [repr(v) for v in f()]
    except Exception as exc:
        return type(exc), str(exc)


@given(st.lists(st.tuples(side_lists, side_lists) | near_pairs() | tail_pairs(), max_size=8))
@example([((1.0 + 5e-13, 0.5), (1.0, 0.5 + 5e-13))])  # within tol at the first partial sum
@example([((-0.0, -0.0), (0.0, 0.0))])  # -0.0 read as 0.0: the gap is +0.0
@example([((0.5, 0.25, 0.25), (1.0,)), ((0.5, 0.5), (0.5, 0.5, 0.0, 0.0))])  # ties, unequal lengths
@example([((0.6, 0.4), (0.5, 0.5)), ((1e308, 1e308), (1.0,)), ((-0.5,), (1.0,))])  # the first raises
@settings(max_examples=600)
def test_majorizes_many_is_majorizes_pair_by_pair(pairs):
    # the batched verdicts of a run's stages: each verdict's repr, and the
    # first error, as majorizes gives them one pair at a time
    xs, es = [list(x) for x, _ in pairs], [list(e) for _, e in pairs]
    assert outcome(lambda: _majorizes_many(xs, es)) == outcome(lambda: [majorizes(x, e) for x, e in zip(xs, es)])


@given(st.integers(_ARRAY_MIN - 2, _ARRAY_MIN + 30), st.integers(0, _ARRAY_MIN + 30), unit_vals,
       st.sampled_from([None, math.nan, -0.25, 1e308]), st.lists(st.tuples(side_lists, side_lists), max_size=3))
@settings(max_examples=100)
def test_majorizes_many_leaves_long_pairs_to_majorizes(n, m, v, bad, short):
    # pairs of _ARRAY_MIN entries or more, among short ones, valid or not
    x = [v] * n + ([] if bad is None else [bad])
    pairs = [*short, (x, [v] * m + [1.0] * (n - m)), *short]
    xs, es = [list(x) for x, _ in pairs], [list(e) for _, e in pairs]
    assert outcome(lambda: _majorizes_many(xs, es)) == outcome(lambda: [majorizes(x, e) for x, e in zip(xs, es)])


@given(unit_lists)
def test_majorization_is_reflexive(vals):
    assert majorizes(vals, vals).holds


@given(unit_lists)
def test_canonical_flat_majorant(vals):
    """Any [0,1] list is majorized by ones followed by the fractional rest."""
    total = math.fsum(vals)
    n = int(math.floor(total))
    eta = [1.0] * n + ([total - n] if total > n else [])
    assert majorizes(vals, eta).holds


# -- the Kadison test --------------------------------------------------

def test_kadison_frozen_small_example():
    rep = kadison_check([0.3, 0.9, 0.8])
    assert rep.a == pytest.approx(0.3)
    assert rep.b == pytest.approx(0.3)
    assert rep.satisfied
    assert rep.integer_gap == 0


def test_kadison_violating_example():
    rep = kadison_check([0.3, 0.3])
    assert not rep.satisfied
    assert rep.integer_gap is None


def test_kadison_divergent_side_always_passes():
    rep = kadison_check(WeightSeq.periodic([], [0.3]))
    assert rep.a == INF
    assert rep.satisfied


def test_kadison_geometric_exact_split():
    # entries 0.8, 0.4, 0.2, ...: a = 0.4/(1 - 0.5) = 0.8, b = 0.2
    rep = kadison_check(WeightSeq.geometric([], 0.8, 0.5))
    assert rep.a == pytest.approx(0.8, abs=1e-12)
    assert rep.b == pytest.approx(0.2, abs=1e-12)
    assert not rep.satisfied


# the cut's first estimate, ceil(log(alpha / f) / log(q)), is one off here in
# each direction, so each of its two corrections runs
@pytest.mark.parametrize("f, q, alpha, estimate", [
    (1.0, 0.1, 1e-3, 3),  # 0.1**3 > 1e-3 in float64: the cut steps up to 4
    (1.0, 0.01, 1.0000000000000004e-46, 24),  # 0.01**23 <= alpha: down to 23
], ids=["up", "down"])
def test_kadison_cut_matches_a_brute_force_cut(f, q, alpha, estimate):
    assert max(0, math.ceil(math.log(alpha / f) / math.log(q))) == estimate
    k = next(j for j in itertools.count() if f * q**j <= alpha)
    assert abs(k - estimate) == 1
    seq = WeightSeq.geometric([], f, q)
    assert seq._cut(alpha) == k
    rep = kadison_check(seq, alpha=alpha)
    assert rep.a == pytest.approx(f * q**k / (1.0 - q), rel=1e-12)
    assert rep.b == pytest.approx(math.fsum(1.0 - f * q**j for j in range(k)), rel=1e-12)


def test_kadison_one_minus_geometric():
    # entries 1 - 0.8*0.5^k: the complement of the previous case
    rep = kadison_check(WeightSeq.one_minus(WeightSeq.geometric([], 0.8, 0.5)))
    assert rep.a == pytest.approx(0.2, abs=1e-12)
    assert rep.b == pytest.approx(0.8, abs=1e-12)
    assert not rep.satisfied


def test_kadison_rejects_entries_above_one():
    with pytest.raises(SequenceError):
        kadison_check([1.2])


def test_kadison_rejects_bad_threshold():
    with pytest.raises(SequenceError):
        kadison_check([0.5], alpha=1.0)


@given(unit_lists, st.floats(min_value=0.05, max_value=0.95))
def test_kadison_verdict_ignores_threshold(vals, alpha):
    assert kadison_check(vals, alpha=alpha).satisfied == kadison_check(vals).satisfied


@given(unit_lists)
def test_kadison_complement_symmetry(vals):
    direct = kadison_check(vals)
    flipped = kadison_check([1.0 - v for v in vals])
    assert direct.satisfied == flipped.satisfied


@given(unit_lists, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_kadison_padding_with_zeros_and_ones(vals, nz, no):
    padded = list(vals) + [0.0] * nz + [1.0] * no
    assert kadison_check(padded).satisfied == kadison_check(vals).satisfied


@settings(max_examples=200)
@given(unit_lists)
def test_kadison_matches_direct_sum_oracle(vals):
    rep = kadison_check(vals)
    a = math.fsum(v for v in vals if v <= 0.5)
    b = math.fsum(1.0 - v for v in vals if v > 0.5)
    assert rep.a == pytest.approx(a, abs=1e-12)
    assert rep.b == pytest.approx(b, abs=1e-12)
    assert rep.satisfied == (abs((a - b) - round(a - b)) <= 1e-9)


# -- splitting and stripping -------------------------------------------

def test_split_keeps_boundary_in_small_part():
    sp = split_mu_lambda([0.5, 0.7, 0.2, 1.0, 0.0])
    assert list(sp.mu.values) == [0.5, 0.2]
    assert list(sp.lam.values) == pytest.approx([0.3])
    assert sp.zeros_count == 1
    assert sp.ones_count == 1
    assert (sp.M, sp.N) == (2, 1)


def test_split_one_minus_geometric_gives_geometric_lam():
    xi = WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6))
    sp = split_mu_lambda(xi)
    assert sp.lam.kind == "geometric-tail"
    assert sp.lam.head(3) == pytest.approx([0.4, 0.24, 0.144])
    assert sp.M == 0
    assert sp.N == INF


def test_split_geometric_puts_large_head_in_lam():
    xi = WeightSeq.geometric([], 0.8, 0.5)
    sp = split_mu_lambda(xi)
    assert list(sp.lam.values) == pytest.approx([0.2])
    assert sp.mu.kind == "geometric-tail"
    assert sp.mu.total() == pytest.approx(0.8)


def test_split_periodic_block():
    xi = WeightSeq.periodic([], [0.4, 0.9])
    sp = split_mu_lambda(xi)
    assert sp.mu.total() == INF
    assert sp.lam.total() == INF
    assert sp.mu.head(2) == [0.4, 0.4]
    assert sp.lam.head(2) == pytest.approx([0.1, 0.1])


def test_strip_zeros_ones_counts():
    core, zeros, ones = strip_zeros_ones(WeightSeq.finite([0.0, 1.0, 0.5, 1.0]))
    assert list(core.values) == [0.5]
    assert zeros == 1
    assert ones == 2


def test_strip_finitely_supported_has_infinite_zeros():
    core, zeros, ones = strip_zeros_ones(WeightSeq.finitely_supported([0.5, 1.0]))
    assert list(core.values) == [0.5]
    assert zeros == INF
    assert ones == 1


def test_strip_one_minus_swaps_counts():
    inner = WeightSeq.geometric([1.0, 0.0], 0.4, 0.6)
    core, zeros, ones = strip_zeros_ones(WeightSeq.one_minus(inner))
    assert zeros == 1  # from the inner entry exactly 1
    assert ones == 1   # from the inner entry exactly 0
    assert core.head(2) == pytest.approx([0.6, 0.76])


def test_strip_one_minus_counts_an_entry_rounding_to_one():
    # 1 - 1e-20 is 1.0 in float64, so the entry is a one, as the split says
    xi = WeightSeq.one_minus(WeightSeq.geometric([1e-20], 0.4, 0.6))
    core, zeros, ones = strip_zeros_ones(xi)
    assert (zeros, ones) == (0, 1)
    assert ones == split_mu_lambda(xi).ones_count
    assert core.head(2) == pytest.approx([0.6, 0.76])


def test_closed_form_tail_splits_on_exact_defects():
    # the tail entries 1 - 0.25 * 1e-20**j are 1.0 in float64, but a
    # closed-form tail is split on its exact defects: no ones, and lam is
    # the inner geometric tail itself; a finite list of the same float64
    # values counts its 1.0 as a one
    tail = WeightSeq.geometric([], 0.25, 1e-20)
    xi = WeightSeq.one_minus(tail)
    assert xi.head(3) == [0.75, 1.0, 1.0]
    sp = split_mu_lambda(xi)
    assert (sp.ones_count, sp.zeros_count) == (0, 0)
    assert sp.lam == tail
    assert sp.lam.head(3) == [0.25, 0.25 * 1e-20, 0.25 * 1e-20 * 1e-20]
    assert strip_zeros_ones(xi)[1:] == (0, 0)
    listed = split_mu_lambda(xi.head(3))
    assert listed.ones_count == 2
    assert list(listed.lam.values) == [0.25]


@given(unit_lists)
def test_split_parts_recombine_total(vals):
    sp = split_mu_lambda(vals)
    rebuilt = sp.mu.total() + sum(1.0 - v for v in sp.lam.values) + sp.ones_count
    assert rebuilt == pytest.approx(math.fsum(vals), abs=1e-9)


# -- drop on an interleaving ---------------------------------------------

leaf_seqs = st.one_of(
    unit_lists.map(WeightSeq.finite),
    unit_lists.map(WeightSeq.finitely_supported),
    st.builds(WeightSeq.geometric, unit_lists, st.floats(1e-3, 1.0), st.floats(0.05, 0.95)),
    st.builds(WeightSeq.periodic, unit_lists, st.lists(unit_vals, min_size=1, max_size=3)),
)
interleave_trees = st.recursive(
    leaf_seqs | leaf_seqs.map(WeightSeq.one_minus),
    lambda kids: st.lists(kids, min_size=2, max_size=3).map(lambda ps: WeightSeq.interleave(*ps)),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(interleave_trees, st.integers(0, 30), st.integers(0, 20))
def test_drop_goes_on_with_the_round_robin(s, n, m):
    # a dropped geometric tail is re-based, which rounds in the last bit
    assert s.drop(n).head(m) == pytest.approx(s.head(n + m)[n:], rel=1e-15)


def test_drop_of_an_interleave_keeps_its_order():
    s = WeightSeq.interleave(WeightSeq.geometric([], 0.25, 0.5), WeightSeq.finite([0.75] * 3))
    assert s.drop(1).head(6) == s.head(7)[1:] == [0.75, 0.125, 0.75, 0.0625, 0.75, 0.03125]
    assert s.drop(6).kind == "geometric-tail"
