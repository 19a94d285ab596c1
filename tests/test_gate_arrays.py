"""The numpy path for long finite lists against the per-entry loops.

Lists of at least ``seqkit._ARRAY_MIN`` entries are validated, judged, split
and majorized in numpy passes.  The reference functions below are the
per-entry loops those passes must reproduce; every comparison is bit for
bit (``float.hex``), so -0.0 and 0.0 count as different.  A long list is
converted to float64 once, and the gate results of a long head are kept on
the sequence; those kept results must match a fresh sequence's.
"""

import ast
import math
import random
from collections import deque
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admseq import seqkit
from admseq.errors import SequenceError
from admseq.seqkit import (
    INT_SNAP,
    SUM_TOL,
    KadisonReport,
    MajorizationVerdict,
    SplitSeq,
    WeightSeq,
    _ARRAY_MIN,
    _BLOCK,
    _as_value,
    kadison_check,
    majorizes,
    seq_from_json,
    split_mu_lambda,
    strip_zeros_ones,
)

INF = math.inf
HALF_DOWN = math.nextafter(0.5, 0.0)
HALF_UP = math.nextafter(0.5, 1.0)
SPECIAL = (0.0, -0.0, 5e-324, 0.5, 1.0, HALF_DOWN, HALF_UP, 0.1, 1.0 - 2.0**-53, 2.0**-40)
LENGTHS = (_ARRAY_MIN - 1, _ARRAY_MIN, _ARRAY_MIN + 1, 3 * _ARRAY_MIN + 7, _BLOCK + 5)


# -- the per-entry loops, as the reference -------------------------------

def ref_values(values):
    return tuple(_as_value(v) for v in values)


def ref_kadison(values, alpha=0.5, tol=INT_SNAP) -> KadisonReport:
    a = 0.0
    b = 0.0
    for v in values:
        if v <= alpha:
            a += v
        else:
            b += 1.0 - v
    gap = a - b
    near = round(gap)
    if abs(gap - near) <= tol:
        return KadisonReport(a, b, alpha, True, int(near))
    return KadisonReport(a, b, alpha, False, None)


def ref_split(values) -> SplitSeq:
    mu, lam = [], []
    zeros = ones = 0
    for v in values:
        if v == 0.0:
            zeros += 1
        elif v == 1.0:
            ones += 1
        elif v <= 0.5:
            mu.append(v)
        else:
            lam.append(1.0 - v)
    return SplitSeq(WeightSeq.finite(mu), WeightSeq.finite(lam), zeros, ones, len(mu), len(lam))


def ref_majorizes(xi, eta, tol=SUM_TOL) -> MajorizationVerdict:
    a = [_as_value(v) for v in xi]
    b = [_as_value(v) for v in eta]
    n = max(len(a), len(b))
    a = sorted(a + [0.0] * (n - len(a)), reverse=True)
    b = sorted(b + [0.0] * (n - len(b)), reverse=True)
    sum_gap = math.fsum(a) - math.fsum(b)
    ca = 0.0
    cb = 0.0
    for k in range(n):
        ca += a[k]
        cb += b[k]
        if ca > cb + tol:
            return MajorizationVerdict(False, k + 1, sum_gap)
    if abs(sum_gap) > tol:
        return MajorizationVerdict(False, None, sum_gap)
    return MajorizationVerdict(True, None, sum_gap)


def ref_strip(values):
    kept = tuple(v for v in values if 0.0 < v < 1.0)
    return WeightSeq.finite(kept), values.count(0.0), values.count(1.0)


def ref_interleave(*parts):
    out = []
    chunks = [deque(p) for p in parts if p]
    while chunks:
        nxt = []
        for chunk in chunks:
            out.append(chunk.popleft())
            if chunk:
                nxt.append(chunk)
        chunks = nxt
    return out


def bits(x):
    """x with every float replaced by its hex form, for exact comparison."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if hasattr(x, "__dataclass_fields__"):
        return (type(x).__name__,) + tuple(bits(getattr(x, f)) for f in x.__dataclass_fields__)
    return (type(x).__name__, x)


# -- inputs ----------------------------------------------------------------

@st.composite
def unit_lists(draw, lengths=LENGTHS):
    """Lists in [0, 1] around the cutoff: uniform draws mixed with special
    values, or pairs 1/2 + d, 1/2 - d with tiny d."""
    n = draw(st.sampled_from(lengths))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        share = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
        return [rng.choice(SPECIAL) if rng.random() < share else rng.random() for _ in range(n)]
    out = []
    while len(out) < n:
        d = rng.choice((2.0**-52, 2.0**-30, rng.uniform(0.0, 2.0**-20)))
        out += [0.5 + d, 0.5 - d]
    return out[:n]


def canonical_majorant(values):
    s = math.fsum(values)
    n = int(math.floor(s))
    return [1.0] * n + ([s - n] if s > n else [])


# -- validation ----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(unit_lists())
def test_validation_matches_loop(values):
    want = bits(ref_values(values))
    assert bits(WeightSeq.finite(values).values) == want
    assert bits(WeightSeq.finite(tuple(values)).values) == want
    assert bits(WeightSeq.finitely_supported(values).values) == want
    assert bits(WeightSeq.geometric(values, 0.25, 0.5).values) == want
    assert bits(WeightSeq.periodic(values, values).tail_block) == want


def test_validation_keeps_the_callers_floats():
    values = [random.Random(3).random() for _ in range(2 * _ARRAY_MIN)] + [-0.0]
    got = WeightSeq.finite(values).values
    assert all(g is v for g, v in zip(got, values[:-1]))
    assert got[-1].hex() == "0x0.0p+0"


@pytest.mark.parametrize("n", [_ARRAY_MIN - 1, _ARRAY_MIN, _BLOCK + 5])
@pytest.mark.parametrize("bad, text", [
    (math.nan, "sequence entries must be finite reals, got nan"),
    (math.inf, "sequence entries must be finite reals, got inf"),
    (-math.inf, "sequence entries must be finite reals, got -inf"),
    (-1e-300, "sequence entries must be nonnegative, got -1e-300"),
])
def test_bad_entries_raise_the_loop_error_naming_the_first(n, bad, text):
    for at in (0, n // 2, n - 1):
        values = [0.25] * n
        values[at] = bad
        if at + 1 < n:
            values[at + 1] = -2.0  # a later offender is not the one named
        with pytest.raises(SequenceError) as exc:
            WeightSeq.finite(values)
        assert str(exc.value) == text
        with pytest.raises(SequenceError) as exc:
            majorizes(values, [1.0])
        assert str(exc.value) == text


@pytest.mark.parametrize("other", [1, True, "0.375", Fraction(1, 3)])
def test_non_float_entries_take_the_per_entry_path(other):
    values = [0.25] * (2 * _ARRAY_MIN) + [other]
    assert bits(WeightSeq.finite(values).values) == bits(ref_values(values))
    gen = (v for v in values)
    assert bits(WeightSeq.finite(gen).values) == bits(ref_values(values))


def test_a_long_list_keeps_the_array_its_validation_built():
    values = [random.Random(4).random() for _ in range(2 * _ARRAY_MIN)]
    for seq in (WeightSeq.finite(values), WeightSeq.geometric(values, 0.25, 0.5),
                seq_from_json({"kind": "finite", "values": values}),
                seq_from_json({"kind": "finite", "values": [repr(v) for v in values]})):
        assert "_head" in vars(seq)
        assert bits(tuple(seq._head.tolist())) == bits(seq.values)
    short = WeightSeq.finite(values[: _ARRAY_MIN - 1])
    assert "_head" not in vars(short)


@pytest.mark.parametrize("n", [_ARRAY_MIN - 1, _ARRAY_MIN, _BLOCK + 5])
def test_negative_zeros_read_as_zero_in_values_and_head(n):
    values = [0.25] * n
    for i in (0, n // 2, _BLOCK if n > _BLOCK else 1, n - 1):
        values[i] = -0.0
    seq = WeightSeq.finite(values)
    assert bits(seq.values) == bits(ref_values(values))
    assert bits(tuple(seq._head.tolist())) == bits(seq.values)
    assert not np.signbit(seq._head).any()


# -- gate, split and strip ------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(unit_lists(), st.sampled_from((0.5, 0.1, HALF_DOWN, 0.9)))
def test_kadison_matches_loop(values, alpha):
    got = kadison_check(WeightSeq.finite(values), alpha=alpha)
    assert bits(got) == bits(ref_kadison(ref_values(values), alpha))


@settings(max_examples=40, deadline=None)
@given(unit_lists())
def test_split_matches_loop(values):
    assert bits(split_mu_lambda(WeightSeq.finite(values))) == bits(ref_split(ref_values(values)))


@settings(max_examples=40, deadline=None)
@given(unit_lists())
def test_strip_matches_loop(values):
    assert bits(strip_zeros_ones(WeightSeq.finite(values))) == bits(ref_strip(ref_values(values)))


@settings(max_examples=20, deadline=None)
@given(unit_lists(LENGTHS[:-1]), st.sampled_from((0.1, 0.5, HALF_UP)))
def test_heads_of_closed_forms_match_loop(values, alpha):
    """Long heads before geometric, periodic and one-minus tails, and inside
    interleavings, against seqkit's own loops (the array path switched off).
    The sequences are built afresh on each side, since a long head keeps its
    float64 copy once built."""

    def results():
        seqs = [
            WeightSeq.finitely_supported(values),
            WeightSeq.geometric(values, 0.3, 0.5),
            WeightSeq.periodic(values, [0.0, 0.75, 1.0]),
            WeightSeq.one_minus(WeightSeq.geometric(values, 0.3, 0.5)),
            WeightSeq(seqkit.KIND_INTERLEAVE, parts=(
                WeightSeq.finite(values), WeightSeq.periodic(values, [0.25]))),
        ]
        return [(seqkit._kadison_ab(s, alpha), split_mu_lambda(s), strip_zeros_ones(s),
                 s.entries_within_unit()) for s in seqs]

    got = results()
    with patch.object(seqkit, "_ARRAY_MIN", 10**18):
        want = results()
    assert bits(got) == bits(want)


# -- the kept gate results ---------------------------------------------------

def long_heads(values):
    return [WeightSeq.finite(values), WeightSeq.finitely_supported(values),
            WeightSeq.geometric(values, 0.3, 0.5), WeightSeq.periodic(values, [0.0, 0.75])]


@settings(max_examples=20, deadline=None)
@given(unit_lists(LENGTHS[1:-1]), st.sampled_from((0.5, 0.1, HALF_UP)))
def test_kept_gate_results_match_a_fresh_sequence(values, alpha):
    for seq, fresh, again, snap in zip(*(long_heads(values) for _ in range(4))):
        first = (kadison_check(seq, alpha=alpha), split_mu_lambda(seq))
        kept = (kadison_check(seq, alpha=alpha), split_mu_lambda(seq))
        assert set(seq._gate) == {("ab", alpha), "split"}
        assert kept[1] is first[1]
        assert bits(kept) == bits(first)
        assert bits(kept) == bits((kadison_check(fresh, alpha=alpha), split_mu_lambda(fresh)))
        # the split first, then the test, in the order classify_case asks
        assert bits((split_mu_lambda(again), kadison_check(again, alpha=alpha))) \
            == bits(kept[::-1])
        # the snapping tolerance is applied afresh to the kept sums
        assert bits(kadison_check(seq, alpha=alpha, tol=0.0)) \
            == bits(kadison_check(snap, alpha=alpha, tol=0.0))


def test_kept_gate_results_are_per_instance_and_per_alpha():
    values = [random.Random(7).random() for _ in range(2 * _ARRAY_MIN)]
    seq, twin = WeightSeq.finite(values), WeightSeq.finite(values)
    before = hash(seq)
    for alpha in (0.5, 0.1, 0.5):
        assert bits(kadison_check(seq, alpha=alpha)) == bits(ref_kadison(values, alpha))
    split_mu_lambda(seq)
    assert set(seq._gate) == {("ab", 0.5), ("ab", 0.1), "split"}
    assert "_gate" not in vars(twin)
    assert seq == twin and hash(seq) == hash(twin) == before
    assert {twin: 1}[seq] == 1
    assert kadison_check(twin, alpha=0.1) == kadison_check(seq, alpha=0.1)
    assert set(twin._gate) == {("ab", 0.1)}


def test_short_sequences_keep_no_gate_results():
    seq = WeightSeq.finite([0.25, 0.75] * (_ARRAY_MIN // 2 - 1))
    kadison_check(seq)
    split_mu_lambda(seq)
    assert "_gate" not in vars(seq) and "_head" not in vars(seq)


def test_entries_outside_the_unit_interval_are_refused_every_time():
    seq = WeightSeq.finite([0.25] * _ARRAY_MIN + [1.5])
    for check in (kadison_check, split_mu_lambda, kadison_check):
        with pytest.raises(SequenceError, match=r"entries must lie in \[0, 1\]"):
            check(seq)
    assert seq._gate == {}


# -- majorization ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(unit_lists(), unit_lists(), st.sampled_from((SUM_TOL, 0.0, 1e-6)))
def test_majorizes_matches_loop(xi, other, tol):
    for eta in (canonical_majorant(xi), other, other[: len(other) // 2], sorted(xi)):
        assert bits(majorizes(xi, eta, tol)) == bits(ref_majorizes(xi, eta, tol))
        assert bits(majorizes(eta, xi, tol)) == bits(ref_majorizes(eta, xi, tol))
    seq = WeightSeq.finite(xi)
    assert bits(majorizes(seq, WeightSeq.finite(other))) == bits(ref_majorizes(xi, other))


@settings(max_examples=25, deadline=None)
@given(unit_lists(), unit_lists(), st.sampled_from((SUM_TOL, 0.0)))
def test_majorizes_reads_lists_tuples_and_sequences_alike(xi, other, tol):
    for eta in (canonical_majorant(xi), other[: len(other) // 2]):
        want = bits(ref_majorizes(xi, eta, tol))
        for left in (list, tuple, WeightSeq.finite):
            for right in (list, tuple, WeightSeq.finite):
                assert bits(majorizes(left(xi), right(eta), tol)) == want


def test_majorizes_leaves_the_inputs_as_they_were():
    xi = [random.Random(9).random() for _ in range(3 * _ARRAY_MIN)]
    seq = WeightSeq.finite(xi)
    listed = list(xi)
    want = bits(ref_majorizes(xi, xi))
    assert bits(majorizes(seq, seq)) == bits(majorizes(seq, seq)) == want
    assert bits(majorizes(listed, seq)) == want
    assert listed == xi
    assert bits(tuple(seq._head.tolist())) == bits(seq.values)


@pytest.mark.parametrize("n", [2, _ARRAY_MIN])
def test_majorizes_names_the_side_whose_sum_overflows(n):
    big, small = [1e308] * n, [1.0] * n
    for make in (list, WeightSeq.finite):
        with pytest.raises(SequenceError) as exc:
            majorizes(make(big), make(small))
        assert str(exc.value) == "the entries of xi sum beyond the float64 range"
        with pytest.raises(SequenceError) as exc:
            majorizes(make(small), make(big))
        assert str(exc.value) == "the entries of eta sum beyond the float64 range"


def test_majorizes_finds_a_failure_in_a_later_block():
    xi = [0.5] * (2 * _BLOCK + 18)
    eta = [0.5] * (2 * _BLOCK + 17) + [0.25, 0.25]
    got = majorizes(xi, eta, tol=0.0)
    assert got == ref_majorizes(xi, eta, tol=0.0)
    assert got.failing_index == 2 * _BLOCK + 18


# -- the open exactness defect stays as the loops had it ------------------

def test_tenths_keep_the_left_to_right_sums():
    """10^5 copies of 0.1: the naive sum still misses 10^4 (an open defect),
    and the array path misses it by exactly the loop's amount."""
    values = [0.1] * 10**5
    rep = kadison_check(values)
    assert bits(rep) == bits(ref_kadison(values))
    assert rep.a == 10000.000000018848 and not rep.satisfied
    eta = [1.0] * 10**4
    assert bits(majorizes(values, eta)) == bits(ref_majorizes(values, eta))


# -- interleave -------------------------------------------------------------

@pytest.mark.parametrize("lengths", [(10**5, 10**5), (10**5, 3), (1, 7, 0, 250), (5, 5, 5)])
def test_finite_interleave_matches_round_robin_loop(lengths):
    rng = random.Random(sum(lengths))
    parts = [[rng.random() for _ in range(n)] for n in lengths]
    got = WeightSeq.interleave(*(WeightSeq.finite(p) for p in parts))
    assert bits(got.values) == bits(tuple(ref_interleave(*parts)))


# -- JSON -----------------------------------------------------------------------

def test_json_float_lists_match_the_per_entry_path():
    values = [random.Random(5).random() for _ in range(2 * _ARRAY_MIN)] + [-0.0, 0.0]
    for kind in ("finite", "finitely-supported"):
        got = seq_from_json({"kind": kind, "values": values})
        assert bits(got.values) == bits(ref_values(values))
        strings = seq_from_json({"kind": kind, "values": [repr(v) for v in values]})
        assert bits(strings.values) == bits(got.values)


@pytest.mark.parametrize("entry, text", [
    (True, "expected a number or decimal string, got True"),
    ("x", "bad decimal string 'x'"),
    (None, "expected a number or decimal string, got None"),
    (-1, "sequence entries must be nonnegative, got -1.0"),
    ("nan", "sequence entries must be finite reals, got nan"),
])
def test_json_other_entries_keep_their_errors(entry, text):
    values = [0.25] * (2 * _ARRAY_MIN) + [entry]
    with pytest.raises(SequenceError) as exc:
        seq_from_json({"kind": "finite", "values": values})
    assert str(exc.value) == text


@pytest.mark.parametrize("tail", [0, 2 * _ARRAY_MIN])
@pytest.mark.parametrize("bad, text", [
    (["x", "-1"], "bad decimal string 'x'"),
    (["-1", "x"], "sequence entries must be nonnegative, got -1.0"),
    (["nan", "-1"], "sequence entries must be finite reals, got nan"),
])
def test_json_string_lists_name_the_first_bad_entry(bad, text, tail):
    values = ["0.25"] * 3 + bad + ["0.5"] * tail
    with pytest.raises(SequenceError) as exc:
        seq_from_json({"kind": "finite", "values": values})
    assert str(exc.value) == text


def test_json_ints_convert_entry_by_entry():
    values = [0.25] * (2 * _ARRAY_MIN) + [1, 0]
    assert seq_from_json({"kind": "finite", "values": values}).values[-2:] == (1.0, 0.0)


# -- numpy stays a lazy import -----------------------------------------------

def test_seqkit_does_not_import_numpy_at_module_level():
    tree = ast.parse(Path(seqkit.__file__).read_text())
    names = [alias.name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    modules = [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert not any("numpy" in str(n) for n in names + modules)
