"""Written JSON files, the sparse array form and the readers' fast path.

Every file the CLI writes must be the bytes of
``json.dump(obj, fh, sort_keys=True, indent=2)`` plus a newline, with ``obj``
built from plain lists.  That call stays here as the reference for
``jsonio.write_json``.  The CLI writes each complex array in its sparse form,
the pairs that are not (+0.0, +0.0) with their indices; ``sparse`` below
builds it pair by pair as the reference.  The readers take the sparse form or
the dense list and convert lists of float pairs in one numpy call; the
per-entry conversion stays here as their reference.
"""

from __future__ import annotations

import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admseq import jsonio
from admseq.bridge import decomp_to_isometry
from admseq.carpenter import carpenter_decompose
from admseq.checkers import sum_of_projections_check
from admseq.cli import main
from admseq.errors import DimensionError, SequenceError
from admseq.operators import (
    RankOneDecomp,
    RankOneTerm,
    _array_doc,
    _complex_array_from_json,
    _complex_from_json,
    _plain,
    _vec_from_json,
    decomp_from_json,
    decomp_to_json,
    frame_operator,
    make_term,
    op_from_json,
    op_to_json,
)
from admseq.seqkit import _real_from_json, seq_from_json
from admseq.streams import stream_from_json


def reference_bytes(obj) -> bytes:
    """What the CLI wrote before ``jsonio``: the standard library encoder."""
    fh = io.StringIO()
    json.dump(obj, fh, sort_keys=True, indent=2)
    fh.write("\n")
    return fh.getvalue().encode("utf-8")


def pairs(arr) -> list:
    """A complex array as the plain ``[[re, im], ...]`` list, row-major."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr).reshape(-1)]


def sparse(arr) -> dict:
    """A complex array's sparse form: the pairs, row-major, with a value whose
    bits are not all clear (``-0.0``, NaN and the infinities included)."""
    flat = pairs(arr)
    kept = [i for i, p in enumerate(flat)
            if any(x != 0.0 or math.copysign(1.0, x) < 0 for x in p)]
    return {"size": len(flat), "indices": kept, "values": [flat[i] for i in kept]}


def dense_decomp(decomp) -> dict:
    """A decomposition's document in the dense form written before the
    sparse one: every term vector as its full list of pairs."""
    out = {"terms": [{"weight": t.weight, "vector": pairs(t.vector)} for t in decomp.terms]}
    if decomp.remainder:
        out["remainder_terms"] = [{"weight": t.weight, "vector": pairs(t.vector)}
                                  for t in decomp.remainder]
    return out


def plain(obj):
    """``obj`` with every complex ndarray replaced by its list of pairs and
    every integer one by its list of ints."""
    if isinstance(obj, np.ndarray):
        return pairs(obj) if obj.dtype.kind == "c" else obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def per_entry(entries) -> np.ndarray:
    """The readers' conversion before the fast path."""
    return np.asarray([_complex_from_json(e) for e in entries], dtype=complex)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


PERIODIC = {"kind": "periodic-tail", "values": [0.4, 0.9], "tail_block": [0.4, 0.9]}
LAMBDA = {"kind": "periodic-tail", "values": [0.6, 0.5], "tail_block": [0.75]}
BOTH_SUMMABLE = {
    "kind": "interleave",
    "parts": [
        {"kind": "geometric-tail", "values": [], "tail_first": 0.125, "tail_ratio": 0.5},
        {"kind": "one-minus", "of": {"kind": "geometric-tail", "values": [],
                                     "tail_first": 0.125, "tail_ratio": 0.5}},
    ],
}
MU_FINITE = {"kind": "one-minus", "of": {"kind": "geometric-tail", "values": [],
                                         "tail_first": 0.4, "tail_ratio": 0.6}}
BASIS = {"kind": "orthonormal-basis"}
BLOCK4 = {"kind": "block-overlap", "block": 4}


# -- the CLI's written files --------------------------------------------

@pytest.mark.parametrize(
    "weights, stream, stages, has_remainder",
    [
        (PERIODIC, BASIS, 12, True),
        (PERIODIC, BLOCK4, 8, True),
        (LAMBDA, BLOCK4, 6, True),
        (BOTH_SUMMABLE, BASIS, 8, False),
        (MU_FINITE, BASIS, 40, True),
    ],
    ids=["mu-divergent-basis", "mu-divergent-block4", "lambda-divergent-block4",
         "both-summable-basis", "mu-finite-basis"],
)
def test_decompose_files_match_json_dump(tmp_path, capsys, weights, stream, stages,
                                         has_remainder):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"weights": weights, "stream": stream}))
    out = tmp_path / "dec.json"
    assert main(["decompose", str(inp), "--stages", str(stages), "--out", str(out)]) == 0
    capsys.readouterr()

    decomp, _, _ = carpenter_decompose(seq_from_json(weights), stream_from_json(stream),
                                       stages=stages)
    assert bool(decomp.remainder) == has_remainder
    expected = {"terms": [{"weight": t.weight, "vector": sparse(t.vector)}
                          for t in decomp.terms]}
    if has_remainder:
        expected["remainder_terms"] = [{"weight": t.weight, "vector": sparse(t.vector)}
                                       for t in decomp.remainder]
    assert decomp_to_json(decomp) == expected
    assert out.read_bytes() == reference_bytes(expected)
    target = frame_operator(list(decomp.terms) + list(decomp.remainder), dim=decomp.dim)
    assert op_to_json(target) == {"dim": decomp.dim, "entries": sparse(target)}
    assert (tmp_path / "dec.target.json").read_bytes() == reference_bytes(op_to_json(target))


def test_bridge_record_matches_json_dump(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"weights": PERIODIC, "stream": BLOCK4}))
    dec, out = tmp_path / "dec.json", tmp_path / "br.json"
    assert main(["decompose", str(inp), "--stages", "8", "--out", str(dec)]) == 0
    assert main(["bridge", str(dec), "--out", str(out)]) == 0
    capsys.readouterr()

    record = decomp_to_isometry(decomp_from_json(json.loads(dec.read_text())))
    expected = {
        "isometry": {"rows": record.isometry.shape[0], "cols": record.isometry.shape[1],
                     "entries": sparse(record.isometry)},
        "sqrt_gram": {"rows": record.sqrt_gram.shape[0], "cols": record.sqrt_gram.shape[1],
                      "entries": sparse(record.sqrt_gram)},
        "kept_indices": list(record.kept_indices),
        "weights": list(record.weights),
    }
    assert out.read_bytes() == reference_bytes(expected)


def test_check_sums_witness_matches_json_dump(tmp_path, capsys):
    rng = np.random.default_rng(3)
    n = 6
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.concatenate([rng.uniform(0.2, 0.9, n - 1), [0.0]])
    w[-1] = n + 1 - w[:-1].sum()
    a = (q * w) @ q.conj().T
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"dim": n, "entries": pairs(a)}))
    out = tmp_path / "wit.json"
    assert main(["check-sums", str(op), "--witness", "--out", str(out)]) == 0
    capsys.readouterr()

    _, witness = sum_of_projections_check(op_from_json(json.loads(op.read_text())),
                                          witness=True)
    expected = {"terms": [{"weight": t.weight, "vector": sparse(t.vector)}
                          for t in witness.terms]}
    assert out.read_bytes() == reference_bytes(expected)


# -- the writer on its own ----------------------------------------------

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1 + 0.2, 1.0, -2.5,
           math.nan, math.inf, -math.inf, 1.7976931348623157e308]
reals = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def complex_arrays(draw):
    n = draw(st.sampled_from([0, 1, 2, 3, 7]))
    flat = draw(st.lists(reals, min_size=2 * n, max_size=2 * n))
    arr = np.array(flat, dtype=np.float64).view(complex)
    if n and draw(st.booleans()):
        return arr.reshape(1, n)
    return arr


@st.composite
def zero_heavy_arrays(draw):
    """Runs of +0.0 pairs, possibly empty, around pairs drawn from ``reals``
    with extra weight on signed zeros, so most pairs are (+0.0, +0.0) and
    some differ from it in the sign bit alone."""
    signed_zeros = st.sampled_from([-0.0, 0.0])
    pair = st.tuples(st.one_of(signed_zeros, reals), st.one_of(signed_zeros, reals))
    runs = draw(st.lists(st.tuples(st.integers(0, 9), pair), max_size=6))
    flat = []
    for zeros, (re, im) in runs:
        flat += [0.0, 0.0] * zeros + [re, im]
    flat += [0.0, 0.0] * draw(st.integers(0, 9))
    return np.array(flat, dtype=np.float64).view(complex)


def mostly_zero(n: int, pairs: dict) -> np.ndarray:
    """n pairs of +0.0, except ``pairs``: {index: complex value}."""
    arr = np.zeros(n, dtype=complex)
    for i, z in pairs.items():
        arr[i] = z
    return arr


@st.composite
def int_arrays(draw):
    """Index arrays as the sparse form holds them, and wider integer types."""
    dtype = draw(st.sampled_from([np.intp, np.int32, np.uint64]))
    info = np.iinfo(dtype)
    ints = st.integers(int(info.min), int(info.max))
    return np.array(draw(st.lists(ints, max_size=7)), dtype=dtype)


scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20), reals,
                    st.text(max_size=4))


def nested(leaf):
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.text(max_size=3), inner, max_size=3),
        ),
        max_leaves=8,
    )


@settings(max_examples=300, deadline=None)
@given(obj=nested(st.one_of(complex_arrays(), zero_heavy_arrays(), int_arrays(), scalars)),
       chunk=st.sampled_from([1, 2, 4096]))
@example(obj=np.zeros(3 * 4096 + 5, dtype=complex), chunk=4096)
@example(obj=[np.zeros((2, 3), dtype=complex), np.zeros(1, dtype=complex)], chunk=2)
@example(obj={"a": mostly_zero(9000, {0: 1.0, 4096: 0.5j, 8999: -1.0})}, chunk=4096)
@example(obj=mostly_zero(5000, {4095: complex(-0.0, 0.0), 4097: complex(0.0, -0.0)}),
         chunk=4096)
@example(obj=mostly_zero(9, {2: complex(-0.0, 0.0), 3: complex(0.0, -0.0),
                             7: complex(-0.0, -0.0)}), chunk=1)
@example(obj=mostly_zero(9, {0: complex(0.0, -0.0), 4: complex(math.nan, 0.0),
                             5: complex(0.0, -math.inf)}), chunk=2)
@example(obj={"indices": np.array([0, 3, 2**40], dtype=np.intp), "size": 5,
              "values": np.array([1.0, -0.0j, math.inf])}, chunk=4096)
@example(obj=np.zeros(0, dtype=np.intp), chunk=4096)
def test_writer_matches_json_dump(tmp_path_factory, obj, chunk):
    path = tmp_path_factory.getbasetemp() / "writer.json"
    with mock.patch.object(jsonio, "CHUNK_PAIRS", chunk):
        jsonio.write_json(str(path), obj)
    assert path.read_bytes() == reference_bytes(plain(obj))


def test_writer_writes_bounded_chunks():
    arr = np.arange(3 * jsonio.CHUNK_PAIRS + 5, dtype=float) * (0.1 + 0.3j)
    doc = {"entries": arr, "dim": 1}
    writes = []
    jsonio._write(writes.append, doc, 0)
    assert "".join(writes) + "\n" == reference_bytes(plain(doc)).decode()
    chunks = [w for w in writes if len(w) > 100]
    assert len(chunks) == 4
    assert max(map(len, chunks)) < 40 * 2 * jsonio.CHUNK_PAIRS


def decomposition_writes(decomp) -> list[str]:
    """The writes of what ``decompose --out`` and ``check-sums --witness
    --out`` write for ``decomp``: the batched writer on its term matrix, all
    but the final newline."""
    writes = []
    jsonio._write_decomposition(writes.append, decomp)
    return writes


@st.composite
def term_lists(draw):
    """Terms and remainder terms whose vectors are real (imaginary parts
    +0.0 or -0.0) or complex, with parts from ``reals`` among many +0.0, so
    some vectors are all zero; weights from ``reals`` too, ``-0.0`` among
    them.  The vectors need not have unit norm: the writer never looks."""
    dim = draw(st.integers(0, 5))
    real = draw(st.booleans())

    def term():
        parts = draw(st.lists(st.one_of(st.just(0.0), reals), min_size=2 * dim,
                              max_size=2 * dim))
        if real:
            parts[1::2] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=dim,
                                        max_size=dim))
        weight = draw(st.one_of(st.sampled_from([-0.0, 0.0, 0.5]), reals))
        return RankOneTerm(weight, np.array(parts, dtype=np.float64).view(complex))

    terms = tuple(term() for _ in range(draw(st.integers(0, 6))))
    return terms, tuple(term() for _ in range(draw(st.integers(0, 3))))


def decompositions():
    return term_lists().map(lambda lists: RankOneDecomp(*lists))


def vec(*parts) -> np.ndarray:
    return np.array(parts, dtype=complex)


@settings(max_examples=300, deadline=None)
@given(decomp=decompositions(), chunk=st.sampled_from([1, 2, 4096]))
@example(decomp=RankOneDecomp(()), chunk=4096)
@example(decomp=RankOneDecomp((RankOneTerm(0.5, vec(1, 0)),)), chunk=4096)
@example(decomp=RankOneDecomp((RankOneTerm(0.5, vec(0.6, 0.8j)),),
                              (RankOneTerm(0.25, vec(0, 1)),)), chunk=1)
@example(decomp=RankOneDecomp((RankOneTerm(1.0, vec(0, 0, 0)), RankOneTerm(-0.0, vec(0, 1, 0))),
                              (RankOneTerm(0.0, vec(0, 0, 0)),)), chunk=2)
@example(decomp=RankOneDecomp((RankOneTerm(-0.0, vec(complex(-0.0, 0.0), complex(math.nan, -0.0),
                                                     complex(math.inf, 5e-324),
                                                     complex(5e-324, -math.inf))),)), chunk=1)
@example(decomp=RankOneDecomp((), (RankOneTerm(0.5, vec(1, 0)),)), chunk=4096)
def test_decomposition_writer_matches_json_dump(decomp, chunk):
    with mock.patch.object(jsonio, "CHUNK_PAIRS", chunk):
        written = "".join(decomposition_writes(decomp)) + "\n"
    assert written.encode() == reference_bytes(decomp_to_json(decomp))


def test_decomposition_writer_writes_bounded_chunks():
    # 10**4 terms of 3 non-zero pairs each, the last 100 of them remainder
    # terms; a term counts as one more pair, so 4 * 10**4 units make at
    # least 10 chunks of CHUNK_PAIRS
    rng = np.random.default_rng(5)
    m, dim = 10**4, 40
    vectors = np.zeros((m, dim), dtype=complex)
    for row in vectors:
        row[rng.choice(dim, 3, replace=False)] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    terms = [RankOneTerm(float(w), v) for w, v in zip(rng.uniform(0, 1, m), vectors)]
    decomp = RankOneDecomp(tuple(terms[:-100]), tuple(terms[-100:]))
    writes = decomposition_writes(decomp)
    assert ("".join(writes) + "\n").encode() == reference_bytes(decomp_to_json(decomp))
    chunks = [w for w in writes if len(w) > 1000]
    assert len(chunks) >= math.ceil(4 * m / jsonio.CHUNK_PAIRS)
    assert max(map(len, chunks)) < 200 * jsonio.CHUNK_PAIRS


def float_bits(weights) -> bytes:
    return np.array(weights, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(lists=term_lists())
@example(lists=((), ()))
@example(lists=((), (RankOneTerm(0.5, vec(1, 0)),)))
@example(lists=((RankOneTerm(-0.0, vec(0, 0, 0)),), ()))
def test_row_form_gives_back_its_terms(lists):
    # one stacked matrix gives back the terms it was built from, and its
    # frame product and document are the ones the terms give one by one
    terms, remainder = lists
    dec = RankOneDecomp(terms, remainder)
    for got, given_ in ((dec.terms, terms), (dec.remainder, remainder)):
        assert len(got) == len(given_)
        assert float_bits([t.weight for t in got]) == float_bits([t.weight for t in given_])
        assert all(same_bits(a.vector, b.vector) for a, b in zip(got, given_))
    assert float_bits(dec.weights()) == float_bits([t.weight for t in terms])
    if not terms + remainder:
        with pytest.raises(DimensionError, match="^empty decomposition has no ambient dimension$"):
            dec.dim
        return
    dim = len((terms + remainder)[0].vector)
    assert dec.dim == dim
    for with_remainder in (False, True):
        with np.errstate(all="ignore"):  # the drawn parts include inf and nan
            want = frame_operator(terms + remainder if with_remainder else terms, dim=dim)
            got = dec.frame_operator(with_remainder=with_remainder)
        assert same_bits(got, want)
    doc = {"terms": [{"weight": t.weight, "vector": sparse(t.vector)} for t in terms]}
    if remainder:
        doc["remainder_terms"] = [{"weight": t.weight, "vector": sparse(t.vector)}
                                  for t in remainder]
    assert same_doc(decomp_to_json(dec), doc)


ZEROS_AND_ONES = {"kind": "periodic-tail", "values": [1.0, 1.0, 0.0], "tail_block": [0.4, 0.9]}
ONES_AFTER_CORE = {"kind": "periodic-tail", "values": [0.3, 0.7, 0.0], "tail_block": [1.0]}


@pytest.mark.parametrize(
    "weights, stream",
    [(PERIODIC, BLOCK4), (MU_FINITE, BASIS), (ZEROS_AND_ONES, BASIS), (ONES_AFTER_CORE, BLOCK4)],
    ids=["mu-divergent-block4", "mu-finite-basis", "zeros-and-ones", "ones-after-core"],
)
def test_term_vectors_are_views_of_one_matrix(weights, stream):
    decomp, _, _ = carpenter_decompose(seq_from_json(weights), stream_from_json(stream), stages=6)
    back = decomp_from_json(json.loads(written(decomp_to_json(decomp))))
    for dec in (decomp, back):
        assert not dec.rows.flags.writeable
        assert all(np.shares_memory(t.vector, dec.rows) for t in dec.terms + dec.remainder)


@pytest.mark.parametrize("obj", [np.int64(3), np.array([0.5]), np.array([True])],
                         ids=["int64-scalar", "float-array", "bool-array"])
def test_writer_refuses_what_json_refuses(tmp_path, obj):
    with pytest.raises(TypeError):
        jsonio.write_json(str(tmp_path / "x.json"), {"a": obj})


# -- the readers' fast path ---------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(reals, reals), max_size=9))
def test_float_pairs_convert_bit_for_bit(raw):
    entries = [list(p) for p in raw]
    assert same_bits(_vec_from_json(entries), per_entry(entries))
    parsed = json.loads(json.dumps(entries))
    assert same_bits(_vec_from_json(parsed), per_entry(parsed))


def test_written_files_read_back_bit_for_bit():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a[0, 0] = complex(-0.0, 5e-324)
    buf = io.StringIO()
    jsonio._write(buf.write, {"dim": 5, "entries": a}, 0)
    obj = json.loads(buf.getvalue())
    assert same_bits(op_from_json(obj), a)
    assert same_bits(op_from_json(obj), per_entry(obj["entries"]).reshape(5, 5))


@pytest.mark.parametrize(
    "entries",
    [
        [["0.5", "-0.25"], [1.0, 0.0]],
        [[1, 0], [0.0, 1.0]],
        [0.5, [1.0, 0.0]],
        [0.5, 2],
        [["1e-3", 0.0]],
        [(0.5, 0.5), [0.0, 1.0]],
    ],
    ids=["decimal-strings", "ints", "scalar-entry", "scalars", "string-and-float", "tuple"],
)
def test_other_accepted_entries_unchanged(entries):
    assert same_bits(_vec_from_json(entries), per_entry(entries))


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[True, 0.0], [0.0, 1.0]], "expected a number or decimal string, got True"),
        ([[0.0, False]], "expected a number or decimal string, got False"),
        ([[0.5], [0.0, 1.0]], "complex entries are [re, im] pairs, got [0.5]"),
        ([[0.5, 0.5, 0.5]], "complex entries are [re, im] pairs, got [0.5, 0.5, 0.5]"),
        ([[0.5, None]], "expected a number or decimal string, got None"),
        ([["x", 0.0]], "bad decimal string 'x'"),
        ([True], "expected a number or decimal string, got True"),
    ],
)
def test_rejected_entries_unchanged(entries, message):
    with pytest.raises(SequenceError) as fast:
        _vec_from_json(entries)
    with pytest.raises(SequenceError) as slow:
        per_entry(entries)
    with pytest.raises(SequenceError) as op:
        op_from_json({"dim": 1, "entries": entries[:1]})
    assert str(fast.value) == str(slow.value) == str(op.value) == message


@pytest.mark.parametrize(
    "operator, message",
    [
        ({"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
         "operator claims dim 2 but has 3 entries"),
        ({"dim": 1, "entries": [[1.0, 0.0], [0.0, 0.0]]},
         "operator claims dim 1 but has 2 entries"),
        ({"dim": 1, "entries": [[True, 0.0]]},
         "expected a number or decimal string, got True"),
    ],
)
def test_verify_malformed_operator_exits_two(tmp_path, capsys, operator, message):
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps({"terms": [{"weight": 1.0, "vector": [[1.0, 0.0]]}]}))
    op = tmp_path / "op.json"
    op.write_text(json.dumps(operator))
    assert main(["verify", str(dec), str(op)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# -- the sparse form ------------------------------------------------------

def canonical_nan(x: float) -> float:
    """JSON has one NaN, so a NaN reads back as ``math.nan`` whatever its
    sign and payload; the round trips below draw only that one."""
    return math.nan if math.isnan(x) else x


sparse_reals = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(canonical_nan),
)


@st.composite
def sparse_arrays(draw, size):
    """``size`` complex pairs, most of them (+0.0, +0.0)."""
    flat = [0.0] * (2 * size)
    for i in draw(st.lists(st.integers(0, 2 * size - 1), max_size=2 * size)) if size else []:
        flat[i] = draw(sparse_reals)
    return np.array(flat, dtype=np.float64).view(complex)


def same_doc(a, b) -> bool:
    """Equal documents; NaN equals NaN, which ``==`` on floats denies."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def written(obj) -> bytes:
    buf = io.StringIO()
    jsonio._write(buf.write, obj, 0)
    return buf.getvalue().encode()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(sparse_arrays))
@example(np.zeros(0, dtype=complex))
@example(np.zeros(5, dtype=complex))
@example(np.array([complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324j, complex(math.nan, 1.0),
                   complex(-math.inf, math.inf)]))
def test_sparse_vector_round_trip_bit_for_bit(vec):
    doc = _array_doc(vec, _plain)
    assert same_doc(doc, sparse(vec))
    assert not vec.any() or doc["indices"]
    assert written(_array_doc(vec, np.asarray)) == written(doc)
    for text in (written(doc), json.dumps(doc).encode()):
        assert same_bits(_complex_array_from_json(json.loads(text)), vec)
        assert same_bits(_vec_from_json(json.loads(text)), vec)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: sparse_arrays(n * n).map(lambda a: a.reshape(n, n))))
@example(np.zeros((3, 3), dtype=complex))
@example(np.zeros((0, 0), dtype=complex))
@example(np.array([[-0.0, math.nan], [5e-324j, -math.inf]], dtype=complex))
def test_sparse_operator_round_trip_bit_for_bit(op):
    doc = op_to_json(op)
    assert same_doc(doc, {"dim": op.shape[0], "entries": sparse(op)})
    assert same_bits(op_from_json(json.loads(written(doc))), op)


def test_sparse_and_dense_decomposition_read_the_same():
    decomp, _, _ = carpenter_decompose(seq_from_json(PERIODIC), stream_from_json(BLOCK4),
                                       stages=6)
    doc = json.loads(written(decomp_to_json(decomp)))
    new, old = decomp_from_json(doc), decomp_from_json(dense_decomp(decomp))
    for a, b in zip(new.terms + new.remainder, old.terms + old.remainder):
        assert a.weight == b.weight and same_bits(a.vector, b.vector)
    assert len(new.terms) == len(old.terms) and len(new.remainder) == len(old.remainder)


def test_explicit_stream_reads_sparse_vectors():
    vecs = [sparse(np.array(v, dtype=complex)) for v in ([0, 1, 0], [0.6, 0, 0.8j])]
    stream = stream_from_json({"kind": "explicit", "vectors": vecs})
    assert same_bits(stream.vector(1), np.array([0.6, 0, 0.8j]))


@pytest.mark.parametrize("command", ["verify", "bridge"])
@pytest.mark.parametrize(
    "weights, stream, stages",
    [(PERIODIC, BLOCK4, 8), (LAMBDA, BLOCK4, 6), (MU_FINITE, BASIS, 12)],
    ids=["mu-divergent-block4", "lambda-divergent-block4", "mu-finite-basis"],
)
def test_dense_files_still_read(tmp_path, capsys, command, weights, stream, stages):
    # files in the dense form, as written before the sparse one, give the
    # reports their sparse re-encodings give, apart from the input digests
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"weights": weights, "stream": stream}))
    assert main(["decompose", str(inp), "--stages", str(stages),
                 "--out", str(tmp_path / "dec.json")]) == 0
    decomp, _, _ = carpenter_decompose(seq_from_json(weights), stream_from_json(stream),
                                       stages=stages)
    target = frame_operator(list(decomp.terms) + list(decomp.remainder), dim=decomp.dim)
    with open(tmp_path / "old.json", "w") as fh:
        json.dump(dense_decomp(decomp), fh, sort_keys=True, indent=2)
    with open(tmp_path / "old.target.json", "w") as fh:
        json.dump({"dim": decomp.dim, "entries": pairs(target)}, fh, sort_keys=True, indent=2)
    capsys.readouterr()

    reports = {}
    for name in ("dec", "old"):
        argv = [command, str(tmp_path / f"{name}.json")]
        argv += [str(tmp_path / f"{name}.target.json")] if command == "verify" else []
        code = main(argv)
        rep = json.loads(capsys.readouterr().out)
        assert rep.pop("inputs")
        reports[name] = (code, rep)
    assert reports["dec"] == reports["old"]
    assert reports["dec"][0] == 0


def malformed_vector(**fields) -> dict:
    vec = {"size": 2, "indices": [0], "values": [[1.0, 0.0]]}
    return {**vec, **fields}


@pytest.mark.parametrize(
    "vector, operator, message",
    [
        (malformed_vector(indices=[2]), None, "sparse array index out of range for size 2"),
        (malformed_vector(indices=[-1]), None, "sparse array index out of range for size 2"),
        (malformed_vector(indices=[1, 0], values=[[0.6, 0.0], [0.8, 0.0]]), None,
         "sparse array indices must be strictly increasing"),
        (malformed_vector(indices=[0, 0], values=[[0.6, 0.0], [0.8, 0.0]]), None,
         "sparse array indices must be strictly increasing"),
        (malformed_vector(indices=[True]), None,
         "sparse array indices must be a list of integers"),
        (malformed_vector(indices=[0.0]), None,
         "sparse array indices must be a list of integers"),
        (malformed_vector(values=[]), None,
         "sparse array needs a list of values, one per index"),
        (malformed_vector(values=[[1.0, 0.0], [0.0, 0.0]]), None,
         "sparse array needs a list of values, one per index"),
        (malformed_vector(size=-1), None,
         "sparse array size must be a nonnegative integer, got -1"),
        (malformed_vector(size=2.0), None,
         "sparse array size must be a nonnegative integer, got 2.0"),
        (malformed_vector(size=True), None,
         "sparse array size must be a nonnegative integer, got True"),
        (malformed_vector(size="2"), None,
         "sparse array size must be a nonnegative integer, got '2'"),
        ({"indices": [0], "values": [[1.0, 0.0]]}, None,
         "sparse array JSON missing field 'size'"),
        (malformed_vector(values=[[True, 0.0]]), None,
         "expected a number or decimal string, got True"),
        (malformed_vector(), {"dim": 2, "entries": {"size": 3, "indices": [], "values": []}},
         "operator claims dim 2 but has 3 entries"),
        (malformed_vector(), {"dim": 2, "entries": {"size": 2, "indices": [0, 1],
                                                    "values": [[1.0, 0.0], [1.0, 0.0]]}},
         "operator claims dim 2 but has 2 entries"),
    ],
)
def test_verify_malformed_sparse_exits_two(tmp_path, capsys, vector, operator, message):
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps({"terms": [{"weight": 1.0, "vector": vector}]}))
    op = tmp_path / "op.json"
    op.write_text(json.dumps(operator or {"diag": [1.0, 0.0]}))
    assert main(["verify", str(dec), str(op)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(SequenceError, match=re.escape(message)):
        if operator is None:
            decomp_from_json(json.loads(dec.read_text()))
        else:
            op_from_json(operator)


def test_verify_unallocatable_sparse_size_exits_two(tmp_path, capsys, monkeypatch):
    # numpy's MemoryError is simulated: a real size that large fails at once
    # where memory is not overcommitted, and may be granted lazily where it is
    def refuse(*args, **kwargs):
        raise MemoryError
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps({"terms": [{"weight": 1.0, "vector": malformed_vector(
        size=10**13)}]}))
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"diag": [1.0]}))
    monkeypatch.setattr(np, "zeros", refuse)
    assert main(["verify", str(dec), str(op)]) == 2
    assert capsys.readouterr().err == (
        f"error: sparse array size {10**13} is too large to hold\n")


# -- the one-pass decomposition reader --------------------------------------

def read_term_by_term(obj):
    """The decomposition reader before the one-pass one: each term through
    ``_vec_from_json`` and ``make_term``, in order, then the length check."""
    def read(items):
        terms = []
        for it in items:
            if not isinstance(it, dict) or "weight" not in it or "vector" not in it:
                raise SequenceError("decomposition terms need 'weight' and 'vector'")
            terms.append(make_term(_real_from_json(it["weight"]), _vec_from_json(it["vector"])))
        return terms
    terms, rest = read(obj["terms"]), read(obj.get("remainder_terms", ()))
    dims = {len(t.vector) for t in terms + rest}
    if len(dims) > 1:
        raise DimensionError(f"mixed vector lengths in decomposition: {sorted(dims)}")
    return terms, rest


def outcome(read, obj):
    """What ``read`` makes of ``obj``: the weights and vector bytes of its
    terms and remainder terms, or the type and text of the error it raises.
    An array above 10**9 entries is refused as unallocatable."""
    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        if math.prod(shape if isinstance(shape, tuple) else (shape,)) > 10**9:
            raise MemoryError
        return real_zeros(shape, *args, **kwargs)

    try:
        with mock.patch.object(np, "zeros", zeros):
            got = read(obj)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, tuple):
        got = {"terms": got[0], "remainder": got[1]}
    else:
        got = {"terms": got.terms, "remainder": got.remainder}
    return {k: [(repr(t.weight), t.vector.dtype, t.vector.shape, t.vector.tobytes())
                for t in ts] for k, ts in got.items()}


term_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]),
                       st.floats(-1.0, 1.0, allow_subnormal=True))


@st.composite
def term_doc(draw, dim):
    """A term object whose vector is about unit norm (exactly zero when no
    part is drawn), written sparse, with the pairs whose bits are not all
    clear, or dense; real vectors carry +0.0 or -0.0 imaginary parts."""
    real = draw(st.booleans())
    parts = draw(st.lists(term_parts, min_size=2 * dim, max_size=2 * dim))
    if real:
        parts[1::2] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=dim, max_size=dim))
    if not any(parts) and draw(st.integers(0, 9)):  # a zero vector now and then
        parts[0] = 1.0
    nrm = math.sqrt(math.fsum(x * x for x in parts))
    vec = np.array([x / nrm if nrm else x for x in parts], dtype=np.float64).view(complex)
    if draw(st.booleans()):
        vector = sparse(vec)
    else:
        vector = pairs(vec)
    weight = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, -1e-12, 1, "0.25"])))
    return {"weight": weight, "vector": vector}


def as_sparse(vector) -> dict:
    if isinstance(vector, dict):
        return vector
    vec = np.array([complex(*p) for p in vector], dtype=complex)
    return sparse(vec)


def malform(doc, kind, pick):
    """``doc`` (a term object, changed in place) with the malformation
    ``kind``; ``pick`` chooses one of a list of options."""
    vec = doc["vector"] = as_sparse(doc["vector"])
    size, at, values = vec["size"], vec["indices"], vec["values"]
    if kind == "missing-field":
        del vec[pick(["size", "indices", "values"])]
    elif kind == "missing-term-field":
        del doc[pick(["weight", "vector"])]
    elif kind == "bad-size":
        vec["size"] = pick([-1, float(size), True, str(size), None])
    elif kind == "index-type":
        vec["indices"], vec["values"] = at + [pick([True, False, 1.0, "0", None])], values + [[1.0, 0.0]]
    elif kind == "unsorted":
        vec["indices"], vec["values"] = (at[::-1], values) if len(at) > 1 else (at * 2, values * 2)
    elif kind == "out-of-range":
        vec["indices"], vec["values"] = at + [pick([size, size + 3, -1])], values + [[0.0, 0.0]]
    elif kind == "count":
        vec["values"] = values[1:] if at else [[1.0, 0.0]]
    elif kind == "unallocatable":
        vec["size"] = 10**13
    elif kind == "mixed-length":
        vec["size"] = size + 1
    elif kind == "bad-value":
        vec["indices"], vec["values"] = [0], [[pick([True, None, "x"]), 0.0]]
    elif kind == "bad-weight":
        doc["weight"] = pick([-0.5, True, "x", None])
    return doc


MALFORMATIONS = ["missing-field", "missing-term-field", "bad-size", "index-type", "unsorted",
                 "out-of-range", "count", "unallocatable", "mixed-length", "bad-value",
                 "bad-weight"]


@st.composite
def decomposition_docs(draw):
    """A decomposition document, term vectors sparse and dense, with up to
    two of its terms malformed and, now and then, a negative weight on any
    term, a malformed one too."""
    dim = draw(st.integers(1, 5))
    docs = [draw(term_doc(dim)) for _ in range(draw(st.integers(0, 6)))]
    for at in draw(st.sets(st.integers(0, len(docs) - 1), max_size=2)) if docs else ():
        malform(docs[at], draw(st.sampled_from(MALFORMATIONS)),
                lambda options: draw(st.sampled_from(options)))
    if docs and draw(st.booleans()):
        docs[draw(st.integers(0, len(docs) - 1))]["weight"] = -0.5
    split = draw(st.integers(0, len(docs)))
    obj = {"terms": docs[:split]}
    if split < len(docs) or draw(st.booleans()):
        obj["remainder_terms"] = docs[split:]
    return obj


@settings(max_examples=400, deadline=None)
@given(decomposition_docs())
def test_one_pass_reader_matches_term_by_term(obj):
    assert outcome(decomp_from_json, obj) == outcome(read_term_by_term, obj)


@pytest.mark.parametrize("kind", MALFORMATIONS)
@pytest.mark.parametrize("at", [0, 3, 5])
def test_first_malformed_term_is_named(kind, at):
    # six unit vectors, dense; term ``at`` malformed, and for a second error
    # term 4 (a remainder term) has no weight
    unit = np.array([0.6, -0.0j, 0.8j])
    docs = [{"weight": 0.5, "vector": pairs(np.roll(unit, i))} for i in range(6)]
    malform(docs[at], kind, lambda options: options[0])
    if at < 4:
        del docs[4]["weight"]
    obj = {"terms": docs[:4], "remainder_terms": docs[4:]}
    got = outcome(decomp_from_json, obj)
    assert isinstance(got, tuple) and got == outcome(read_term_by_term, obj)
