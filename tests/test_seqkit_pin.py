"""A bit-for-bit pin of the closed-form arithmetic in seqkit.

A seeded corpus covering all six kinds -- with nested one-minus and
interleave, heads of 0 to 300 entries (both the per-entry loops and the
array path) and the edge values 0, 1, 1/2, 1e-12 and 1 - 1e-12 -- is run
through totals, tail sums, leaf drops, iteration, the unit-interval test,
the Kadison sums at several thresholds, the split, the strip, the complement
and the JSON round trip.  Every float is written with ``float.hex`` and the
whole record hashed, so a change to any bit of any result changes the digest.
A change that only reorganizes seqkit keeps the digest; one that changes a
result re-records it and says which results moved and why.
"""

import hashlib
import random

from admseq.errors import SequenceError
from admseq.seqkit import (
    WeightSeq,
    kadison_check,
    seq_from_json,
    seq_to_json,
    split_mu_lambda,
    strip_zeros_ones,
)

EDGES = (0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12)
ALPHAS = (0.5, 0.1, 0.3, 0.9, 0.5 + 2**-53)
PIN = "bb50c98ac83eba097b597a04ca587c46eccf04df924026dc29607fe19830e0d0"


def _entry(rng):
    return rng.choice(EDGES) if rng.random() < 0.3 else rng.random()


def _head(rng):
    n = rng.choice((0, 1, 3, 17, 127, 128, 129, 200, 300))
    return [_entry(rng) for _ in range(n)]


def _leaf(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return WeightSeq.finite(_head(rng))
    if kind == 1:
        return WeightSeq.finitely_supported(_head(rng))
    if kind == 2:
        first = rng.choice((1.0, 0.5, 0.25, 1e-12, rng.random()))
        return WeightSeq.geometric(_head(rng), first, rng.choice((0.5, 0.9, 0.1, rng.random())))
    if kind == 3:
        block = [_entry(rng) for _ in range(rng.randint(1, 4))]
        return WeightSeq.periodic(_head(rng), block)
    inner = WeightSeq.geometric(_head(rng), rng.choice((1.0, 0.25, rng.random())), rng.random())
    return WeightSeq.one_minus(inner)


def _seq(rng, depth=0):
    pick = rng.randrange(6) if depth < 2 else 0
    if pick == 4:
        return WeightSeq.one_minus(_seq(rng, depth + 1))
    if pick == 5:
        return WeightSeq.interleave(*(_seq(rng, depth + 1) for _ in range(rng.randint(2, 3))))
    return _leaf(rng)


def corpus():
    rng = random.Random(20021)
    seqs = [_seq(rng) for _ in range(110)]
    # tail entries equal to a threshold: 1/2 for the split, 1 - alpha for the
    # complemented tail's Kadison sums
    seqs.append(WeightSeq.geometric([0.5], 1.0, 0.5))
    seqs.append(WeightSeq.one_minus(WeightSeq.geometric([0.5], 1.0, 0.5)))
    seqs.append(WeightSeq.one_minus(WeightSeq.geometric([], 0.9, 0.5)))
    # entries above 1, so the unit-interval test fails and the gate refuses
    seqs.append(WeightSeq.geometric([0.25] * 130 + [1.5], 0.5, 0.5))
    seqs.append(WeightSeq.periodic([0.25], [0.75, 1.25]))
    return seqs


def _canon(x, out):
    if isinstance(x, float):
        out.append(x.hex())
    elif isinstance(x, (list, tuple)):
        out.append("[")
        for v in x:
            _canon(v, out)
        out.append("]")
    elif isinstance(x, dict):
        out.append("{")
        for k in sorted(x):
            out.append(k)
            _canon(x[k], out)
        out.append("}")
    else:
        out.append(repr(x))


def _guarded(fn):
    try:
        return fn()
    except SequenceError as exc:
        return f"SequenceError: {exc}"


def _head_len(s):
    if s.kind == "one-minus":
        return _head_len(s.parts[0])
    if s.kind == "interleave":
        return sum(map(_head_len, s.parts))
    return len(s.values)


def _record(s):
    n = _head_len(s)
    starts = sorted({0, 1, 2, n // 2, n, n + 1, n + 5})
    rec = [s.kind, seq_to_json(s), s.total(), [s.tail_sum(t) for t in starts],
           s.head(n + 12), bool(s.entries_within_unit())]
    if s.kind != "interleave":
        rec.append([seq_to_json(s.drop(t)) for t in starts])
    for alpha in ALPHAS:
        rep = _guarded(lambda: kadison_check(s, alpha=alpha))
        rec.append(rep if isinstance(rep, str) else
                   [rep.a, rep.b, rep.satisfied, rep.integer_gap])
    sp = _guarded(lambda: split_mu_lambda(s))
    rec.append(sp if isinstance(sp, str) else
               [seq_to_json(sp.mu), seq_to_json(sp.lam),
                sp.zeros_count, sp.ones_count, sp.M, sp.N])
    st = _guarded(lambda: strip_zeros_ones(s))
    rec.append(st if isinstance(st, str) else [seq_to_json(st[0]), st[1], st[2]])
    om = _guarded(lambda: WeightSeq.one_minus(s))
    rec.append(om if isinstance(om, str) else
               [seq_to_json(om), om.total(), om.head(n + 12)])
    back = seq_from_json(seq_to_json(s))
    rec.append([back == s, seq_to_json(back), back.head(n + 12)])
    return rec


def test_seqkit_results_match_the_recorded_pin():
    out = []
    for s in corpus():
        _canon(_record(s), out)
    assert hashlib.sha256("\x1f".join(out).encode()).hexdigest() == PIN
