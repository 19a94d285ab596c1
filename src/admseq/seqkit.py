"""Weight sequences with exact tail arithmetic, majorization, and the Kadison test.

Sequences are nonnegative and either finite or given in closed form (geometric
tail, periodic tail, complements and interleavings of those), so totals and
tail sums are computed exactly -- finite ones in closed form, divergent ones
certified as ``inf``.  Nothing here estimates a tail by partial summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, zip_longest
from operator import countOf
from typing import Iterator

from ._np import np
from .errors import KadisonError, SequenceError

INF = math.inf

SUM_TOL = 1e-12        # absolute tolerance for equality of finite sums
INT_SNAP = 1e-9        # window for snapping a near-integer to an integer

KIND_FINITE = "finite"
KIND_FINITELY_SUPPORTED = "finitely-supported"
KIND_GEOMETRIC = "geometric-tail"
KIND_PERIODIC = "periodic-tail"
KIND_ONE_MINUS = "one-minus"
KIND_INTERLEAVE = "interleave"

_LEAF_KINDS = (KIND_FINITE, KIND_FINITELY_SUPPORTED, KIND_GEOMETRIC, KIND_PERIODIC)

# Finite lists and heads of at least _ARRAY_MIN entries are validated, judged,
# split and majorized in numpy passes; shorter ones take the per-entry loops,
# which are faster there (majorizes breaks even at 100 to 160 entries).  Both
# paths add left to right from 0.0 -- np.add.accumulate with the running total
# added into each block's first entry -- so they return the same floats bit for
# bit.  A long list of floats is converted to float64 once, by its validation:
# the leaf built from it keeps that array as ``_head``, and majorizes sorts a
# list's array in place (a sequence's ``_head``, a copy of it).  The gate
# results of a long head -- (a, b) per alpha and the split -- are kept on the
# sequence (``_gate``), so they are computed once per sequence.  Passes run
# over blocks of _BLOCK entries to keep temporaries small.  Only this path
# reads numpy, so a gate on short lists never loads it (``np`` is loaded on
# first use, see ``_np``).
_ARRAY_MIN = 128
_BLOCK = 1 << 16


def _as_value(x) -> float:
    v = float(x)
    if math.isnan(v) or math.isinf(v):
        raise SequenceError(f"sequence entries must be finite reals, got {x!r}")
    if v < 0.0:
        raise SequenceError(f"sequence entries must be nonnegative, got {x!r}")
    return 0.0 if v == 0.0 else v


def _validated(values, floats: bool = False):
    """Validated entries -- finite nonnegative floats, with -0.0 read as 0.0 --
    and their float64 array when validation built one (a long list or tuple
    of floats), else None.  ``floats`` says the caller has checked that every
    entry is a float."""
    if (isinstance(values, (list, tuple)) and len(values) >= _ARRAY_MIN
            and (floats or countOf(map(type, values), float) == len(values))):
        return _float_values(values)
    return tuple(map(_as_value, values)), None


def _float_values(values):
    """_validated for a long list of floats: one conversion, checked block by
    block.  The tuple keeps the caller's float objects."""
    x = np.fromiter(values, np.float64, len(values))
    neg_zeros = []
    for i in range(0, len(x), _BLOCK):
        block = x[i:i + _BLOCK]
        ok = (block >= 0.0) & np.isfinite(block)
        if np.count_nonzero(ok) < len(block):
            _as_value(values[i + int(ok.argmin())])  # raises the loop's error
        neg = np.signbit(block)
        if np.count_nonzero(neg):
            neg_zeros.extend((np.flatnonzero(neg) + i).tolist())
    if not neg_zeros:
        return tuple(values), x
    x[neg_zeros] = 0.0
    out = list(values)
    for i in neg_zeros:
        out[i] = 0.0
    return tuple(out), x


def _add_left_to_right(total: float, x) -> float:
    """total + x[0] + x[1] + ..., in that order; x is overwritten."""
    if not x.size:
        return total
    x[0] += total
    np.add.accumulate(x, out=x)
    return float(x[-1])


def _head_at_most(seq: WeightSeq, lim: float) -> bool:
    if len(seq.values) < _ARRAY_MIN:
        return all(v <= lim for v in seq.values)
    return np.count_nonzero(seq._head <= lim) == len(seq.values)


def _first_k_leq(first: float, ratio: float, x: float) -> int | None:
    """Smallest k >= 0 with first*ratio**k <= x, or None if no such k."""
    if first <= x:
        return 0
    if x <= 0.0:
        return None
    k = max(0, math.ceil(math.log(x / first) / math.log(ratio)))
    while first * ratio**k > x:
        k += 1
    while k > 0 and first * ratio ** (k - 1) <= x:
        k -= 1
    return k


def _first_k_lt(first: float, ratio: float, x: float) -> int | None:
    """Smallest k >= 0 with first*ratio**k < x, or None if no such k."""
    if first < x:
        return 0
    if x <= 0.0:
        return None
    k = max(0, math.ceil(math.log(x / first) / math.log(ratio)))
    while first * ratio**k >= x:
        k += 1
    while k > 0 and first * ratio ** (k - 1) < x:
        k -= 1
    return k


def _geom_sum(first: float, ratio: float, count: int | None = None) -> float:
    """Sum of first*ratio**k for k in [0, count), or the full tail if count is None."""
    if count is None:
        return first / (1.0 - ratio)
    return first * (1.0 - ratio**count) / (1.0 - ratio)


@dataclass(frozen=True)
class WeightSeq:
    """A nonnegative weight sequence, finite or in exact closed form.

    Use the classmethod constructors; they normalize degenerate forms (for
    instance a geometric tail with first term 0 collapses to the
    finitely-supported kind) so downstream arithmetic can rely on strict
    leaf invariants.
    """

    kind: str
    values: tuple[float, ...] = ()
    tail_first: float = 0.0
    tail_ratio: float = 0.0
    tail_block: tuple[float, ...] = ()
    parts: tuple["WeightSeq", ...] = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def finite(cls, values) -> "WeightSeq":
        return _leaf(KIND_FINITE, _validated(values))

    @classmethod
    def finitely_supported(cls, values) -> "WeightSeq":
        """Infinite sequence equal to ``values`` then identically zero."""
        return _leaf(KIND_FINITELY_SUPPORTED, _validated(values))

    @classmethod
    def geometric(cls, values, tail_first, tail_ratio) -> "WeightSeq":
        """Explicit head followed by the tail first, first*ratio, first*ratio^2, ..."""
        head = _validated(values)
        f = _as_value(tail_first)
        q = float(tail_ratio)
        if not 0.0 <= q < 1.0:
            raise SequenceError(f"geometric tail ratio must lie in [0, 1), got {q!r}")
        if f == 0.0:
            return _leaf(KIND_FINITELY_SUPPORTED, head)
        if q == 0.0:
            return cls.finitely_supported(head[0] + (f,))
        return _leaf(KIND_GEOMETRIC, head, tail_first=f, tail_ratio=q)

    @classmethod
    def periodic(cls, values, tail_block) -> "WeightSeq":
        """Explicit head followed by the block repeated forever."""
        head = _validated(values)
        block = _validated(tail_block)[0]
        if not block:
            raise SequenceError("periodic tail needs a nonempty block")
        if all(v == 0.0 for v in block):
            return _leaf(KIND_FINITELY_SUPPORTED, head)
        return _leaf(KIND_PERIODIC, head, tail_block=block)

    @classmethod
    def one_minus(cls, seq: "WeightSeq") -> "WeightSeq":
        """Entrywise complement 1 - s of a sequence with entries in [0, 1]."""
        if not seq.entries_within_unit():
            raise SequenceError("one-minus needs entries in [0, 1]")
        if seq.kind == KIND_FINITE:
            return cls.finite(tuple(1.0 - v for v in seq.values))
        if seq.kind == KIND_FINITELY_SUPPORTED:
            return cls.periodic(tuple(1.0 - v for v in seq.values), (1.0,))
        if seq.kind == KIND_PERIODIC:
            return cls.periodic(
                tuple(1.0 - v for v in seq.values),
                tuple(1.0 - v for v in seq.tail_block),
            )
        if seq.kind == KIND_ONE_MINUS:
            return seq.parts[0]
        if seq.kind == KIND_INTERLEAVE:
            return cls.interleave(*(cls.one_minus(p) for p in seq.parts))
        return cls(KIND_ONE_MINUS, parts=(seq,))

    @classmethod
    def interleave(cls, *parts: "WeightSeq") -> "WeightSeq":
        """Round-robin interleaving; exhausted finite parts drop out of the cycle."""
        kept = [p for p in parts if not (p.kind == KIND_FINITE and not p.values)]
        if not kept:
            return cls.finite(())
        if len(kept) == 1:
            return kept[0]
        if all(p.kind == KIND_FINITE for p in kept):
            gap = object()
            rounds = zip_longest(*(p.values for p in kept), fillvalue=gap)
            return cls.finite([v for v in chain.from_iterable(rounds) if v is not gap])
        return cls(KIND_INTERLEAVE, parts=tuple(kept))

    @cached_property
    def _head(self):
        """values as a float64 array, for the array path; never written to.

        A leaf built from a long list of floats holds the array its
        validation built (``_leaf``); heads that the split or the complement
        build convert their values here, on first use.  Read it, and
        ``_gate``, only for heads of at least _ARRAY_MIN entries: caching
        gives the instance a materialized __dict__, which slows attribute
        access on the many short sequences the planners build."""
        return np.fromiter(self.values, np.float64, len(self.values))

    @cached_property
    def _gate(self) -> dict:
        """Gate results of a long head, kept so each is computed once:
        (a, b) under each alpha the Kadison test ran at, the SplitSeq under
        ``"split"`` (see ``_gated``)."""
        return {}

    # -- basic structure ----------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == KIND_FINITE

    def length(self) -> int | None:
        """Number of entries for a finite sequence, None when infinite."""
        return len(self.values) if self.kind == KIND_FINITE else None

    def __iter__(self) -> Iterator[float]:
        if self.kind == KIND_FINITE:
            yield from self.values
        elif self.kind == KIND_FINITELY_SUPPORTED:
            yield from self.values
            while True:
                yield 0.0
        elif self.kind == KIND_GEOMETRIC:
            yield from self.values
            k = 0
            while True:
                yield self.tail_first * self.tail_ratio**k
                k += 1
        elif self.kind == KIND_PERIODIC:
            yield from self.values
            while True:
                yield from self.tail_block
        elif self.kind == KIND_ONE_MINUS:
            for v in self.parts[0]:
                yield 1.0 - v
        else:
            iters = [iter(p) for p in self.parts]
            lengths = [p.length() for p in self.parts]
            taken = [0] * len(iters)
            alive = list(range(len(iters)))
            while alive:
                nxt = []
                for i in alive:
                    yield next(iters[i])
                    taken[i] += 1
                    if lengths[i] is None or taken[i] < lengths[i]:
                        nxt.append(i)
                alive = nxt

    def head(self, n: int) -> list[float]:
        return list(islice(self, max(n, 0)))

    def head_sum(self, n: int) -> float:
        return math.fsum(self.head(n))

    def total(self) -> float:
        """Exact total: a float, or inf for a certified divergent sequence."""
        if self.kind in (KIND_FINITE, KIND_FINITELY_SUPPORTED):
            return math.fsum(self.values)
        if self.kind == KIND_GEOMETRIC:
            return math.fsum(self.values) + _geom_sum(self.tail_first, self.tail_ratio)
        if self.kind == KIND_PERIODIC:
            return INF  # nonzero block repeats forever
        if self.kind == KIND_ONE_MINUS:
            return INF  # inner entries decay to 0, so 1 - inner does not
        tot = 0.0
        for p in self.parts:
            t = p.total()
            if t == INF:
                return INF
            tot += t
        return tot

    def tail_sum(self, start: int) -> float:
        """Exact sum of the entries with 0-based index >= start."""
        if start < 0:
            raise SequenceError("tail start must be nonnegative")
        if self.kind in (KIND_FINITE, KIND_FINITELY_SUPPORTED):
            return math.fsum(self.values[start:])
        if self.kind == KIND_GEOMETRIC:
            n_head = len(self.values)
            if start <= n_head:
                return math.fsum(self.values[start:]) + _geom_sum(self.tail_first, self.tail_ratio)
            k = start - n_head
            return _geom_sum(self.tail_first * self.tail_ratio**k, self.tail_ratio)
        if self.kind == KIND_PERIODIC:
            return INF
        if self.kind == KIND_ONE_MINUS:
            return INF
        tot = self.total()
        if tot == INF:
            return INF
        return max(0.0, tot - self.head_sum(start))

    def drop(self, n: int) -> "WeightSeq":
        """The sequence with its first n entries removed."""
        if n <= 0:
            return self
        if self.kind == KIND_FINITE:
            return WeightSeq.finite(self.values[n:])
        if self.kind == KIND_FINITELY_SUPPORTED:
            return WeightSeq.finitely_supported(self.values[n:])
        if self.kind == KIND_GEOMETRIC:
            n_head = len(self.values)
            if n <= n_head:
                return WeightSeq.geometric(self.values[n:], self.tail_first, self.tail_ratio)
            k = n - n_head
            return WeightSeq.geometric((), self.tail_first * self.tail_ratio**k, self.tail_ratio)
        if self.kind == KIND_PERIODIC:
            n_head = len(self.values)
            if n <= n_head:
                return WeightSeq.periodic(self.values[n:], self.tail_block)
            off = (n - n_head) % len(self.tail_block)
            return WeightSeq.periodic((), self.tail_block[off:] + self.tail_block[:off])
        if self.kind == KIND_ONE_MINUS:
            return WeightSeq.one_minus(self.parts[0].drop(n))
        # interleave: walk n round-robin steps counting pops per part, then
        # restart the cycle on the reduced parts (a valid reordering of the rest)
        lengths = [p.length() for p in self.parts]
        taken = [0] * len(self.parts)
        alive = list(range(len(self.parts)))
        seen = 0
        while alive and seen < n:
            nxt = []
            for i in alive:
                if seen < n:
                    taken[i] += 1
                    seen += 1
                if lengths[i] is None or taken[i] < lengths[i]:
                    nxt.append(i)
            alive = nxt
        return WeightSeq.interleave(*(p.drop(t) for p, t in zip(self.parts, taken)))

    def entries_within_unit(self, tol: float = 0.0) -> bool:
        """Whether every entry is <= 1 + tol (entries are nonnegative by construction)."""
        lim = 1.0 + tol
        if self.kind in (KIND_FINITE, KIND_FINITELY_SUPPORTED):
            return _head_at_most(self, lim)
        if self.kind == KIND_GEOMETRIC:
            return _head_at_most(self, lim) and self.tail_first <= lim
        if self.kind == KIND_PERIODIC:
            return _head_at_most(self, lim) and all(v <= lim for v in self.tail_block)
        return all(p.entries_within_unit(tol) for p in self.parts)


def _leaf(kind: str, checked, **tail) -> WeightSeq:
    """A leaf on a head validated by _validated; a long head keeps its array."""
    values, head = checked
    seq = WeightSeq(kind, values=values, **tail)
    if head is not None:
        seq.__dict__["_head"] = head
    return seq


# -- serialization ----------------------------------------------------

def _real_from_json(x) -> float:
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError as exc:
            raise SequenceError(f"bad decimal string {x!r}") from exc
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise SequenceError(f"expected a number or decimal string, got {x!r}")


def _reals_from_json(xs):
    """The entries of a JSON list, validated (see _validated).  A list of
    floats is taken as it is and an all-string list converted at once; any
    other list, or a string list with a bad entry, goes entry by entry, so
    the first bad entry is the one named."""
    if isinstance(xs, list):
        types = set(map(type, xs))
        if types <= {float}:
            return _validated(xs, floats=True)
        if types == {str}:
            try:
                return _validated(list(map(float, xs)), floats=True)
            except ValueError:
                pass
    return _validated(_real_from_json(v) for v in xs)


def seq_to_json(seq: WeightSeq) -> dict:
    if seq.kind in (KIND_FINITE, KIND_FINITELY_SUPPORTED):
        return {"kind": seq.kind, "values": list(seq.values)}
    if seq.kind == KIND_GEOMETRIC:
        return {
            "kind": seq.kind,
            "values": list(seq.values),
            "tail_first": seq.tail_first,
            "tail_ratio": seq.tail_ratio,
        }
    if seq.kind == KIND_PERIODIC:
        return {"kind": seq.kind, "values": list(seq.values), "tail_block": list(seq.tail_block)}
    if seq.kind == KIND_ONE_MINUS:
        return {"kind": seq.kind, "of": seq_to_json(seq.parts[0])}
    return {"kind": seq.kind, "parts": [seq_to_json(p) for p in seq.parts]}


def seq_from_json(obj) -> WeightSeq:
    if not isinstance(obj, dict):
        raise SequenceError(f"sequence JSON must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    try:
        if kind == KIND_FINITE:
            return _leaf(KIND_FINITE, _reals_from_json(obj["values"]))
        if kind == KIND_FINITELY_SUPPORTED:
            return _leaf(KIND_FINITELY_SUPPORTED, _reals_from_json(obj["values"]))
        if kind == KIND_GEOMETRIC:
            return WeightSeq.geometric(
                tuple(_real_from_json(v) for v in obj.get("values", [])),
                _real_from_json(obj["tail_first"]),
                _real_from_json(obj["tail_ratio"]),
            )
        if kind == KIND_PERIODIC:
            return WeightSeq.periodic(
                tuple(_real_from_json(v) for v in obj.get("values", [])),
                tuple(_real_from_json(v) for v in obj["tail_block"]),
            )
        if kind == KIND_ONE_MINUS:
            return WeightSeq.one_minus(seq_from_json(obj["of"]))
        if kind == KIND_INTERLEAVE:
            return WeightSeq.interleave(*(seq_from_json(p) for p in obj["parts"]))
    except KeyError as exc:
        raise SequenceError(f"sequence JSON missing field {exc}") from exc
    raise SequenceError(f"unknown sequence kind {kind!r}")


# -- rearrangement and majorization ----------------------------------

def _finite_values(xi):
    """Validated entries of a finite sequence or list, and a float64 array of
    them that the caller may sort in place (None when validation built none)."""
    if isinstance(xi, WeightSeq):
        if not xi.is_finite:
            raise SequenceError("operation requires a finite sequence")
        return xi.values, (xi._head.copy() if len(xi.values) >= _ARRAY_MIN else None)
    return _validated(xi)


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of a majorization test.

    ``failing_index`` is the 1-based index k of the first violated partial-sum
    inequality, or None; ``sum_gap`` is sum(xi) - sum(eta).
    """

    holds: bool
    failing_index: int | None
    sum_gap: float


def majorizes(xi, eta, tol: float = SUM_TOL) -> MajorizationVerdict:
    """Does eta majorize xi?  Zero-pads to common length; totals must agree.

    Partial sums of the non-increasing rearrangements are compared with
    ``tol`` slack, and the totals must match within ``tol``.
    """
    a, xa = _finite_values(xi)
    b, xb = _finite_values(eta)
    side = "xi"
    try:
        total = math.fsum(a)
        side = "eta"
        sum_gap = total - math.fsum(b)
    except OverflowError:
        raise SequenceError(f"the entries of {side} sum beyond the float64 range") from None
    n = max(len(a), len(b))
    if n >= _ARRAY_MIN:
        return _majorizes_arrays(_sorted_desc(a, xa, n), _sorted_desc(b, xb, n), sum_gap, tol)
    a = sorted(a + (0.0,) * (n - len(a)), reverse=True)
    b = sorted(b + (0.0,) * (n - len(b)), reverse=True)
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


def _sorted_desc(values, x, n: int):
    """values zero-padded to n entries, as a float64 array sorted downwards.
    x, the values' own array or None, is sorted in place."""
    if x is None:
        x = np.fromiter(values, np.float64, len(values))
    x.sort()
    if len(x) < n:
        x = np.concatenate((np.zeros(n - len(x)), x))
    return x[::-1]


def _majorizes_arrays(sa, sb, sum_gap: float, tol: float) -> MajorizationVerdict:
    """majorizes for n >= _ARRAY_MIN entries, on the sorted arrays: the same
    partial sums, block by block."""
    ca = 0.0
    cb = 0.0
    for i in range(0, len(sa), _BLOCK):
        pa = sa[i:i + _BLOCK]
        pb = sb[i:i + _BLOCK]
        ca = _add_left_to_right(ca, pa)
        cb = _add_left_to_right(cb, pb)
        pb += tol
        k = int((pa > pb).argmax())
        if pa[k] > pb[k]:
            return MajorizationVerdict(False, i + k + 1, sum_gap)
    if abs(sum_gap) > tol:
        return MajorizationVerdict(False, None, sum_gap)
    return MajorizationVerdict(True, None, sum_gap)


# -- the Kadison integrality test ------------------------------------

@dataclass(frozen=True)
class KadisonReport:
    """Sub-threshold mass ``a``, super-threshold defect ``b``, and the verdict.

    Closed-form tails enter ``a`` and ``b`` exactly (or certified infinite);
    finite heads are added in float64, left to right.  The condition holds when a + b is infinite or a - b is an integer;
    ``integer_gap`` carries that integer when it exists.
    """

    a: float
    b: float
    alpha: float
    satisfied: bool
    integer_gap: int | None


def _require_unit_entries(seq: WeightSeq) -> None:
    if not seq.entries_within_unit():
        raise SequenceError("entries must lie in [0, 1]")


def _gated(seq: WeightSeq, key, compute):
    """compute(seq) once seq's entries are checked to lie in [0, 1].  For a
    head on the array path the result is kept in ``seq._gate`` under key, so
    asking again (classify_case after kadison_check) repeats no pass."""
    if len(seq.values) < _ARRAY_MIN:
        _require_unit_entries(seq)
        return compute(seq)
    memo = seq._gate
    if key not in memo:
        _require_unit_entries(seq)
        memo[key] = compute(seq)
    return memo[key]


def _head_ab(seq: WeightSeq, alpha: float) -> tuple[float, float]:
    """(a, b) over the head of a leaf, each summed left to right from 0.0."""
    a = 0.0
    b = 0.0
    if len(seq.values) < _ARRAY_MIN:
        for v in seq.values:
            if v <= alpha:
                a += v
            else:
                b += 1.0 - v
        return a, b
    x = seq._head
    for i in range(0, len(x), _BLOCK):
        block = x[i:i + _BLOCK]
        small = block <= alpha
        a = _add_left_to_right(a, block[small])
        b = _add_left_to_right(b, 1.0 - block[~small])
    return a, b


def _complement_head(seq: WeightSeq) -> WeightSeq:
    """A leaf whose head holds 1 - v for each head entry v of seq.

    Only heads are read from it, so an empty head is returned as seq itself.
    Head entries lie in [0, 1], so the complements need no validation."""
    if not seq.values:
        return seq
    return WeightSeq(KIND_FINITE, values=tuple([1.0 - v for v in seq.values]))


def _kadison_ab(seq: WeightSeq, alpha: float) -> tuple[float, float]:
    """(a, b) at threshold alpha: a = sum of entries <= alpha,
    b = sum of (1 - entry) over entries > alpha."""
    if seq.kind in (KIND_FINITE, KIND_FINITELY_SUPPORTED):
        return _head_ab(seq, alpha)
    if seq.kind == KIND_GEOMETRIC:
        a, b = _head_ab(seq, alpha)
        f, q = seq.tail_first, seq.tail_ratio
        k0 = _first_k_leq(f, q, alpha)
        if k0 is None:  # alpha <= 0: every tail entry exceeds it and b diverges
            return a, INF
        b += k0 - _geom_sum(f, q, k0)
        a += _geom_sum(f * q**k0, q)
        return a, b
    if seq.kind == KIND_ONE_MINUS:
        inner = seq.parts[0]  # geometric leaf; entries here are 1 - f*q^k -> 1
        a, b = _head_ab(_complement_head(inner), alpha)
        f, q = inner.tail_first, inner.tail_ratio
        k1 = _first_k_lt(f, q, 1.0 - alpha)  # beyond k1 the entries exceed alpha
        if k1 is None:  # alpha >= 1: infinitely many entries <= alpha
            return INF, b
        a += k1 - _geom_sum(f, q, k1)
        b += _geom_sum(f * q**k1, q)
        return a, b
    if seq.kind == KIND_PERIODIC:
        a, b = _head_ab(seq, alpha)
        for v in seq.tail_block:
            if v == 0.0:
                continue
            if v <= alpha:
                a = INF
            elif v < 1.0:
                b = INF
        return a, b
    a = 0.0
    b = 0.0
    for p in seq.parts:
        pa, pb = _kadison_ab(p, alpha)
        a += pa
        b += pb
    return a, b


def kadison_check(xi, alpha: float = 0.5, tol: float = INT_SNAP) -> KadisonReport:
    """Integrality test deciding membership of xi in a diagonal of projections.

    Satisfied iff a + b diverges or a - b is an integer (within ``tol``).
    The verdict does not depend on alpha in (0, 1); the integer may.
    """
    if isinstance(xi, WeightSeq):
        seq = xi
    else:
        seq = WeightSeq.finite(xi)
    if not 0.0 < alpha < 1.0:
        raise SequenceError(f"threshold must lie in (0, 1), got {alpha!r}")
    a, b = _gated(seq, ("ab", alpha), lambda s: _kadison_ab(s, alpha))
    if math.isinf(a) or math.isinf(b):
        return KadisonReport(a, b, alpha, True, None)
    gap = a - b
    near = round(gap)
    if abs(gap - near) <= tol:
        return KadisonReport(a, b, alpha, True, int(near))
    return KadisonReport(a, b, alpha, False, None)


# -- splitting into small and large parts -----------------------------

@dataclass(frozen=True)
class SplitSeq:
    """Split of a weight sequence into mu (entries in (0, 1/2], boundary
    included) and lam (1 - entry for entries in (1/2, 1)), with counts of
    exact zeros and ones.  M and N are the lengths of mu and lam (inf when
    infinite)."""

    mu: WeightSeq
    lam: WeightSeq
    zeros_count: float
    ones_count: float
    M: float
    N: float


class _SplitAcc:
    def __init__(self):
        self.mu_values: list[float] = []
        self.mu_segs: list[WeightSeq] = []
        self.lam_values: list[float] = []
        self.lam_segs: list[WeightSeq] = []
        self.zeros: float = 0
        self.ones: float = 0

    def add_value(self, v: float) -> None:
        if v == 0.0:
            self.zeros += 1
        elif v == 1.0:
            self.ones += 1
        elif v <= 0.5:
            self.mu_values.append(v)
        else:
            self.lam_values.append(1.0 - v)

    def add_head(self, seq: WeightSeq) -> None:
        """add_value for each head entry of a leaf, in order."""
        if len(seq.values) < _ARRAY_MIN:
            for v in seq.values:
                self.add_value(v)
            return
        x = seq._head
        for i in range(0, len(x), _BLOCK):
            block = x[i:i + _BLOCK]
            small = block <= 0.5
            zero = block == 0.0
            one = block == 1.0
            self.zeros += int(np.count_nonzero(zero))
            self.ones += int(np.count_nonzero(one))
            mu = (small & ~zero).tolist()
            self.mu_values.extend(compress(seq.values[i:i + len(block)], mu))
            self.lam_values.extend((1.0 - block[~(small | one)]).tolist())


def _split_into(seq: WeightSeq, acc: _SplitAcc) -> None:
    if seq.kind == KIND_FINITE:
        acc.add_head(seq)
    elif seq.kind == KIND_FINITELY_SUPPORTED:
        acc.add_head(seq)
        acc.zeros = INF
    elif seq.kind == KIND_GEOMETRIC:
        acc.add_head(seq)
        f, q = seq.tail_first, seq.tail_ratio
        k0 = _first_k_leq(f, q, 0.5)  # exists: tail decays to 0
        for k in range(k0):
            acc.add_value(f * q**k)
        acc.mu_segs.append(WeightSeq.geometric((), f * q**k0, q))
    elif seq.kind == KIND_ONE_MINUS:
        inner = seq.parts[0]
        acc.add_head(_complement_head(inner))
        f, q = inner.tail_first, inner.tail_ratio
        k1 = _first_k_lt(f, q, 0.5)  # from k1 on, 1 - f*q^k > 1/2
        for k in range(k1):
            acc.add_value(1.0 - f * q**k)
        acc.lam_segs.append(WeightSeq.geometric((), f * q**k1, q))
    elif seq.kind == KIND_PERIODIC:
        acc.add_head(seq)
        mu_block = []
        lam_block = []
        for v in seq.tail_block:
            if v == 0.0:
                acc.zeros = INF
            elif v == 1.0:
                acc.ones = INF
            elif v <= 0.5:
                mu_block.append(v)
            else:
                lam_block.append(1.0 - v)
        if mu_block:
            acc.mu_segs.append(WeightSeq.periodic((), mu_block))
        if lam_block:
            acc.lam_segs.append(WeightSeq.periodic((), lam_block))
    else:
        for p in seq.parts:
            _split_into(p, acc)


def _combine(head: list[float], segs: list[WeightSeq]) -> WeightSeq:
    if not segs:
        # head entries lie in (0, 1/2] and come from a validated sequence, so
        # validating them again would return them unchanged
        return WeightSeq(KIND_FINITE, values=tuple(head))
    if len(segs) == 1:
        s = segs[0]
        if s.kind == KIND_GEOMETRIC and not s.values:
            return WeightSeq.geometric(head, s.tail_first, s.tail_ratio)
        if s.kind == KIND_PERIODIC and not s.values:
            return WeightSeq.periodic(head, s.tail_block)
    parts = ([WeightSeq.finite(head)] if head else []) + segs
    return WeightSeq.interleave(*parts)


def split_mu_lambda(xi) -> SplitSeq:
    """Split xi into the small part mu and the complement-of-large part lam.

    Entries exactly 0 or 1 are stripped first and only counted; 1/2 lands
    in mu.  Order inside mu and lam follows the order entries appear, which
    is all downstream planners depend on.
    """
    seq = xi if isinstance(xi, WeightSeq) else WeightSeq.finite(xi)
    return _gated(seq, "split", _split)


def _split(seq: WeightSeq) -> SplitSeq:
    acc = _SplitAcc()
    _split_into(seq, acc)
    mu = _combine(acc.mu_values, acc.mu_segs)
    lam = _combine(acc.lam_values, acc.lam_segs)
    m = mu.length()
    n = lam.length()
    return SplitSeq(
        mu=mu,
        lam=lam,
        zeros_count=acc.zeros,
        ones_count=acc.ones,
        M=INF if m is None else m,
        N=INF if n is None else n,
    )


def _strip_head(seq: WeightSeq, complement: bool = False) -> tuple[list[float], int, int]:
    """Head entries v of a leaf whose value x -- v, or 1 - v with
    ``complement`` -- lies strictly inside (0, 1), in order, and the counts
    of head values x equal to 0.0 and 1.0."""
    values = seq.values
    if len(values) < _ARRAY_MIN:
        seen = [1.0 - v for v in values] if complement else values
        kept = [v for v, x in zip(values, seen) if 0.0 < x < 1.0]
        return kept, seen.count(0.0), seen.count(1.0)
    x = 1.0 - seq._head if complement else seq._head
    kept = list(compress(values, ((x > 0.0) & (x < 1.0)).tolist()))
    return kept, int(np.count_nonzero(x == 0.0)), int(np.count_nonzero(x == 1.0))


def strip_zeros_ones(xi: WeightSeq) -> tuple[WeightSeq, float, float]:
    """Remove entries exactly 0 or 1, returning (core, zero count, one count).

    The core preserves the multiset (and relative order up to closed-form
    regrouping) of the remaining entries, all strictly inside (0, 1).
    """
    seq = xi if isinstance(xi, WeightSeq) else WeightSeq.finite(xi)
    _require_unit_entries(seq)
    if seq.kind in (KIND_FINITE, KIND_FINITELY_SUPPORTED):
        kept, zeros, ones = _strip_head(seq)
        if seq.kind == KIND_FINITE:
            return WeightSeq.finite(kept), zeros, ones
        return WeightSeq.finite(kept), INF, ones
    if seq.kind == KIND_GEOMETRIC:
        kept, zeros, ones = _strip_head(seq)
        f, q = seq.tail_first, seq.tail_ratio
        if f == 1.0:  # only the leading tail entry can hit 1
            ones += 1
            f = f * q
        return WeightSeq.geometric(kept, f, q), zeros, ones
    if seq.kind == KIND_ONE_MINUS:
        # the head is read through its complements, as split_mu_lambda reads
        # it, so an inner entry v with 1 - v == 1.0 counts as a one
        inner = seq.parts[0]  # geometric leaf
        kept, zeros, ones = _strip_head(inner, complement=True)
        f, q = inner.tail_first, inner.tail_ratio
        if f == 1.0:  # only the leading tail entry can hit 1, giving 1 - 1 = 0
            zeros += 1
            f = f * q
        return WeightSeq.one_minus(WeightSeq.geometric(kept, f, q)), zeros, ones
    if seq.kind == KIND_PERIODIC:
        kept, zeros, ones = _strip_head(seq)
        block = tuple(v for v in seq.tail_block if 0.0 < v < 1.0)
        if 0.0 in seq.tail_block:
            zeros = INF
        if 1.0 in seq.tail_block:
            ones = INF
        if block:
            return WeightSeq.periodic(kept, block), zeros, ones
        return WeightSeq.finite(kept), zeros, ones
    cores = []
    zeros: float = 0
    ones: float = 0
    for p in seq.parts:
        c, z, o = strip_zeros_ones(p)
        zeros += z
        ones += o
        cores.append(c)
    return WeightSeq.interleave(*cores), zeros, ones
