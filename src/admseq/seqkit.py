"""Weight sequences with exact tail arithmetic, majorization, and the Kadison test.

Sequences are nonnegative and either finite or given in closed form (geometric
tail, periodic tail, complements and interleavings of those), so totals and
tail sums are computed exactly -- finite ones in closed form, divergent ones
certified as ``inf``.  Nothing here estimates a tail by partial summation.

Every kind but the interleaving is a leaf: a head (``values``), read in one
place per operation, then one of two tails.  Either a repeated block
(``tail_block``: a periodic tail's block, ``(0.0,)`` for a finitely-supported
sequence, none for a finite one), or a geometric run f*q^k, which a one-minus
leaf reads as 1 - f*q^k.  A one-minus leaf holds its inner head's complements
and keeps the inner sequence in ``parts`` for JSON, drop and strip.  One
iterator (``_tail``) reads either tail and one cut index (``_cut``) says where
a run crosses a threshold; the one-minus flag only complements entries and
swaps the two sides of a cut.  One per-entry classifier (``_sort_entries``)
sorts heads and blocks against 0, a threshold and 1.  Iteration and drop of an
interleaving share one round-robin walk (``_round_robin``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, count, cycle, islice, zip_longest
from operator import add, countOf
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
# first use, see ``_np``).  strip_zeros_ones runs per entry at any length:
# its callers strip short heads, or a finite core beside infinitely many ones.
_ARRAY_MIN = 128
_HALF_MAX = sys.float_info.max / 2
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
    """Smallest k >= 0 with first*ratio**k < x, for x above the least
    subnormal: no float lies strictly between x and the float below it."""
    return _first_k_leq(first, ratio, math.nextafter(x, 0.0))


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
    finitely-supported kind, whose leaf holds the block ``(0.0,)``) so
    downstream arithmetic can rely on strict leaf invariants.
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
        if seq.kind == KIND_ONE_MINUS:  # its inner entries were checked
            return seq.parts[0]
        if not seq.entries_within_unit():
            raise SequenceError("one-minus needs entries in [0, 1]")
        if seq.kind == KIND_INTERLEAVE:
            return cls.interleave(*(cls.one_minus(p) for p in seq.parts))
        head = tuple([1.0 - v for v in seq.values])
        if seq.tail_first:
            # a geometric leaf: its head entries lie in [0, 1], so the
            # complements need no validation
            return cls(KIND_ONE_MINUS, head, seq.tail_first, seq.tail_ratio, parts=(seq,))
        if seq.tail_block:  # a finitely-supported leaf's (0.0,) becomes (1.0,)
            return cls.periodic(head, tuple(1.0 - v for v in seq.tail_block))
        return cls.finite(head)

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
        if self.kind == KIND_INTERLEAVE:
            iters = [iter(p) for p in self.parts]
            for i in _round_robin(self.parts):
                yield next(iters[i])
            return
        yield from self.values
        yield from self._tail()

    def _tail(self) -> Iterator[float]:
        """A leaf's entries after its head: its block repeated (none for a
        finite leaf), or f*q^k for k = 0, 1, ..., read as 1 - f*q^k by a
        one-minus leaf."""
        f, q = self.tail_first, self.tail_ratio
        if not f:
            return cycle(self.tail_block)
        run = (f * q**k for k in count())
        return (1.0 - v for v in run) if self.kind == KIND_ONE_MINUS else run

    def _cut(self, x: float) -> int:
        """The index k where a leaf's geometric run crosses x in (0, 1): the
        run's entries f*q^j lie above x for j < k and at or below it from k
        on.  A one-minus leaf's k is the first with f*q^k < 1 - x, so its
        entries 1 - f*q^j lie at or below x for j < k and above it from k on."""
        f, q = self.tail_first, self.tail_ratio
        if self.kind == KIND_ONE_MINUS:
            return _first_k_lt(f, q, 1.0 - x)
        return _first_k_leq(f, q, x)

    def head(self, n: int) -> list[float]:
        return list(islice(self, max(n, 0)))

    def head_sum(self, n: int) -> float:
        return math.fsum(self.head(n))

    def total(self) -> float:
        """Exact total: a float, or inf for a certified divergent sequence."""
        if self.kind != KIND_INTERLEAVE:
            return self._sum_from(0)
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
        if self.kind != KIND_INTERLEAVE:
            return self._sum_from(start)
        tot = self.total()
        if tot == INF:
            return INF
        return max(0.0, tot - self.head_sum(start))

    def _sum_from(self, start: int) -> float:
        """tail_sum(start) of a leaf: its head from start on, then its tail."""
        if self.kind == KIND_ONE_MINUS or any(self.tail_block):
            return INF  # the tail's entries do not decay to 0
        k = start - len(self.values)  # tail entries before start, when positive
        # a leaf with no run has tail_first = tail_ratio = 0.0, so a tail of 0.0
        f = self.tail_first * self.tail_ratio**k if k > 0 else self.tail_first
        tail = _geom_sum(f, self.tail_ratio)
        if k >= 0:  # no head entries from start on
            return tail
        return math.fsum(self.values[start:]) + tail

    def drop(self, n: int) -> "WeightSeq":
        """The sequence with its first n entries removed."""
        if n <= 0:
            return self
        if self.kind == KIND_INTERLEAVE:
            # walk n round-robin steps counting pops per part; the rest goes
            # on with the cycle from the part the next entry comes from
            walk = _round_robin(self.parts)
            taken = [0] * len(self.parts)
            for i in islice(walk, n):
                taken[i] += 1
            nxt = next(walk, 0)
            rest = [p.drop(t) for p, t in zip(self.parts, taken)]
            return WeightSeq.interleave(*rest[nxt:], *rest[:nxt])
        if self.kind == KIND_ONE_MINUS:
            return WeightSeq.one_minus(self.parts[0].drop(n))
        head = self.values[n:]
        k = max(n - len(self.values), 0)  # tail entries dropped
        block = self.tail_block
        if self.tail_first:
            return WeightSeq.geometric(head, self.tail_first * self.tail_ratio**k, self.tail_ratio)
        if not block:
            return WeightSeq.finite(head)
        off = k % len(block)
        return WeightSeq.periodic(head, block[off:] + block[:off])

    def entries_within_unit(self) -> bool:
        """Whether every entry is <= 1 (entries are nonnegative by construction)."""
        if self.kind == KIND_INTERLEAVE:
            return all(p.entries_within_unit() for p in self.parts)
        if len(self.values) < _ARRAY_MIN:
            if not all(v <= 1.0 for v in self.values):
                return False
        elif np.count_nonzero(self._head <= 1.0) < len(self.values):
            return False
        # a geometric run's first entry is its largest; a one-minus leaf's run
        # passed this test before it was complemented
        return self.tail_first <= 1.0 and all(v <= 1.0 for v in self.tail_block)


def _round_robin(parts) -> Iterator[int]:
    """The index of the part each entry of an interleaving is read from, in
    order: a round takes one entry from each live part, and a finite part
    leaves the cycle after its last entry."""
    alive = list(range(len(parts)))
    left = {i: p.length() for i, p in enumerate(parts) if p.is_finite}  # entries to read
    while left:
        rounds = min(left.values())  # full rounds before a finite part runs out
        for _ in range(rounds):
            yield from alive
        left = {i: m - rounds for i, m in left.items() if m > rounds}
        alive = [i for i in alive if i in left or not parts[i].is_finite]
    yield from cycle(alive)


def _leaf(kind: str, checked, **tail) -> WeightSeq:
    """A leaf on a head validated by _validated; a long head keeps its array.
    A finitely-supported leaf's tail is the block (0.0,)."""
    values, head = checked
    if kind == KIND_FINITELY_SUPPORTED:
        tail["tail_block"] = (0.0,)
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
    if seq.kind == KIND_ONE_MINUS:
        return {"kind": seq.kind, "of": seq_to_json(seq.parts[0])}
    if seq.kind == KIND_INTERLEAVE:
        return {"kind": seq.kind, "parts": [seq_to_json(p) for p in seq.parts]}
    obj = {"kind": seq.kind, "values": list(seq.values)}
    if seq.kind == KIND_GEOMETRIC:
        obj["tail_first"] = seq.tail_first
        obj["tail_ratio"] = seq.tail_ratio
    elif seq.kind == KIND_PERIODIC:
        obj["tail_block"] = list(seq.tail_block)
    return obj


def seq_from_json(obj) -> WeightSeq:
    if not isinstance(obj, dict):
        raise SequenceError(f"sequence JSON must be an object, got {type(obj).__name__}")
    for field in ("values", "tail_block", "parts"):  # each is iterated, so only a list will do
        if not isinstance(obj.get(field, []), list):
            raise SequenceError(
                f"sequence JSON field {field!r} must be a list, got {type(obj[field]).__name__}")
    kind = obj.get("kind")
    try:
        if kind in (KIND_FINITE, KIND_FINITELY_SUPPORTED):
            return _leaf(kind, _reals_from_json(obj["values"]))
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


def _majorizes_many(xs, es, tol: float = SUM_TOL) -> list[MajorizationVerdict]:
    """majorizes(x, e, tol) for each x in xs and e in es, lists of floats, in one
    padded pass: every side sorted downwards and zero-padded to the longest,
    and the partial sums of all by one cumsum, which adds left to right as
    majorizes does; the totals are majorizes' own fsums.  A pair with a side of
    _ARRAY_MIN entries or more, or an entry that is negative, not finite or
    beyond _HALF_MAX / (n + 1) for the longest side's n, is majorizes' own, so
    the first such pair that majorizes refuses raises."""
    sides, P = [*xs, *es], len(xs)
    lens = [k if k < _ARRAY_MIN else 0 for k in map(len, sides)]
    n = max(lens, default=0)
    padded = np.zeros((2 * P, n + 1))  # at least one zero per side, and a column to stop at
    padded[np.arange(n + 1) < np.array(lens)[:, None]] = np.fromiter(
        chain.from_iterable(compress(sides, lens)), np.float64, sum(lens))
    padded.sort(axis=1)
    # a NaN sorts last; sides of entries up to _HALF_MAX / (n + 1) sum, in
    # any order, within half the float64 range, so neither cumsum nor fsum
    # overflows on them, and the other sides are left out of the sums
    valid = (padded[:, 0] >= 0.0) & (padded[:, -1] <= _HALF_MAX / (n + 1))
    padded[~valid] = 0.0
    partial = padded[:, ::-1].cumsum(axis=1)
    crossed = partial[:P] > partial[P:] + tol
    crossed[:, -1] = True  # the first crossing at column n is none
    out = []
    for x, e, lx, le, ok, fail in zip(xs, es, lens, lens[P:], (valid[:P] & valid[P:]).tolist(),
                                      crossed.argmax(axis=1).tolist()):
        if ok and lx == len(x) and le == len(e):
            gap = math.fsum(x) - math.fsum(e)
            out.append(MajorizationVerdict(fail == n and abs(gap) <= tol, fail + 1 if fail < n else None, gap))
        else:
            out.append(majorizes(x, e, tol))
    return out


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


def _sort_entries(values, x: float, small: list, large: list) -> tuple[int, int]:
    """Append the entries in (0, x] to small and the complements 1 - v of the
    entries in (x, 1) to large, in order; return the counts of 0.0 and 1.0."""
    zeros = ones = 0
    for v in values:
        if v == 0.0:
            zeros += 1
        elif v == 1.0:
            ones += 1
        elif v <= x:
            small.append(v)
        else:
            large.append(1.0 - v)
    return zeros, ones


def _head_ab(seq: WeightSeq, alpha: float) -> tuple[float, float]:
    """(a, b) over the head of a leaf, each summed left to right from 0.0.
    Zeros and ones add 0.0 to a and to b, so the short path leaves them out."""
    if len(seq.values) < _ARRAY_MIN:
        small, large = [], []
        _sort_entries(seq.values, alpha, small, large)
        return reduce(add, small, 0.0), reduce(add, large, 0.0)
    a = 0.0
    b = 0.0
    x = seq._head
    for i in range(0, len(x), _BLOCK):
        block = x[i:i + _BLOCK]
        small = block <= alpha
        a = _add_left_to_right(a, block[small])
        b = _add_left_to_right(b, 1.0 - block[~small])
    return a, b


def _kadison_ab(seq: WeightSeq, alpha: float) -> tuple[float, float]:
    """(a, b) at threshold alpha in (0, 1): a = sum of entries <= alpha,
    b = sum of (1 - entry) over entries > alpha."""
    if seq.kind == KIND_INTERLEAVE:
        a = 0.0
        b = 0.0
        for p in seq.parts:
            pa, pb = _kadison_ab(p, alpha)
            a += pa
            b += pb
        return a, b
    a, b = _head_ab(seq, alpha)
    f, q = seq.tail_first, seq.tail_ratio
    if not f:  # each block entry repeats forever
        small, large = [], []
        _sort_entries(seq.tail_block, alpha, small, large)
        return (INF if small else a), (INF if large else b)
    k = seq._cut(alpha)
    before = k - _geom_sum(f, q, k)  # the sum of 1 - f*q^j over j < k
    after = _geom_sum(f * q**k, q)  # the sum of f*q^j over j >= k
    if seq.kind == KIND_ONE_MINUS:  # tail entries 1 - f*q^k -> 1: beyond k they exceed alpha
        return a + before, b + after
    return a + after, b + before


def kadison_check(xi, alpha: float = 0.5) -> KadisonReport:
    """Integrality test deciding membership of xi in a diagonal of projections.

    Satisfied iff a + b diverges or a - b is an integer (within ``INT_SNAP``).
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
    if abs(gap - near) <= INT_SNAP:
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

    @cached_property
    def totals(self) -> tuple[float, float]:
        """(mu.total(), lam.total()), summed once per split -- so once per
        sequence where the split is kept (see ``_gated``)."""
        return self.mu.total(), self.lam.total()


def _split_head(seq: WeightSeq, mu: list, lam: list) -> tuple[int, int]:
    """_sort_entries at 1/2 over the head of a leaf; a long head is sorted
    block by block, and mu keeps the head's own float objects."""
    if len(seq.values) < _ARRAY_MIN:
        return _sort_entries(seq.values, 0.5, mu, lam)
    zeros = ones = 0
    x = seq._head
    for i in range(0, len(x), _BLOCK):
        block = x[i:i + _BLOCK]
        small = block <= 0.5
        zero = block == 0.0
        one = block == 1.0
        zeros += int(np.count_nonzero(zero))
        ones += int(np.count_nonzero(one))
        inside = (small & ~zero).tolist()
        mu.extend(compress(seq.values[i:i + len(block)], inside))
        lam.extend((1.0 - block[~(small | one)]).tolist())
    return zeros, ones


def _split_into(seq: WeightSeq, mu: list, lam: list, tails: tuple) -> tuple[float, float]:
    """Append seq's entries in (0, 1/2] to mu and the complements of its
    entries in (1/2, 1) to lam, in order, and the closed-form tails past them
    to tails = (mu's, lam's); return seq's counts of 0.0 and 1.0."""
    if seq.kind == KIND_INTERLEAVE:
        zeros = ones = 0
        for p in seq.parts:
            z, o = _split_into(p, mu, lam, tails)
            zeros += z
            ones += o
        return zeros, ones
    zeros, ones = _split_head(seq, mu, lam)
    f, q = seq.tail_first, seq.tail_ratio
    if not f:  # each block entry repeats forever
        small, large = [], []
        z, o = _sort_entries(seq.tail_block, 0.5, small, large)
        for side, block in zip(tails, (small, large)):
            if block:
                side.append(WeightSeq.periodic((), block))
        return (INF if z else zeros), (INF if o else ones)
    # the cut exists: the run decays to 0, so its complement rises to 1; from
    # the cut on, 1 - f*q^k > 1/2 through a complement, f*q^k <= 1/2 otherwise
    k = seq._cut(0.5)
    z, o = _sort_entries(islice(seq._tail(), k), 0.5, mu, lam)
    tails[seq.kind == KIND_ONE_MINUS].append(WeightSeq.geometric((), f * q**k, q))
    return zeros + z, ones + o


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
    mu, lam, tails = [], [], ([], [])
    zeros, ones = _split_into(seq, mu, lam, tails)
    mu = _combine(mu, tails[0])
    lam = _combine(lam, tails[1])
    m = mu.length()
    n = lam.length()
    return SplitSeq(
        mu=mu,
        lam=lam,
        zeros_count=zeros,
        ones_count=ones,
        M=INF if m is None else m,
        N=INF if n is None else n,
    )


def strip_zeros_ones(xi: WeightSeq) -> tuple[WeightSeq, float, float]:
    """Remove entries exactly 0 or 1, returning (core, zero count, one count).

    The core preserves the multiset (and relative order up to closed-form
    regrouping) of the remaining entries, all strictly inside (0, 1).
    """
    seq = xi if isinstance(xi, WeightSeq) else WeightSeq.finite(xi)
    _require_unit_entries(seq)
    if seq.kind == KIND_INTERLEAVE:
        cores = []
        zeros: float = 0
        ones: float = 0
        for p in seq.parts:
            c, z, o = strip_zeros_ones(p)
            zeros += z
            ones += o
            cores.append(c)
        return WeightSeq.interleave(*cores), zeros, ones
    # a one-minus leaf is read through its complements, as split_mu_lambda
    # reads it, and keeps the inner entries of the ones it keeps
    one_minus = seq.kind == KIND_ONE_MINUS
    source = seq.parts[0] if one_minus else seq
    kept = list(compress(source.values, [0.0 < v < 1.0 for v in seq.values]))
    zeros, ones = seq.values.count(0.0), seq.values.count(1.0)
    f, q = seq.tail_first, seq.tail_ratio
    if f:
        # only the leading tail entry can hit 1, or 1 - 1 = 0 through a complement
        if f == 1.0:
            f = f * q
            zeros, ones = (zeros + 1, ones) if one_minus else (zeros, ones + 1)
        core = WeightSeq.geometric(kept, f, q)
        return (WeightSeq.one_minus(core) if one_minus else core), zeros, ones
    block = tuple(v for v in seq.tail_block if 0.0 < v < 1.0)
    zeros = INF if 0.0 in seq.tail_block else zeros
    ones = INF if 1.0 in seq.tail_block else ones
    return (WeightSeq.periodic(kept, block) if block else WeightSeq.finite(kept)), zeros, ones
