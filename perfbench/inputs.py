"""Seeded inputs for the admseq benchmark, and the oracles that judge outputs.

Sequences are described by small spec trees, independent of admseq:

    ("finite", values)                ("geometric", head, first, ratio)
    ("periodic", head, block)         ("one-minus", spec)
    ("interleave", [spec, ...])

From a spec the benchmark builds the library's ``WeightSeq``, the JSON form
the CLI reads, the entries themselves (as the README defines them: a
geometric tail is first*ratio**k), and exact verdicts computed with
``fractions.Fraction`` from the generator's parameters.

Seed 0 uses the README and acceptance-suite sequences; other seeds draw the
parameters from the narrow ranges in ``RANGES``, chosen so that every seed
produces the same stage structure (dimensions and term counts) and hence the
same amount of work.  The known-defect inputs never depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

INT_SNAP = 1e-9        # README: integrality snapping window
TOTAL_TOL = 1e-12      # README: sequence totals
HALF = Fraction(1, 2)

# Parameter ranges for seeds other than 0: (seed-0 value, low, high).
# The case ranges keep the work of every seed within 0.5% of seed 0's: the
# dimension and source count per stage are fixed, and 160 mu-divergent
# stages place 599 to 602 targets (600 at seed 0).  The lambda-divergent
# block stays at 0.75: any other value changes how many entries each stage
# takes.  The mu-finite ratio stays at 0.6: for about one ratio in seven
# near 0.6 the weights-rebase defect shows, so a seeded ratio would make
# the failure count depend on the seed; MU_FINITE_REBASE shows it every run.
RANGES = {
    "mu-divergent.small": (0.4, 0.399, 0.401),
    "mu-divergent.large": (0.9, 0.899, 0.901),
    "lambda-divergent.head": (0.6, 0.58, 0.62),
    "finite-rank.weight": (None, 0.1, 0.9),         # then rescaled to total n
    "tree.first": (None, 0.05, 0.45),
    "tree.ratio": (None, 0.3, 0.7),
    "tree.block": (None, 0.05, 0.95),
}

# Known-defect inputs: fixed for every seed, never resized or re-seeded.
BOTH_SUMMABLE = ("interleave", [("geometric", (), 0.125, 0.5),
                                ("one-minus", ("geometric", (), 0.125, 0.5))])
DEFECT_LIST_VALUE = 0.1
DEFECT_LIST_SIZES = (10**5, 10**6)
MU_FINITE_REBASE = ("one-minus", ("geometric", (), 1.0 - 0.62, 0.62))


def _draw(rng: random.Random | None, key: str) -> float:
    """The seed-0 value when rng is None, else a uniform draw from the range."""
    seed0, lo, hi = RANGES[key]
    if rng is None:
        return seed0
    return lo + (hi - lo) * rng.random()


def case_specs(seed: int) -> dict:
    """The four infinite cases of the staged construction."""
    rng = None if seed == 0 else random.Random(seed)
    small = _draw(rng, "mu-divergent.small")
    large = _draw(rng, "mu-divergent.large")
    head = _draw(rng, "lambda-divergent.head")
    return {
        "mu-divergent": ("periodic", (), (small, large)),
        "mu-finite": ("one-minus", ("geometric", (), 1.0 - 0.6, 0.6)),
        "both-summable": BOTH_SUMMABLE,
        "lambda-divergent": ("periodic", (head, 0.5), (0.75,)),
    }


def _np_rng(seed: int, *keys: int) -> np.random.Generator:
    """numpy generator for (seed, keys); negative seeds map to distinct
    non-negative entropy, which numpy requires."""
    return np.random.default_rng([seed % 2**64, *keys])


def finite_rank_input(seed: int, n: int):
    """2n weights in (0, 1) summing to n, and an orthonormal n-vector basis.
    A draw whose rescaled weights leave (0, 1) is drawn again from the same
    generator, so every seed gives one valid input."""
    rng = _np_rng(seed, n)
    _, lo, hi = RANGES["finite-rank.weight"]
    while True:
        w = rng.uniform(lo, hi, 2 * n)
        w *= n / w.sum()
        vals = [float(x) for x in w]
        vals[-1] = n - math.fsum(vals[:-1])
        if all(0.0 < v < 1.0 for v in vals):
            break
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return vals, [q[:, j] for j in range(n)]


# -- finite lists -----------------------------------------------------
#
# Entries sit on a dyadic grid fine enough that every partial sum of a list
# is exact in binary64, so each list has one unambiguous verdict.  Rounding
# in the gates is exercised by the known-defect lists of 0.1, which are not
# on a grid.

def uniform_list(seed: int, n: int) -> list[float]:
    """Uniform entries on a 2^-30 grid, the last one set so the total is an
    integer (the gate is satisfied)."""
    rng = _np_rng(seed, n, 1)
    vals = (np.round(rng.uniform(0.0, 1.0, n) * 2.0**30) / 2.0**30).tolist()
    s = math.fsum(vals[:-1])
    vals[-1] = math.ceil(s) - s
    return vals


def near_half_list(seed: int, n: int) -> list[float]:
    """Pairs 1/2 + d, 1/2 - d on a 2^-34 grid, so a - b = 0 exactly."""
    rng = _np_rng(seed, n, 2)
    big = 0.5 + np.round(rng.uniform(2.0**-34, 2.0**-12, n // 2) * 2.0**34) / 2.0**34
    pairs = np.empty(n)
    pairs[0::2] = big
    pairs[1::2] = 1.0 - big
    return pairs.tolist()


def tiny_list(seed: int, n: int) -> list[float]:
    """Entries between 2^-40 and 2^-20 on a 2^-50 grid (gate not satisfied)."""
    rng = _np_rng(seed, n, 3)
    return (np.round(rng.uniform(2.0**-40, 2.0**-20, n) * 2.0**50) / 2.0**50).tolist()


def finite_lists(seed: int) -> dict:
    out = {f"uniform-{n}": uniform_list(seed, n) for n in (10**3, 10**4, 10**5, 10**6)}
    for n in (10**3, 10**4, 10**5):
        out[f"near-half-{n}"] = near_half_list(seed, n)
        out[f"tiny-{n}"] = tiny_list(seed, n)
    for n in DEFECT_LIST_SIZES:
        out[f"defect-0.1-{n}"] = [DEFECT_LIST_VALUE] * n
    return out


def majorant(values) -> list[float]:
    """The canonical majorant (1, ..., 1, r) with the same total."""
    s = math.fsum(values)
    n = int(math.floor(s))
    r = s - n
    return [1.0] * n + ([r] if r > 0.0 else [])


def oracle_kadison_finite(values):
    """(satisfied, integer gap) from fsum-summed floats, snapped at 1e-9."""
    a = math.fsum(v for v in values if v <= 0.5)
    b = math.fsum(1.0 - v for v in values if v > 0.5)  # exact for v in (1/2, 1]
    gap = a - b
    near = round(gap)
    if abs(gap - near) <= INT_SNAP:
        return True, int(near)
    return False, None


def oracle_majorizes(xi, eta) -> bool:
    """Exact test that eta majorizes xi (zero padded), with the library's
    default slack TOTAL_TOL applied to exact partial sums.

    The sorted floats are walked once to find a common dyadic denominator
    and once more with exact integer running sums, so nothing but the two
    sorted lists is stored."""
    a = sorted(xi, reverse=True)
    b = sorted(eta, reverse=True)
    den = max((v.as_integer_ratio()[1] for v in itertools.chain(a, b)), default=1)
    slack = math.floor(Fraction(TOTAL_TOL) * den)
    ca = cb = 0
    for x, y in itertools.zip_longest(a, b, fillvalue=0.0):
        p, q = x.as_integer_ratio()
        ca += p * (den // q)
        p, q = y.as_integer_ratio()
        cb += p * (den // q)
        if ca > cb + slack:
            return False
    return abs(ca - cb) <= slack


# -- closed-form trees --------------------------------------------------

def tree_specs(seed: int) -> dict:
    """Closed-form trees up to depth 3 for the gate sweep."""
    rng = random.Random(seed * 7919 + 1)

    def geo():
        return ("geometric", (), _draw(rng, "tree.first"), _draw(rng, "tree.ratio"))

    def per():
        return ("periodic", (_draw(rng, "tree.block"),),
                (_draw(rng, "tree.block"), _draw(rng, "tree.block")))

    g1 = geo()
    g2 = geo()
    g3 = geo()
    cases = case_specs(seed)
    return {
        "mu-divergent": cases["mu-divergent"],
        "mu-finite": cases["mu-finite"],
        "lambda-divergent": cases["lambda-divergent"],
        "both-summable": BOTH_SUMMABLE,
        "geometric": g1,
        "paired-depth2": ("interleave", [g2, ("one-minus", g2)]),
        "mixed-depth3": ("interleave", [("interleave", [g3, ("one-minus", g3)]),
                                        ("interleave", [per(), geo()])]),
        "finite-head-depth3": ("interleave", [("finite", (0.75, 0.25, 0.5)),
                                              ("interleave", [g1, ("one-minus", g1)])]),
    }


TAIL_INDICES = tuple(range(0, 300, 3))  # 100 indices


def build(spec, W):
    """The library's WeightSeq for a spec, built with admseq's constructors."""
    kind = spec[0]
    if kind == "finite":
        return W.finite(spec[1])
    if kind == "geometric":
        return W.geometric(spec[1], spec[2], spec[3])
    if kind == "periodic":
        return W.periodic(spec[1], spec[2])
    if kind == "one-minus":
        return W.one_minus(build(spec[1], W))
    return W.interleave(*(build(p, W) for p in spec[1]))


def to_json(spec) -> dict:
    kind = spec[0]
    if kind == "finite":
        return {"kind": "finite", "values": list(spec[1])}
    if kind == "geometric":
        return {"kind": "geometric-tail", "values": list(spec[1]),
                "tail_first": spec[2], "tail_ratio": spec[3]}
    if kind == "periodic":
        return {"kind": "periodic-tail", "values": list(spec[1]), "tail_block": list(spec[2])}
    if kind == "one-minus":
        return {"kind": "one-minus", "of": to_json(spec[1])}
    return {"kind": "interleave", "parts": [to_json(p) for p in spec[1]]}


def head_length(spec) -> int:
    """Entries given explicitly (finite values and explicit heads)."""
    kind = spec[0]
    if kind in ("finite", "geometric", "periodic"):
        return len(spec[1])
    if kind == "one-minus":
        return head_length(spec[1])
    return sum(head_length(p) for p in spec[1])


def entries(spec):
    """The entries of a spec in order, as floats (README semantics)."""
    kind = spec[0]
    if kind == "finite":
        yield from spec[1]
    elif kind == "geometric":
        yield from spec[1]
        k = 0
        while True:
            yield spec[2] * spec[3] ** k
            k += 1
    elif kind == "periodic":
        yield from spec[1]
        while True:
            yield from spec[2]
    elif kind == "one-minus":
        for v in entries(spec[1]):
            yield 1.0 - v
    else:
        its = [entries(p) for p in spec[1]]
        alive = list(range(len(its)))
        while alive:
            nxt = []
            for i in alive:
                try:
                    yield next(its[i])
                except StopIteration:
                    continue
                nxt.append(i)
            alive = nxt


def split_prefixes(spec, n_small: int, n_large: int):
    """The first entries at most 1/2 and above 1/2, each in input order.

    Deep tail entries may round to exactly 0.0 or 1.0 in binary64; they
    stay in their part, as the library's closed-form split keeps them."""
    small: list[float] = []
    large: list[float] = []
    limit = 4 * (n_small + n_large) + 1000
    for i, v in enumerate(entries(spec)):
        if (len(small) >= n_small and len(large) >= n_large) or i > limit:
            break
        (small if v <= 0.5 else large).append(v)
    return small[:n_small], large[:n_large]


def weights_match(spec, weights) -> bool:
    """Emitted weights equal the input's small and large prefixes bit for bit
    (the staged constructions keep the input order inside each part)."""
    small = [w for w in weights if w <= 0.5]
    large = [w for w in weights if w > 0.5]
    exp_small, exp_large = split_prefixes(spec, len(small), len(large))
    return small == exp_small and large == exp_large


# -- exact closed forms (Fraction) for the trees ---------------------------

class _Leaf:
    """One closed-form leaf as exact rationals: an explicit head, then a
    geometric tail (first, ratio), a periodic block, or nothing."""

    def __init__(self, head, first=None, ratio=None, block=None):
        self.head = [Fraction(v) for v in head]
        self.first = None if first is None else Fraction(first)
        self.ratio = None if ratio is None else Fraction(ratio)
        self.block = None if block is None else [Fraction(v) for v in block]
        self.complement = False  # entries are 1 - (the leaf's entries)

    def entry_count(self):
        return len(self.head) if self.first is None and self.block is None else None


def _leaves(spec, complement=False):
    kind = spec[0]
    if kind == "interleave":
        return [("group", [_leaves(p, complement) for p in spec[1]])]
    if kind == "one-minus":
        return _leaves(spec[1], not complement)
    if kind == "finite":
        leaf = _Leaf(spec[1])
    elif kind == "geometric":
        leaf = _Leaf(spec[1], first=spec[2], ratio=spec[3])
    else:
        leaf = _Leaf(spec[1], block=spec[2])
    leaf.complement = complement
    return [("leaf", leaf)]


def _flat_leaves(nodes):
    out = []

    def walk(nodes):
        for kind, item in nodes:
            if kind == "leaf":
                out.append(item)
            else:
                for sub in item:
                    walk(sub)

    walk(nodes)
    return out


def _leaf_ab(leaf: _Leaf):
    """Exact (a, b, infinitely many small, infinitely many large) of a leaf."""
    a = Fraction(0)
    b = Fraction(0)

    def add(v):
        nonlocal a, b
        if leaf.complement:
            v = 1 - v
        if v <= HALF:
            a += v
        else:
            b += 1 - v

    for v in leaf.head:
        add(v)
    if leaf.block is not None:
        vals = [1 - v if leaf.complement else v for v in leaf.block]
        inf_a = any(0 < v <= HALF for v in vals)
        inf_b = any(HALF < v < 1 for v in vals)
        return (math.inf if inf_a else a), (math.inf if inf_b else b), inf_a, inf_b
    if leaf.first is None:
        return a, b, False, False
    f, q = leaf.first, leaf.ratio
    k = 0
    # entries f q^k decrease to 0; walk until the side of 1/2 settles
    while True:
        v = f * q**k
        if (v <= HALF) if not leaf.complement else (v < HALF):
            break
        add(v)
        k += 1
    tail = f * q**k / (1 - q)
    if leaf.complement:       # entries 1 - f q^k > 1/2 from here on
        return a, b + tail, False, True
    return a + tail, b, True, False


def oracle_tree(spec):
    """Exact gate verdict and case tag for a tree, from Fraction closed forms."""
    a = Fraction(0)
    b = Fraction(0)
    inf_m = inf_n = False
    for leaf in _flat_leaves(_leaves(spec)):
        la, lb, im, in_ = _leaf_ab(leaf)
        a = math.inf if (a == math.inf or la == math.inf) else a + la
        b = math.inf if (b == math.inf or lb == math.inf) else b + lb
        inf_m |= im
        inf_n |= in_
    if a == math.inf or b == math.inf:
        satisfied, gap = True, None
    else:
        g = a - b
        near = round(g)
        satisfied = abs(g - near) <= Fraction(INT_SNAP)
        gap = int(near) if satisfied else None
    if not satisfied:
        tag = None
    elif b != math.inf and not inf_n and a != math.inf:
        tag = "finite-rank"
    elif a == math.inf:
        tag = "mu-divergent"
    elif b == math.inf:
        tag = "lambda-divergent"
    elif inf_m and inf_n:
        tag = "both-summable"
    else:
        tag = "mu-finite"
    return {"satisfied": satisfied, "gap": gap, "tag": tag}


def _leaf_tail(leaf: _Leaf, start: int):
    """Exact sum of a leaf's entries from 0-based position ``start`` on."""
    if leaf.block is not None:
        vals = [1 - v if leaf.complement else v for v in leaf.block]
        return math.inf if any(v != 0 for v in vals) else sum(
            (1 - v if leaf.complement else v) for v in leaf.head[start:])
    head = [1 - v if leaf.complement else v for v in leaf.head[start:]]
    if leaf.first is None:
        return sum(head, Fraction(0))
    if leaf.complement:
        return math.inf
    k = max(start - len(leaf.head), 0)
    return sum(head, Fraction(0)) + leaf.first * leaf.ratio**k / (1 - leaf.ratio)


def _positions(nodes, leaves, n: int) -> list[int]:
    """How many of the first n entries each leaf supplies (round robin)."""
    ids = {id(leaf): i for i, leaf in enumerate(leaves)}
    counts = [0] * len(leaves)

    def node_iter(node):
        # mirrors entries(): interleave cycles its parts, finite parts drop out
        kind, item = node[0]
        if kind == "leaf":
            cap = item.entry_count()
            k = 0
            while cap is None or k < cap:
                yield ids[id(item)]
                k += 1
            return
        its = [node_iter(sub) for sub in item]
        alive = list(range(len(its)))
        while alive:
            nxt = []
            for i in alive:
                try:
                    yield next(its[i])
                except StopIteration:
                    continue
                nxt.append(i)
            alive = nxt

    it = node_iter(nodes)
    for _ in range(n):
        try:
            counts[next(it)] += 1
        except StopIteration:
            break
    return counts


def oracle_tail_sums(spec) -> list:
    """Exact tail sums of a tree at every index of TAIL_INDICES."""
    nodes = _leaves(spec)
    leaves = _flat_leaves(nodes)
    out = []
    for n in TAIL_INDICES:
        counts = _positions(nodes, leaves, n)
        total = Fraction(0)
        for leaf, c in zip(leaves, counts):
            t = _leaf_tail(leaf, c)
            if t == math.inf:
                total = math.inf
                break
            total += t
        out.append(total)
    return out


def tail_matches(got: float, exact) -> bool:
    if exact == math.inf:
        return got == math.inf
    return abs(Fraction(got) - exact) <= Fraction(TOTAL_TOL) * max(1, exact)
