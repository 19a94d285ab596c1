"""Writer for the JSON files the CLI produces.

``write_json(path, obj)`` writes the same bytes as
``json.dump(obj, fh, sort_keys=True, indent=2)`` followed by a newline.
CPython's C encoder is off whenever ``indent`` is set, so ``json.dump`` walks
long arrays entry by entry in pure Python.  Here a complex ndarray stands for
its row-major ``[[re, im], ...]`` list, written a chunk of pairs at a time
with fixed indent separators, and an integer ndarray for its list of ints,
written with one join.  A float that is ``+0.0`` is written as the constant
``0.0``; every other float goes through ``float.__repr__``.

``write_decomposition`` writes the bytes ``json.dump`` writes for
``operators.decomp_to_json`` from the decomposition's own ``m x dim`` matrix
of term vectors: one scan finds its non-zero pairs, and each term's text is
one fixed template filled in.  Neither writer builds the per-entry lists or the
whole document as one string."""

from __future__ import annotations

import math
from bisect import bisect_right
from json.encoder import encode_basestring_ascii

from ._np import np
from .operators import _nonzero_pairs

INDENT = "  "
CHUNK_PAIRS = 4096  # [re, im] pairs formatted per write
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_json(path: str, obj) -> None:
    """Write ``obj`` (dicts with str keys, lists, tuples, scalars, and complex
    or integer ndarrays) to ``path`` as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        _write(fh.write, obj, 0)
        fh.write("\n")


def _scalar(x) -> str:
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        r = float.__repr__(x)
        return _NONFINITE.get(r, r)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _write(write, obj, level: int) -> None:
    if isinstance(obj, np.ndarray):
        _write_array(write, obj, level)
    elif isinstance(obj, dict):
        keyed = [(encode_basestring_ascii(k) + ": ", obj[k]) for k in sorted(obj)]
        _write_items(write, "{}", keyed, level)
    elif isinstance(obj, (list, tuple)):
        _write_items(write, "[]", [("", v) for v in obj], level)
    else:
        write(_scalar(obj))


def _write_items(write, brackets: str, items, level: int) -> None:
    """A container's (prefix, value) items, one per line, inside brackets."""
    if not items:
        write(brackets)
        return
    item = "\n" + INDENT * (level + 1)
    write(brackets[0])
    for i, (prefix, value) in enumerate(items):
        write(("," if i else "") + item + prefix)
        _write(write, value, level + 1)
    write("\n" + INDENT * level + brackets[1])


def _write_array(write, arr: np.ndarray, level: int) -> None:
    """The array ``arr``, flattened row-major: a list of ints for an integer
    array, a list of [re, im] pairs for a complex one."""
    if arr.dtype.kind not in "iuc":
        raise TypeError(f"Object of type ndarray[{arr.dtype}] is not JSON serializable")
    if not arr.size:
        write("[]")
        return
    item = "\n" + INDENT * (level + 1)
    if arr.dtype.kind != "c":
        write("[" + item + ("," + item).join(map(int.__repr__, arr.reshape(-1).tolist())))
        write("\n" + INDENT * level + "]")
        return
    flat = np.ascontiguousarray(arr, dtype=complex).reshape(-1)
    outer, inner = _pair_separators(level)
    write("[" + item + "[" + inner[1:])
    for start in range(0, flat.size, CHUNK_PAIRS):
        if start:
            write(outer)
        floats = iter(_float_texts(flat[start : start + CHUNK_PAIRS].view(np.float64)))
        write(outer.join(map(inner.join, zip(floats, floats))))
    write(item + "]\n" + INDENT * level + "]")


def _pair_separators(level: int) -> tuple[str, str]:
    """The text between two [re, im] pairs of a list at ``level``, and the
    text between the two parts of one pair."""
    item = "\n" + INDENT * (level + 1)
    inner = ",\n" + INDENT * (level + 2)
    return item + "]," + item + "[" + inner[1:], inner


def _float_texts(parts: np.ndarray) -> list:
    """``json`` texts of the float64 values ``parts``: ``0.0`` for each
    ``+0.0`` (all bits clear), and ``float.__repr__`` of every other value,
    with ``NaN``, ``Infinity`` and ``-Infinity`` for the non-finite ones.
    Their sum is finite unless one of them is not (or the sum overflows), so
    a list of finite floats is never looked at one by one."""
    nonzero = parts.view(np.uint64) != 0
    values = parts[nonzero].tolist()
    reprs = list(map(float.__repr__, values))
    if not math.isfinite(sum(values)):
        reprs = [_NONFINITE.get(r, r) for r in reprs]
    if len(reprs) == parts.size:
        return reprs
    texts = iter(reprs)
    return [next(texts) if nz else "0.0" for nz in nonzero.tolist()]


def write_decomposition(path: str, decomp) -> None:
    """Write the ``operators.RankOneDecomp`` ``decomp``, its remainder terms
    listed under ``remainder_terms`` only when there are any."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_decomposition(fh.write, decomp)
        fh.write("\n")


def _write_decomposition(write, decomp) -> None:
    """What ``write_decomposition`` writes, but the final newline."""
    at, values, ends = _nonzero_pairs(decomp.rows)
    weights = list(map(_scalar, decomp.row_weights))
    n_terms = decomp.n_terms
    lists = [('"remainder_terms"', n_terms, len(weights))] if len(weights) > n_terms else []
    for i, (key, lo, hi) in enumerate(lists + [('"terms"', 0, n_terms)]):
        write(("," if i else "{") + "\n" + INDENT + key + ": ")
        if lo == hi:
            write("[]")
            continue
        write("[")
        _write_terms(write, decomp.rows.shape[1], at, values, ends, weights, lo, hi)
        write("\n" + INDENT + "]")
    write("\n}")


def _write_terms(write, size: int, at, values, ends, weights, lo: int, hi: int) -> None:
    """Terms ``lo`` to ``hi`` of a decomposition's term list, a chunk at a
    time.  Term ``j``'s non-zero pairs are the run of ``values``, at the
    indices ``at``, that ends at ``ends[j]`` and starts where the run before
    it ends.  A chunk holds at most CHUNK_PAIRS pairs, each term counting as
    one more, or a single term."""
    vector = """{
      "vector": {
        "indices": %s,
        "size": %d,
        "values": %s
      },
      "weight": %s
    }"""
    term = vector % ("[\n          %s\n        ]", size,
                     "[\n          [\n            %s\n          ]\n        ]", "%s")
    zero = vector % ("[]", size, "[]", "%s")
    (outer, inner), index = _pair_separators(4), ",\n          "
    bounds = [0] + ends
    costs = [b + j for j, b in enumerate(bounds)]  # pairs plus terms before each term
    start = lo
    while start < hi:
        stop = max(bisect_right(costs, costs[start] + CHUNK_PAIRS, start, hi + 1) - 1, start + 1)
        a, b = bounds[start], bounds[stop]
        indices = list(map(int.__repr__, at[a:b].tolist()))
        floats = iter(_float_texts(values[a:b].view(np.float64)))
        pairs = list(map(inner.join, zip(floats, floats)))
        texts = []
        for j in range(start, stop):
            p, q = bounds[j] - a, bounds[j + 1] - a
            if p == q:
                texts.append(zero % weights[j])
            else:
                texts.append(term % (index.join(indices[p:q]), outer.join(pairs[p:q]), weights[j]))
        write(("," if start > lo else "") + "\n    " + ",\n    ".join(texts))
        start = stop
