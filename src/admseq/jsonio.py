"""Writer for the JSON files the CLI produces.

``write_json(path, obj)`` writes the same bytes as
``json.dump(obj, fh, sort_keys=True, indent=2)`` followed by a newline.
CPython's C encoder is off whenever ``indent`` is set, so ``json.dump`` walks
long arrays entry by entry in pure Python.  Here a complex ndarray stands for
its row-major ``[[re, im], ...]`` list, written a chunk of pairs at a time
with fixed indent separators, and an integer ndarray for its list of ints,
written with one join.  The writer builds neither the per-entry lists nor
the whole document as one string."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

from ._np import np

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
    part = "\n" + INDENT * (level + 2)
    inner = "," + part
    outer = item + "]," + item + "[" + part
    write("[" + item + "[" + part)
    for start in range(0, flat.size, CHUNK_PAIRS):
        if start:
            write(outer)
        floats = iter(_float_texts(flat[start : start + CHUNK_PAIRS].view(np.float64).tolist()))
        write(outer.join(map(inner.join, zip(floats, floats))))
    write(item + "]\n" + INDENT * level + "]")


def _float_texts(values: list) -> list:
    """``json`` texts of the floats ``values``: ``float.__repr__``, with
    ``NaN``, ``Infinity`` and ``-Infinity`` for the non-finite ones.  Their
    sum is finite unless one of them is not (or the sum overflows), so a
    list of finite floats is never looked at one by one."""
    reprs = list(map(float.__repr__, values))
    if math.isfinite(sum(values)):
        return reprs
    return [_NONFINITE.get(r, r) for r in reprs]
