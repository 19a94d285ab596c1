"""Writer for the JSON files the CLI produces.

``write_json(path, obj)`` writes the same bytes as
``json.dump(obj, fh, sort_keys=True, indent=2)`` followed by a newline.
CPython's C encoder is off whenever ``indent`` is set, so ``json.dump`` walks
dense operators entry by entry in pure Python.  Here a complex ndarray stands
for its row-major ``[[re, im], ...]`` list: the writer formats a chunk of its
float64 view at a time with ``float.__repr__`` and joins the strings with
fixed indent separators.  It builds neither the per-entry lists nor the whole
document as one string."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

import numpy as np

INDENT = "  "
CHUNK_PAIRS = 4096  # [re, im] pairs formatted per write
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_json(path: str, obj) -> None:
    """Write ``obj`` (dicts with str keys, lists, tuples, scalars and complex
    ndarrays) to ``path`` as indented JSON with sorted keys."""
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
        _write_pairs(write, obj, level)
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


def _write_pairs(write, arr: np.ndarray, level: int) -> None:
    """The complex array ``arr``, flattened row-major, as a list of pairs."""
    flat = np.ascontiguousarray(arr, dtype=complex).reshape(-1).view(np.float64)
    if not flat.size:
        write("[]")
        return
    item = "\n" + INDENT * (level + 1)
    part = "\n" + INDENT * (level + 2)
    inner = "," + part
    outer = item + "]," + item + "[" + part
    write("[" + item + "[" + part)
    step = 2 * CHUNK_PAIRS
    for start in range(0, flat.size, step):
        if start:
            write(outer)
        reprs = list(map(float.__repr__, flat[start : start + step].tolist()))
        texts = map(_NONFINITE.get, reprs, reprs)
        write(outer.join(map(inner.join, zip(texts, texts))))
    write(item + "]\n" + INDENT * level + "]")
