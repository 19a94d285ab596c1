"""Writer for the JSON files the CLI produces.

``write_json(path, obj)`` writes the same bytes as
``json.dump(obj, fh, sort_keys=True, indent=2)`` followed by a newline.
CPython's C encoder is off whenever ``indent`` is set, so ``json.dump`` walks
dense operators entry by entry in pure Python.  Here a complex ndarray stands
for its row-major ``[[re, im], ...]`` list, written a chunk of pairs at a
time with fixed indent separators.  The arrays the CLI writes are mostly
zero, so a pair whose two float64 values have all bits clear is written as
one shared text, a run of them at once; only the other pairs go through
``float.__repr__``.  The writer builds neither the per-entry lists nor the
whole document as one string."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from ._np import np

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
    flat = np.ascontiguousarray(arr, dtype=complex).reshape(-1)
    if not flat.size:
        write("[]")
        return
    item = "\n" + INDENT * (level + 1)
    part = "\n" + INDENT * (level + 2)
    inner = "," + part
    outer = item + "]," + item + "[" + part
    write("[" + item + "[" + part)
    for start in range(0, flat.size, CHUNK_PAIRS):
        if start:
            write(outer)
        chunk = flat[start : start + CHUNK_PAIRS]
        write(outer.join(_pair_texts(chunk, inner, outer)))
    write(item + "]\n" + INDENT * level + "]")


def _pair_texts(chunk: np.ndarray, inner: str, outer: str) -> list:
    """Texts that, joined by ``outer``, spell the complex array ``chunk`` as
    pairs: one per non-zero pair, and one per run of zero pairs, the shared
    zero text repeated.  A zero pair has both float64 values with all bits
    clear, so ``-0.0`` goes through ``float.__repr__`` like any other value."""
    zero = "0.0" + inner + "0.0"
    bits = chunk.view(np.uint64)
    nonzero = np.logical_or(bits[0::2], bits[1::2])
    values = chunk[nonzero].view(np.float64)
    reprs = list(map(float.__repr__, values.tolist()))
    for i in (~np.isfinite(values)).nonzero()[0].tolist():
        reprs[i] = _NONFINITE[reprs[i]]
    floats = iter(reprs)
    pairs = list(map(inner.join, zip(floats, floats)))
    # runs of non-zero and of zero pairs alternate; a run starts at each edge
    edges = ((nonzero[1:] != nonzero[:-1]).nonzero()[0] + 1).tolist()
    texts, done, in_nonzero = [], 0, bool(nonzero[0])
    for lo, hi in zip([0] + edges, edges + [nonzero.size]):
        if in_nonzero:
            texts += pairs[done : done + hi - lo]
            done += hi - lo
        else:
            texts.append(outer.join([zero] * (hi - lo)))
        in_nonzero = not in_nonzero
    return texts
