"""Orthonormal vector streams consumed by the staged constructions.

A stream hands out unit vectors e_0, e_1, ... that are mutually orthonormal.
Three kinds exist: the standard basis, an explicit finite list, and the
block-overlap family, where each consecutive block of ``block`` standard
directions is replaced by its orthonormal cosine mixture, so stream vectors
spread across several coordinates while staying exactly orthonormal.
Views created by ``drop`` and ``thin`` reindex without copying."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._np import np
from .errors import DimensionError, SequenceError
from .operators import _in_range, _vec_from_json, _vec_to_json

KIND_BASIS = "orthonormal-basis"
KIND_EXPLICIT = "explicit"
KIND_BLOCK = "block-overlap"

ORTHO_TOL = 1e-9


@lru_cache(maxsize=16)
def _cosine_block(b: int) -> np.ndarray:
    """Orthonormal b x b cosine matrix; column i mixes a block of b directions.
    Cached per block size and read-only, since every caller shares it."""
    t = np.arange(b).reshape(-1, 1)
    i = np.arange(b).reshape(1, -1)
    M = np.cos(np.pi * (2 * t + 1) * i / (2 * b))
    M[:, 0] *= math.sqrt(1.0 / b)
    M[:, 1:] *= math.sqrt(2.0 / b)
    M.flags.writeable = False
    return M


@dataclass(frozen=True, eq=False)
class VectorStream:
    kind: str
    vectors: tuple = ()
    block: int = 0
    offset: int = 0
    step: int = 1

    # -- constructors --------------------------------------------------

    @classmethod
    def basis(cls) -> "VectorStream":
        return cls(KIND_BASIS)

    @classmethod
    def explicit(cls, vectors) -> "VectorStream":
        vecs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in vectors)
        if not vecs:
            raise SequenceError("explicit stream needs at least one vector")
        d = len(vecs[0])
        if any(len(v) != d for v in vecs):
            raise DimensionError("explicit stream vectors must share a dimension")
        if len(vecs) > d:
            raise DimensionError("more vectors than the dimension can hold orthonormally")
        M = np.array(vecs)
        if not np.isfinite(M).all():
            raise SequenceError("explicit stream vectors must have finite entries")
        G = _in_range(lambda: M.conj() @ M.T, "explicit stream Gram matrix", M)  # G[a, b] = <vecs[a], vecs[b]>
        if float(np.max(np.abs(G - np.eye(len(vecs))))) > ORTHO_TOL:
            raise SequenceError("explicit stream vectors are not orthonormal")
        M.flags.writeable = False  # one row per vector, shared by every view
        return cls(KIND_EXPLICIT, vectors=M)

    @classmethod
    def block_overlap(cls, block: int) -> "VectorStream":
        if not isinstance(block, int) or isinstance(block, bool) or block < 1:
            raise SequenceError(f"block size must be a positive integer, got {block!r}")
        return cls(KIND_BLOCK, block=block)

    # -- indexing ------------------------------------------------------

    def base_index(self, j):
        """Index of vector j in the unshifted stream, or of each entry of a
        nonnegative int array j."""
        if not isinstance(j, np.ndarray) and j < 0:
            raise SequenceError("stream index must be nonnegative")
        return self.offset + j * self.step

    @property
    def count(self) -> int | None:
        """Number of vectors, None when the stream is infinite."""
        if self.kind != KIND_EXPLICIT:
            return None
        n = len(self.vectors)
        if self.offset >= n:
            return 0
        return (n - 1 - self.offset) // self.step + 1

    def _supports(self, j):
        """Where stream vector j lives, or each of an int array j of them: the
        first coordinate and the entries from there on (one row of entries per
        index of an array), all of one length; every other coordinate is zero."""
        i = self.base_index(j)
        if self.kind == KIND_EXPLICIT:
            if np.max(i, initial=-1) >= len(self.vectors):
                raise SequenceError(f"explicit stream has only {len(self.vectors)} vectors")
            return 0 * i, self.vectors[i]
        b = self.block or 1  # the basis is the block-overlap family of blocks of one
        q, r = divmod(i, b)
        return q * b, _cosine_block(b).T[r]

    def min_dim(self, j: int) -> int:
        """Smallest ambient dimension holding vectors 0..j of this stream."""
        start, entries = self._supports(j)
        return start + len(entries)

    def vector(self, j: int, dim: int | None = None) -> np.ndarray:
        """Stream vector j, zero-padded into C^dim when dim is given."""
        start, entries = self._supports(j)
        need = start + len(entries)
        d = need if dim is None else int(dim)
        if d < need:
            raise DimensionError(f"stream vector {j} needs dimension >= {need}, got {d}")
        v = np.zeros(d, dtype=complex)
        v[start:need] = entries
        return v

    # -- views ---------------------------------------------------------

    def drop(self, n: int) -> "VectorStream":
        if n < 0:
            raise SequenceError("cannot drop a negative count")
        return VectorStream(self.kind, self.vectors, self.block, self.offset + n * self.step, self.step)

    def thin(self, start: int, stride: int) -> "VectorStream":
        """Arithmetic subfamily: vectors start, start+stride, ..."""
        if stride < 1:
            raise SequenceError("stride must be at least 1")
        return VectorStream(
            self.kind, self.vectors, self.block, self.offset + start * self.step, self.step * stride
        )


def stream_to_json(stream: VectorStream) -> dict:
    if stream.offset or stream.step != 1:
        raise SequenceError("only unshifted streams have a wire form")
    if stream.kind == KIND_BASIS:
        return {"kind": KIND_BASIS}
    if stream.kind == KIND_BLOCK:
        return {"kind": KIND_BLOCK, "block": stream.block}
    return {"kind": KIND_EXPLICIT, "vectors": [_vec_to_json(v) for v in stream.vectors]}


def stream_from_json(obj) -> VectorStream:
    if not isinstance(obj, dict):
        raise SequenceError(f"stream JSON must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == KIND_BASIS:
        return VectorStream.basis()
    if kind == KIND_BLOCK:
        if "block" not in obj:
            raise SequenceError("block-overlap stream needs a 'block' size")
        return VectorStream.block_overlap(obj["block"])
    if kind == KIND_EXPLICIT:
        if "vectors" not in obj:
            raise SequenceError("explicit stream needs 'vectors'")
        return VectorStream.explicit([_vec_from_json(v) for v in obj["vectors"]])
    raise SequenceError(f"unknown stream kind {kind!r}")
