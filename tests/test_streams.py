import numpy as np
import pytest

from admseq.errors import DimensionError, SequenceError
from admseq.streams import VectorStream, _cosine_block, stream_from_json, stream_to_json


def gram(vectors):
    return np.array([[np.vdot(a, b) for b in vectors] for a in vectors])


def test_basis_stream_vectors():
    s = VectorStream.basis()
    assert np.allclose(s.vector(2, dim=4), [0, 0, 1, 0])
    assert s.min_dim(2) == 3
    assert s.count is None


def test_basis_stream_rejects_short_dim():
    with pytest.raises(DimensionError):
        VectorStream.basis().vector(3, dim=2)


def test_block_overlap_is_orthonormal_and_spreads():
    s = VectorStream.block_overlap(3)
    vs = [s.vector(j, dim=9) for j in range(9)]
    assert np.allclose(gram(vs), np.eye(9), atol=1e-12)
    # vectors within one block genuinely mix coordinates
    assert np.count_nonzero(np.abs(vs[0]) > 1e-12) == 3
    assert np.count_nonzero(np.abs(vs[2]) > 1e-12) == 3


def test_block_overlap_cosines_cached_read_only():
    m = _cosine_block(5)
    assert _cosine_block(5) is m
    assert not m.flags.writeable
    assert m.tobytes() == _cosine_block.__wrapped__(5).tobytes()
    s = VectorStream.block_overlap(5)
    v = s.vector(7, dim=12)
    assert v.flags.writeable
    expected = np.zeros(12, dtype=complex)
    expected[5:10] = _cosine_block.__wrapped__(5)[:, 2]
    assert v.tobytes() == expected.tobytes()


def test_block_overlap_completeness_per_block():
    s = VectorStream.block_overlap(4)
    P = sum(np.outer(s.vector(j, dim=4), s.vector(j, dim=4).conj()) for j in range(4))
    assert np.allclose(P, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("block", [2.5, 2.0, True, "3", None, 0, -1])
def test_block_overlap_refuses_non_integer_block(block):
    # int() would read 2.5 as 2, True as 1 and "3" as 3
    with pytest.raises(SequenceError, match="block size must be a positive integer"):
        VectorStream.block_overlap(block)
    with pytest.raises(SequenceError, match="block size must be a positive integer"):
        stream_from_json({"kind": "block-overlap", "block": block})


def test_explicit_stream_orthonormality_enforced():
    with pytest.raises(SequenceError):
        VectorStream.explicit([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DimensionError):
        VectorStream.explicit([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


def test_explicit_stream_exhaustion():
    s = VectorStream.explicit([[1.0, 0.0], [0.0, 1.0]])
    assert s.count == 2
    with pytest.raises(SequenceError):
        s.vector(2)


def test_drop_and_thin_views():
    s = VectorStream.basis()
    assert np.allclose(s.drop(2).vector(0, dim=3), [0, 0, 1])
    evens = s.thin(0, 2)
    odds = s.thin(1, 2)
    assert np.allclose(evens.vector(1, dim=4), [0, 0, 1, 0])
    assert np.allclose(odds.vector(1, dim=4), [0, 0, 0, 1])
    assert evens.min_dim(1) == 3


def test_thin_of_explicit_counts():
    s = VectorStream.explicit(np.eye(5))
    assert s.thin(1, 2).count == 2
    assert s.drop(4).count == 1
    assert s.drop(5).count == 0


def test_json_round_trip():
    streams = [
        VectorStream.basis(),
        VectorStream.block_overlap(2),
        VectorStream.explicit([[1.0, 0.0], [0.0, 1.0]]),
    ]
    for s in streams:
        back = stream_from_json(stream_to_json(s))
        assert back.kind == s.kind
        assert back.block == s.block
        assert len(back.vectors) == len(s.vectors)


def test_json_rejects_views_and_unknown_kinds():
    with pytest.raises(SequenceError):
        stream_to_json(VectorStream.basis().drop(1))
    with pytest.raises(SequenceError):
        stream_from_json({"kind": "random"})
