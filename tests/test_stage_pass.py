"""The run-level block-stage pass against the per-stage oracle it replaced.

``horn._block_stages`` certifies and embeds every block stage of a run
at once: stages of one shape are stacked, their identities formed by one
stacked product and their term rows by another.  ``block_stage`` below is the
per-stage code it replaced, kept here as the oracle.  Stacking keeps every
bit only while each stacked item is one gemm of its own, as the 2-D product
is, so these tests also run under other BLAS kernels in CI.
"""

from __future__ import annotations

import numpy as np
import pytest

from admseq import carpenter, horn
from admseq.carpenter import carpenter_decompose
from admseq.seqkit import WeightSeq
from admseq.streams import VectorStream
from test_stage_driver import finite_rank_input

STREAMS = {
    "basis": VectorStream.basis,
    "block3": lambda: VectorStream.block_overlap(3),
    "block4": lambda: VectorStream.block_overlap(4),
}
GEO8 = WeightSeq.geometric([], 0.125, 0.5)
INPUTS = {
    "mu-divergent": WeightSeq.periodic([], (0.3992687284882248, 0.9006948674738745)),
    "lambda-divergent": WeightSeq.periodic((0.6, 0.5), (0.75,)),
    "mu-finite": WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6)),
    "both-summable": WeightSeq.interleave(GEO8, WeightSeq.one_minus(GEO8)),
    "ones-after-finite-core": WeightSeq.periodic([0.3, 0.7, 0.25, 0.75, 0.6, 0.4], (1.0,)),
}


def block_stage(x, supports, consumed, C, out) -> float:
    """One block stage as the stage driver certified and embedded it stage by
    stage: C^T diag(x) C = diag(consumed) checked for the m x k coefficient
    matrix C of its k stream vectors, given by their (start, entries)
    ``supports``, and the rows of C E, E those vectors over the columns they
    cover, written into ``out``, m x dim and zero.  Returns the residual's
    Frobenius norm."""
    R = (C.T * np.array(x)) @ C - np.diag(consumed)
    horn._check_residuals([float(np.max(np.abs(R)))], [len(consumed)])
    residual = float(np.linalg.norm(R))
    lo, hi = min(s for s, _ in supports), max(s + len(e) for s, e in supports)
    E = np.zeros((len(supports), hi - lo), dtype=complex)
    for row, (start, entries) in zip(E, supports):
        row[start - lo : start - lo + len(entries)] = entries
    np.matmul(C, E.view(np.float64), out=out.view(np.float64)[:, 2 * lo : 2 * hi])  # both parts
    return residual


def per_stage(x, shares, store, terms, ms, ks, starts, entries):
    """The pass's run arrays split by stage: each stage's term weights, the
    shares of its stream vectors and its m x k coefficient matrix C, then the
    run's supports as they are."""
    xs, consumed, Cs, at, first = [], [], [], 0, 0
    for m, k in zip(ms, ks):
        xs.append(x[at : at + m].tolist())
        consumed.append(shares[first : first + k].tolist())
        Cs.append(store[terms[at : at + m], :k].copy())
        at, first = at + m, first + k
    return xs, consumed, Cs, starts, entries


def recorded_pass(monkeypatch):
    """Patch the pass, as the stage driver and the finite-rank stage reach
    it, to record, per call, its inputs split by stage, the rows it wrote and
    the residuals it returned."""
    calls = []
    real = horn._block_stages

    def recording(*args):
        norms = real(*args)
        calls.append((*per_stage(*args[:-1]), args[-1].copy(), norms))
        return norms

    for mod in (carpenter, horn):
        monkeypatch.setattr(mod, "_block_stages", recording)
    return calls


def stage_supports(consumed, starts, entries):
    """Each stage's (start, entries) per stream vector, from the run's arrays."""
    at, out = 0, []
    for share in consumed:
        out.append(list(zip(starts[at : at + len(share)].tolist(), entries[at : at + len(share)])))
        at += len(share)
    return out


def shape(x, supports) -> tuple[int, int, int]:
    """(m, k, w) of a stage: terms, stream vectors, columns they cover."""
    return len(x), len(supports), supports[-1][0] + len(supports[-1][1]) - supports[0][0]


def assert_matches_oracle(call):
    xs, consumed, Cs, starts, entries, out, norms = call
    want, at = np.zeros_like(out), 0
    for x, supports, share, C, norm in zip(xs, stage_supports(consumed, starts, entries), consumed, Cs, norms):
        residual = block_stage(x, supports, share, C, want[at : at + len(x)])
        at += len(x)
        assert float(norm).hex() == residual.hex()
    assert out.tobytes() == want.tobytes()  # the sign of every zero too


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("stream_name", sorted(STREAMS))
def test_pass_is_the_per_stage_oracle(monkeypatch, name, stream_name):
    calls = recorded_pass(monkeypatch)
    carpenter_decompose(INPUTS[name], STREAMS[stream_name](), stages=12)
    (call,) = calls
    assert_matches_oracle(call)


@pytest.mark.parametrize("seed, n", [(0, 25), (1, 60)])
def test_pass_is_the_oracle_on_explicit_streams(monkeypatch, seed, n):
    calls = recorded_pass(monkeypatch)
    carpenter_decompose(*finite_rank_input(seed, n))
    (call,) = calls
    assert len(call[0]) == 1  # the finite-rank stage
    assert_matches_oracle(call)


def test_pass_is_the_oracle_across_stage_shapes(monkeypatch):
    calls = recorded_pass(monkeypatch)
    stream = STREAMS["block4"]()
    carpenter_decompose(INPUTS["mu-divergent"], stream, stages=40)
    (call,) = calls
    xs, consumed, _, starts, entries = call[:5]
    assert len({shape(x, sup) for x, sup in zip(xs, stage_supports(consumed, starts, entries))}) >= 3
    assert_matches_oracle(call)


def test_earliest_corrupted_stage_is_refused(monkeypatch):
    # stages 2 and 5, of different shapes, each get one coefficient row turned
    # a little off after every mix passed its checks, stage 5's further: the
    # refusal is stage 2's, with the text the oracle gives for it
    stream, xi, real_rows, real_pass = STREAMS["block4"](), INPUTS["mu-divergent"], carpenter._place_rows, \
        carpenter._block_stages

    def corrupt(ks, counts, mixes, tails=()):
        store, coefs = real_rows(ks, counts, mixes, tails)
        for i, eps in ((2, 1e-6), (5, 1e-4)):  # the row of the stage's first mix target
            r, k = sum(ks) + 2 * sum(counts[:i]), ks[i]
            assert counts[i] > 0
            v = store[r, :k] + eps * np.roll(store[r, :k], 1)
            store[r, :k] = v / np.linalg.norm(v)
        return store, coefs

    inputs = []
    monkeypatch.setattr(carpenter, "_place_rows", corrupt)
    monkeypatch.setattr(carpenter, "_block_stages", lambda *args: inputs.append(args) or real_pass(*args))
    with pytest.raises(ValueError) as refusal:
        carpenter_decompose(xi, stream, stages=10)
    ((*args, out),) = inputs
    xs, consumed, Cs, starts, entries = per_stage(*args)
    supports = stage_supports(consumed, starts, entries)
    assert shape(xs[2], supports[2]) != shape(xs[5], supports[5])
    texts = []
    for i in (2, 5):  # what each corrupted stage gives on its own
        with pytest.raises(ValueError, match="reconstruction residual .* exceeds tolerance") as own:
            block_stage(xs[i], supports[i], consumed[i], Cs[i], np.zeros((len(xs[i]), out.shape[1]), dtype=complex))
        texts.append(str(own.value))
    assert texts[0] != texts[1]
    assert str(refusal.value) == texts[0]


@pytest.mark.parametrize("stream", [
    VectorStream.basis(), VectorStream.block_overlap(3), VectorStream.block_overlap(4).drop(5),
    VectorStream.block_overlap(4).thin(1, 3), finite_rank_input(0, 7)[1], finite_rank_input(0, 7)[1].thin(2, 2),
], ids=["basis", "block3", "block4-drop", "block4-thin", "explicit", "explicit-thin"])
def test_supports_of_many_are_the_supports_of_each(stream):
    # the run reads every stream vector's support in one call; each row is
    # what the call for that one position gives
    n = stream.count if stream.count is not None else 12
    positions = [0, 2, 1, n - 1, 0]
    starts, entries = stream._supports(np.array(positions))
    for pos, start, row in zip(positions, starts.tolist(), entries):
        one_start, one = stream._supports(pos)
        assert start == one_start and row.tobytes() == np.asarray(one).tobytes()
    assert stream._supports(np.array([], dtype=np.intp))[1].shape == (0, entries.shape[1])
