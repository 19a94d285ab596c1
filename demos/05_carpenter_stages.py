"""Streaming decompositions with stage certificates.

An infinite weight sequence passing the integrality gate is realized
against a stream of rank-one projections E_0, E_1, ...  The construction
is staged: each stage consumes a finite block of stream vectors, emits
finitely many terms, and certifies an exact identity

    emitted terms (+ remainder) = consumed block

so every truncation can be checked without ever touching infinity.
"""

import numpy as np

from admseq import (
    VectorStream,
    WeightSeq,
    carpenter_decompose,
    classify_case,
    op_from_json,
    touched_projection,
)

scenarios = {
    "four half weights": WeightSeq.finite([0.5, 0.5, 0.5, 0.5]),
    "0.4, 0.9 repeating": WeightSeq.periodic([], [0.4, 0.9]),
    "0.6, 0.5 then 0.75 repeating": WeightSeq.periodic([0.6, 0.5], [0.75]),
    "interleaved geometric pair": WeightSeq.interleave(
        WeightSeq.geometric([], 0.125, 0.5),
        WeightSeq.one_minus(WeightSeq.geometric([], 0.125, 0.5)),
    ),
    "1 - (0.4 x 0.6^j)": WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6)),
}

print("case classification")
for name, xi in scenarios.items():
    tag = classify_case(xi)
    print(f"  {name:32s} -> {tag.tag:17s} k={tag.k}  M={tag.M}  N={tag.N}")

# run the divergent-mu case for six stages on the standard basis stream
xi = scenarios["0.4, 0.9 repeating"]
dec, certs, tag = carpenter_decompose(xi, VectorStream.basis(), stages=6)

print(f"\n{tag.tag}: {len(dec.terms)} terms, {len(dec.remainder)} remainder, 6 stages")
print("stage  consumed (index: coeff)             targets              residual")
for c in certs:
    used = " ".join(f"{j}:{w:.2f}" for j, w in c.consumed)
    tgts = " ".join(f"{t:.2f}" for t in c.targets)
    print(f"  {c.stage}    {used:36s} {tgts:20s} {c.residual:.1e}")

# the emitted weights are exactly the input sequence, in order
print("emitted weights:", [round(t.weight, 10) for t in dec.terms[:8]], "...")

# truncation identity: terms plus the boundary remainder rebuild the
# paper's operator, the projection P onto every stream vector a stage
# consumed; P is built from the stream and the certificates alone (the
# target `decompose --out` writes), never from the terms
dim = dec.dim
touched = sorted({j for c in certs for j, _ in c.consumed})
P = op_from_json(touched_projection(VectorStream.basis(), touched, dim))
total = dec.frame_operator(dim=dim, with_remainder=True)
print("touched %d..%d, identity residual against P: %.2e" % (touched[0], touched[-1], np.max(np.abs(total - P))))

# streams need not be the standard basis; overlapping cosine blocks give
# a stream with the same certificates and the same identity
block4 = VectorStream.block_overlap(4)
dec2, certs2, _ = carpenter_decompose(xi, block4, stages=6)
print("block-overlap stream, worst stage residual:", max(c.residual for c in certs2))
P2 = op_from_json(touched_projection(block4, (j for c in certs2 for j, _ in c.consumed), dec2.dim))
print("block-overlap identity residual against P: %.2e"
      % np.max(np.abs(dec2.frame_operator(with_remainder=True) - P2)))

# the no-small-entries case carries a shrinking rank-one remainder
dec3, certs3, tag3 = carpenter_decompose(
    scenarios["1 - (0.4 x 0.6^j)"], VectorStream.basis(), stages=10
)
carry = dec3.remainder[0]
print(f"\n{tag3.tag}: carry weight after 10 stages = {carry.weight:.6f}")
caps = [(c.sigma, c.sigma_cap) for c in certs3 if c.sigma is not None]
print("mixing coefficients stay under their proven caps:")
for s, cap in caps[:4]:
    print(f"  sigma = {s:.6f}  cap = {cap:.6f}")
