"""The stage driver: every case goes through one realization loop, and each
stage identity is checked once.

The comparison set pins what the driver emits to digests recorded before it
existed, when four separate routes realized the stages:

- the four infinite cases (mu-divergent and lambda-divergent at three seeded
  parameter draws, mu-finite and both-summable), a mu-only input and inputs
  with 0 and 1 entries, each on the basis, block-3 and block-4 streams at 3
  and 10 stages;
- two mu-finite inputs whose head leaves its boundary vector untouched, on
  the same streams at 1, 2 and 10 stages;
- the finite-rank case at n = 25, 100 and 200 for three seeds (n = 200
  gives the largest placement pools);
- the both-summable case at 13 stages on the block-4 stream, the most
  stages it reaches before the known mixing defect.

Each input has two digests.  ``values`` covers what plain float arithmetic
decides: the weights by ``float.hex``, term order, ``dim``, the remainder
weights and each certificate's stage, consumed coefficients, targets and
majorization verdict.  ``bytes`` covers everything else: the term and
remainder vector bytes (sign of zero included) and ``repr`` of every
certificate.  Those pass through BLAS products, whose last bits depend on
the numpy build and the CPU kernel, so ``bytes`` is compared only on the
build it was recorded with (x86-64, numpy 2.4.6 with its bundled OpenBLAS).
"""

from __future__ import annotations

import hashlib
import platform

import numpy as np
import pytest

from admseq import carpenter, horn, operators
from admseq.carpenter import carpenter_decompose
from admseq.operators import RankOneDecomp, RankOneTerm, frame_operator
from admseq.seqkit import SUM_TOL, WeightSeq, split_mu_lambda
from admseq.streams import VectorStream

STREAMS = {
    "basis": VectorStream.basis,
    "block3": lambda: VectorStream.block_overlap(3),
    "block4": lambda: VectorStream.block_overlap(4),
}
STAGES = (3, 10)
RECORDED_ON = ("x86_64", "2.4.6")

GEO8 = WeightSeq.geometric([], 0.125, 0.5)
# (small, large) of the mu-divergent block and the lambda-divergent head
# entry at seeds 0, 1 and 2 of the benchmark's case draws
SEEDED = {
    0: (0.4, 0.9, 0.6),
    1: (0.3992687284882248, 0.9006948674738745, 0.6105509847590646),
    2: (0.40091206854377853, 0.9008956549741187, 0.5822620547090723),
}


def staged_inputs() -> dict:
    out = {}
    for seed, (small, large, head) in SEEDED.items():
        out[f"mu-divergent-s{seed}"] = WeightSeq.periodic([], (small, large))
        out[f"lambda-divergent-s{seed}"] = WeightSeq.periodic((head, 0.5), (0.75,))
    out["mu-finite"] = WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6))
    out["both-summable"] = WeightSeq.interleave(GEO8, WeightSeq.one_minus(GEO8))
    # no large entries: at 3 stages the last boundary vector is used up by
    # two stages together, so no remainder is left
    out["mu-only"] = WeightSeq.periodic([], (0.3,))
    # 0 and 1 entries in each of the layouts carpenter_decompose knows
    out["ones-beside-mu-divergent"] = WeightSeq.periodic([], (1.0, 0.4, 0.9))
    out["ones-after-finite-core"] = WeightSeq.periodic([0.3, 0.7, 0.25, 0.75, 0.6, 0.4], (1.0,))
    out["zero-then-ones"] = WeightSeq.periodic([0.0], (1.0,))
    out["ones-beside-mu-finite"] = WeightSeq.interleave(
        WeightSeq.periodic([], (1.0,)), WeightSeq.one_minus(WeightSeq.geometric([], 0.4, 0.6))
    )
    out["finite-ones-mu-divergent"] = WeightSeq.periodic([1.0, 1.0, 0.0], (0.4, 0.9))
    out["finite-ones-mu-finite"] = WeightSeq.one_minus(WeightSeq.geometric([0.0, 1.0], 0.4, 0.6))
    out["finite-ones-lambda-divergent"] = WeightSeq.periodic([1.0, 0.6, 0.0, 0.5], (0.75,))
    out["finite-ones-both-summable"] = WeightSeq.interleave(
        WeightSeq.finite([1.0, 0.0, 1.0]), WeightSeq.interleave(GEO8, WeightSeq.one_minus(GEO8))
    )
    return out


def finite_rank_input(seed: int, n: int):
    """2n weights in (0, 1) summing to n and an orthonormal n-vector stream."""
    rng = np.random.default_rng([seed, n])
    while True:
        w = rng.uniform(0.1, 0.9, 2 * n)
        w *= n / w.sum()
        vals = [float(x) for x in w]
        vals[-1] = n - sum(vals[:-1])
        if all(0.0 < v < 1.0 for v in vals):
            break
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return WeightSeq.finite(vals), VectorStream.explicit([q[:, j] for j in range(n)])


def runs(name: str):
    """Every (decomposition, certificates) of one comparison-set input."""
    if name.startswith("finite-rank"):
        _, n, seed = name.split("-")[1:]
        xi, stream = finite_rank_input(int(seed[1:]), int(n[1:]))
        dec, certs, _ = carpenter_decompose(xi, stream)
        yield dec, certs
        return
    if name in SINGLE_RUNS:
        base, sname, stages = SINGLE_RUNS[name]
        dec, certs, _ = carpenter_decompose(staged_inputs()[base], STREAMS[sname](), stages=stages)
        yield dec, certs
        return
    if name in ZERO_SHARE:
        xi, stage_counts = ZERO_SHARE[name], ZERO_SHARE_STAGES
    else:
        xi, stage_counts = staged_inputs()[name], STAGES
    for sname in sorted(STREAMS):
        for stages in stage_counts:
            dec, certs, _ = carpenter_decompose(xi, STREAMS[sname](), stages=stages)
            yield dec, certs


def digests(name: str) -> tuple[str, str]:
    values = hashlib.sha256()
    raw = hashlib.sha256()
    for dec, certs in runs(name):
        values.update(repr((
            [t.weight.hex() for t in dec.terms],
            dec.dim,
            [t.weight.hex() for t in dec.remainder],
            [(c.stage, c.consumed, c.targets, c.majorization) for c in certs],
        )).encode())
        for t in dec.terms + dec.remainder:
            raw.update(t.vector.tobytes())
        raw.update(repr(certs).encode())
    return values.hexdigest(), raw.hexdigest()


# mu-finite inputs whose head boundary share r = lam.tail_sum(n) is exactly
# 0.0 (the geometric defect tail underflows): the head leaves its boundary
# vector untouched, and the tail still starts from that whole vector
_TINY = WeightSeq.one_minus(WeightSeq.geometric([], 0.25, 1e-20))
ZERO_SHARE = {
    "zero-share": WeightSeq.interleave(WeightSeq.finite([0.25, 0.25]), _TINY, _TINY),
    "zero-share-ones": WeightSeq.interleave(
        WeightSeq.periodic([], (1.0,)), WeightSeq.finite([0.25, 0.25]), _TINY, _TINY
    ),
}
ZERO_SHARE_STAGES = (1, 2, 10)

FINITE_RANK = [f"finite-rank-n{n}-s{seed}" for n in (25, 100, 200) for seed in range(3)]

# name -> (staged input, stream, stages) of one run
SINGLE_RUNS = {"both-summable-block4-S13": ("both-summable", "block4", 13)}

# name -> (values digest, bytes digest)
RECORDED = {
    "both-summable": (
        "a552b0ca4e645d4e96588a8c91b49741a43b61a4932d44c3aa07057bc8bd86f8",
        "6be1a1a09d230503d99a77be986e489a3294aa9a656608e547907881ea8b618e",
    ),
    "both-summable-block4-S13": (
        "fc06a0629423c76d70bd6ecddc8925d5dfaace7707dd9ecafda2b20ff9322985",
        "ca535a5cd25a2d2dd231b50dd80cb9ae94f7c62aca98c4bc015999c36604e5a6",
    ),
    "finite-ones-both-summable": (
        "52766ad97b2412eb28ae2e5b83afd4079dbc68dced62c2244c65ce420b879ea6",
        "b730bb02f1c3e1b65b3540a7c0148353df3107bc7a9376db80531dc6c0ecfa28",
    ),
    "finite-ones-lambda-divergent": (
        "5b62c84f0b11332255e971f6147e89c8756f4ff60e407a237f3727d3e92d628a",
        "8bf67b6dc68e114f93d8939d620075e03bc9a8e0fab0ebcb205e8fcf3e3feee7",
    ),
    "finite-ones-mu-divergent": (
        "4b066f59bdc4e6a7f28108a1331b4e01abac00dd67c858f32bb80c15c811d630",
        "cdf0eaf5286c7ffd6bc42f66705a85ce1e40b79af91abfa6e030aca405f28c75",
    ),
    "finite-ones-mu-finite": (
        "a946372e824489107e4bf195b7601ae1aa90414f32d15bfa7a82607bd2e8fac6",
        "6b7fc7d9bab22e1e209bd6a6115cc6d7d66774be22f53b7fd5b119c69afcc9fc",
    ),
    "lambda-divergent-s0": (
        "f905c0fc20a198e88d8c4027d95a558f4577b2c3f32ed6f96cd001fcab0d948e",
        "b765990141a404179b3c37d0c74b991dadd10d8a3175020babc7aa7bca699c30",
    ),
    "lambda-divergent-s1": (
        "3636f6a36782bbf4053996d5dbfc83cd968b71d0977416dd7884567d79215914",
        "757b8f4a0b927bf5e5b9527815d0edc8fd16d551bdede663872a6b5e9e11b6d9",
    ),
    "lambda-divergent-s2": (
        "931147c0cfd172ca2ecc2ae64fd3a0c4d777fc32d9161e2da050997608007f61",
        "4c54efb46325a9c6cf02d2f5a0efec12ba3d5c340da8e55c972034b8b4c23f8b",
    ),
    "mu-divergent-s0": (
        "1b88b3956331549157398a14d368fae51d66891b7a89e58e00dc0cf446496b04",
        "49584124534d3b901b8f73ef32359efde9cb851604f1b929b7a5dfe64d033e3d",
    ),
    "mu-divergent-s1": (
        "8cfc15f88d9786801798992d0dbfcef30775ac0dac9061a8f9bd34dcf26c0436",
        "51822bca80b0391e699a434ababbed7bab35dfbf826e19f840441810820f5e2d",
    ),
    "mu-divergent-s2": (
        "c000f93cfec78f96adc7d15c38bf5d01f6257d162baf3a1faf14bf72f8e43612",
        "faf9db9d6129950f3fb246f62c3805e595a292b378e60fc693d80eb3f4fb06d8",
    ),
    "mu-finite": (
        "7f202ba40da52e9a09120ae7fa3f4d6b43debbfa0519f61102af939136d9dae4",
        "08fdf2978a31b2142e635ef37f3704324e90448aef1d99e90228fb1e54cfba09",
    ),
    "mu-only": (
        "dddf05a39855c21305ed55abae820df90bfda3df2db0566dc1e9fe97f66bfc8a",
        "153d683661613b7b40b054bc32b636769541c6b2bca2a6a9e458583d71911ef6",
    ),
    "ones-after-finite-core": (
        "0922cb24743195ee5098cc8a27e775b8323d0da7122b1e579f3ac858b925a2ed",
        "390ca92804c1fdadad910558ce829b2615e6e8448f8aea4e7d5c04f64561ce1e",
    ),
    "ones-beside-mu-divergent": (
        "e8f58d8b2d86ef107fa1040268244027a3fb8a5d51e9b4d014dd752852b63b43",
        "61834f8f6305ca81821323aac30183ef8de2992102fdd52c058699bf38b0f781",
    ),
    "ones-beside-mu-finite": (
        "e548e3cf1792485124e38bbd9b77564ea4bc01468dabb4ba0ac81b1dfb9913fb",
        "c775ef63bbd405f9d9b2e6dcf42a29406f97f1376716813e58bd32ffd91abfc5",
    ),
    "zero-share": (
        "6bfd829fce41be675e9067826c1ef37a683d19b5ffef21998656c419dec6ec19",
        "0cf3bcf2d6913318a477135c7328b4aaaf958175292ef0c82557a18128c39969",
    ),
    "zero-share-ones": (
        "2bae08128f29d2a26f715cf0aae3484c9a8387acd8ba796584d56f7e64b51871",
        "6cea2c7edd629c8f4b74d6752d370a1b3e9ec2b578842a8a7f57c68c265011fc",
    ),
    "zero-then-ones": (
        "4ec1bcd8b58907c32d88af7c9d7cd74dfe52d3cad5a79afadd5deb57b9a92e03",
        "434ecffc025eb4b237e6416e755d53123f92b6c67d46064eec16873d47015a08",
    ),
    "finite-rank-n100-s0": (
        "9a9ccfefeabe879f0b6afe79d562e59692ffbbc3bca551710637e5279e6500c2",
        "a60e8798d0686eacec55e06e9c4d9c51c720b3697b9b847caf1cd79509fcc0f0",
    ),
    "finite-rank-n100-s1": (
        "aa427e5d4a16e36305db42d52a20900bac8ca093547abf630c90037d8268dfd9",
        "d2ba46a610ae43e9d5686b9ce073f3c37fc3707a113c8d8dc847b97d8649e3f5",
    ),
    "finite-rank-n100-s2": (
        "88563aea0c7648b7b58ac670d2bfcf7e2696a9a829e9f59049a3fef15518fa8e",
        "6487152e7bad3e3bfc58d83a76f21148ee6a25a4d84565acb0fcb0240b8082eb",
    ),
    "finite-rank-n200-s0": (
        "81df0c8769a0fdeef1724d7ff47298af1cfcd9b9746ff3857e6bd584c218fd0a",
        "8c3be01237d4bb8017829ef015fbc3ffd56d24416ea48ab6945365aa4987cbca",
    ),
    "finite-rank-n200-s1": (
        "d41eb65b1db68ef4a92030cbd333f7ddd70d98b8ec137e732c59f4b3b28dbaa0",
        "9213eb246345b7d8cbf77310618456e7359f9c1d70543d7ae55a256dcac60243",
    ),
    "finite-rank-n200-s2": (
        "42a815ff31299f8f713f5f4eacd3c1e570ac68ba045fde14b45eb9d729704719",
        "904576736aa85c7085cc614a345ed27e7c61c02dd8291282e44733ed99b9a62d",
    ),
    "finite-rank-n25-s0": (
        "f8a73d81c171f8c6595b1c09fff0be7d4a960a8a620b62d4f4d582583a9da3fb",
        "5a2308a18f8e4847a2b001ed6de783008e48db7b956ab508ac8e59acb99ec299",
    ),
    "finite-rank-n25-s1": (
        "3e08343fc9e95c578094cd88ae43c219ec97a34d8c865e7b9763cea200818207",
        "959dde658f38083796046dcb6a174e5336b3e0875783cef9461e9e348f59a8d9",
    ),
    "finite-rank-n25-s2": (
        "e34cd9e7cfed18f97b6cd539a7b0c6eea36096b60d0dd3bf2e7aeca99a8793ff",
        "0060d89c5771e6c8a40e30dce3deebac11651c05a7a785911c0ac824c4967467",
    ),
}


@pytest.mark.parametrize(
    "name", sorted(staged_inputs()) + sorted(ZERO_SHARE) + sorted(SINGLE_RUNS) + FINITE_RANK
)
def test_comparison_set_matches_recorded_digests(name):
    values, raw = digests(name)
    want_values, want_raw = RECORDED[name]
    assert values == want_values
    if (platform.machine(), np.__version__) == RECORDED_ON:
        assert raw == want_raw


@pytest.mark.parametrize("stages", ZERO_SHARE_STAGES)
def test_zero_boundary_share_covers_the_touched_vectors(stages):
    xi = ZERO_SHARE["zero-share"]
    sp = split_mu_lambda(xi)
    assert sp.lam.tail_sum(2) == 0.0  # k = 0 and n = 2: the head takes E_0, E_1 whole
    dec, certs, _ = carpenter_decompose(xi, VectorStream.basis(), stages=stages)
    # the carry starts as all of E_2 and tail step t takes E_{3+t}
    assert [c.consumed for c in certs[1:]] == [((3 + t, 1.0),) for t in range(stages - 1)]
    assert dec.dim == stages + 2
    op = frame_operator(list(dec.terms) + list(dec.remainder), dim=dec.dim)
    assert np.max(np.abs(op - np.eye(dec.dim))) <= 1e-12
    if stages == 1:  # the whole of E_2 is left
        (rem,) = dec.remainder
        assert rem.weight == 1.0
        assert np.array_equal(rem.vector, VectorStream.basis().vector(2, 3))


def test_one_stage_identity_per_block_stage(monkeypatch):
    # the run-level pass forms each block stage's k x k identity once, from
    # its real coefficient matrix, and checks them all in one call, in stage
    # order; no frame operator is formed on the path
    checks, frame_calls = [], []
    real = horn._check_residuals

    def recording(devs, ks):
        checks.append((list(devs), list(ks)))
        return real(devs, ks)

    monkeypatch.setattr(horn, "_check_residuals", recording)
    monkeypatch.setattr(operators, "frame_operator", lambda terms, dim=None: frame_calls.append(dim))
    _, certs, _ = carpenter_decompose(staged_inputs()["mu-divergent-s0"], STREAMS["block4"](), stages=40)
    ((devs, ks),) = checks
    assert ks == [len(c.consumed) for c in certs]
    # each stage's largest residual entry bounds its Frobenius norm both ways
    assert all(d <= c.residual <= k * d for d, k, c in zip(devs, ks, certs))
    assert frame_calls == []


@pytest.mark.parametrize("name", ["mu-divergent-s0", "lambda-divergent-s0"])
def test_one_majorization_per_block_stage(monkeypatch, name):
    # every stage's verdict comes from one batched pass over the run, and it
    # also licenses the placement, so horn does not sort and test the same
    # targets and sources a second time, and no stage calls majorizes itself
    batches, calls = [], {"carpenter": 0, "horn": 0}
    for mod_name in calls:
        mod = carpenter if mod_name == "carpenter" else horn
        real = mod.majorizes

        def counting(xi, eta, tol=SUM_TOL, _name=mod_name, _real=real):
            calls[_name] += 1
            return _real(xi, eta, tol=tol)

        monkeypatch.setattr(mod, "majorizes", counting)
    real_many = carpenter._majorizes_many

    def batched(xs, es):
        batches.append(real_many(xs, es))
        return batches[-1]

    monkeypatch.setattr(carpenter, "_majorizes_many", batched)
    _, certs, _ = carpenter_decompose(staged_inputs()[name], STREAMS["block4"](), stages=40)
    assert all(c.sigma is None for c in certs)  # block stages only
    (verdicts,) = batches
    assert len(verdicts) == len(certs)
    assert all(v is c.majorization for v, c in zip(verdicts, certs))
    assert calls == {"carpenter": 0, "horn": 0}


@pytest.mark.parametrize("name", ["mu-divergent-s0", "mu-finite"])
def test_corrupted_placement_is_refused(monkeypatch, name):
    # one row of a block stage's coefficient matrix C turned a little off
    # after every mix passed its checks: only the driver's stage check can
    # refuse the stage
    real = carpenter._place_rows

    def corrupt(ks, counts, mixes, tails=()):
        store, coefs = real(ks, counts, mixes, tails)
        assert store.dtype == np.float64  # real coefficient rows
        # the row of the first stage's first mix target, which one term takes
        r, k = sum(ks), ks[0]
        assert counts[0] > 0
        v = store[r, :k] + 1e-6 * np.roll(store[r, :k], 1)
        store[r, :k] = v / np.linalg.norm(v)
        return store, coefs

    monkeypatch.setattr(carpenter, "_place_rows", corrupt)
    with pytest.raises(ValueError, match="reconstruction residual .* exceeds tolerance"):
        carpenter_decompose(staged_inputs()[name], VectorStream.basis(), stages=3)


def test_batched_run_raises_the_first_failing_mix():
    # every mix of a run is checked in one call, after every stage is
    # scheduled; the error is still the first failing mix's, at stage 14 of
    # the both-summable input, with the text the stage-by-stage driver gave
    xi = staged_inputs()["both-summable"]
    carpenter_decompose(xi, VectorStream.basis(), stages=13)
    for stages in (14, 20):
        with pytest.raises(ValueError) as info:
            carpenter_decompose(xi, VectorStream.basis(), stages=stages)
        assert type(info.value) is ValueError
        assert str(info.value) == "mixed vector norm drifted by 6.209e-10"


@pytest.mark.parametrize("shortfall, left", [(2.0**-53, False), (2.0**-49, True)],
                         ids=["within-1e-15", "beyond-1e-15"])
def test_boundary_shortfall_threshold(shortfall, left):
    # two block stages share E_1 and leave 1 - shortfall of it used: a
    # shortfall of at most 1e-15 is rounding and leaves no remainder term,
    # anything more is left as the remainder on E_1
    plans = [
        carpenter.BlockPlan((0.75, 0.75), ((0, 1.0), (1, 0.5))),
        carpenter.BlockPlan((0.25, 0.25 - shortfall), ((1, 0.5 - shortfall),)),
    ]
    rows, weights, certs, n = carpenter._realize(plans, VectorStream.basis())
    dec = RankOneDecomp._of_rows(rows, weights, n)
    terms, remainder = dec.terms, dec.remainder
    assert [c.consumed for c in certs] == [((0, 1.0), (1, 0.5)), ((1, 0.5 - shortfall),)]
    assert 1.0 - (0.5 + (0.5 - shortfall)) == shortfall
    if left:
        (rem,) = remainder
        assert rem.weight == shortfall
        assert np.array_equal(rem.vector, VectorStream.basis().vector(1, 2))
    else:
        assert remainder == ()
    op = frame_operator(list(terms) + list(remainder), dim=2)
    assert np.max(np.abs(op - np.eye(2))) <= 1e-12


PREFIX_STREAMS = {
    **STREAMS,
    "thin": lambda: VectorStream.basis().thin(1, 2),
    "block4-thin": lambda: VectorStream.block_overlap(4).thin(1, 2),
}
# both-summable at most 13 stages, the most it reaches before the known
# mixing defect
PREFIX_PAIRS = ((3, 10), (5, 13), (8, 12))


@pytest.mark.parametrize("short, long", PREFIX_PAIRS, ids=[f"S{a}-S{b}" for a, b in PREFIX_PAIRS])
@pytest.mark.parametrize("sname", sorted(PREFIX_STREAMS))
@pytest.mark.parametrize(
    "case", ["mu-divergent-s0", "lambda-divergent-s0", "both-summable", "mu-finite"]
)
def test_shorter_run_is_a_prefix_of_a_longer_one(case, sname, short, long):
    # an S-stage run is the first S stages of the infinite construction: no
    # stage depends on how many follow it, nor on the dimension they need
    xi = staged_inputs()[case]
    a, certs_a, _ = carpenter_decompose(xi, PREFIX_STREAMS[sname](), stages=short)
    b, certs_b, _ = carpenter_decompose(xi, PREFIX_STREAMS[sname](), stages=long)
    assert [repr(c) for c in certs_a] == [repr(c) for c in certs_b[:short]]
    assert [t.weight for t in a.terms] == [t.weight for t in b.terms[: len(a.terms)]]
    for s, t in zip(a.terms, b.terms):
        padded = np.zeros(b.dim, dtype=complex)
        padded[: a.dim] = s.vector
        assert padded.tobytes() == t.vector.tobytes()
    # these streams are real and every mix has real coefficients, so no
    # phase may enter a term
    assert not any(np.any(t.vector.imag) for t in b.terms)
