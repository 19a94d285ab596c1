"""The benchmark's three workloads: their jobs and each job's check.

A job's ``run`` is the only timed part; it calls admseq through module
attributes looked up at call time, so the tracer's wrappers are seen.  Its
``check`` runs afterwards, untimed and untraced, and judges the output
against independent oracles (see inputs.py).  A job that raises or fails its
check is a failed job; the run goes on.

Jobs that are expected to fail because of a listed known defect carry that
defect's id.  They are timed, checked and counted like every other job, so a
fix shows as a lower fail_ratio.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

RESIDUAL_TOL = 1e-8  # README: per-stage certificate residuals
COLD_INPUT = {"kind": "finite", "values": [0.25, 0.75, 1.0]}  # three entries, satisfied

KNOWN_DEFECTS = {
    "both-summable-mix": (
        "interleave(geometric(0.125, 0.5), one_minus(same)) at 14 or more stages: "
        "mix_two raises ValueError (mixed vector norm drifted by 6.2e-10); the CLI "
        "exits 2 on this valid input, so verify and bridge on its output fail too"
    ),
    "naive-sum-gate": (
        "10^5 and 10^6 copies of 0.1: kadison_check returns satisfied=False "
        "(a = 10000.000000018848 at 10^5) and majorizes against (1, ..., 1) fails "
        "at the last index; the CLI exits 1 on the decimal-string form"
    ),
    "weights-rebase": (
        "one_minus(geometric(0.38, 0.62)), and about one ratio in seven near 0.6: "
        "the tail recursion reads the dropped tail as (f q^n) q^j, so emitted "
        "weights differ in the last bit from the input entries 1 - f q^(n+j)"
    ),
    "bridge-polar-check": (
        "bridge on the mu-finite decomposition at 30 or more stages: the polar "
        "isometry fails its projection check (2.3e-08 at 40 stages; at 160 the "
        "polar factorization residual is 5.3e-07) and the CLI exits 2 on this "
        "valid input"
    ),
}


# Failure reasons (regular expressions) each known defect produces.  A job
# tagged with a defect that fails for another reason is an unexpected failure.
DEFECT_SIGNATURES = {
    "both-summable-mix": (
        r"mixed vector norm drifted by ",
        # verify and bridge then find no decomposition file
        r"^(verify|bridge) exited 2: error: \[Errno 2\] No such file or directory: "
        r"'[^']*both-summable-S\d+\.dec\.json'$",
    ),
    "naive-sum-gate": (
        r"^kadison_check says False \(a=[0-9.]+\), oracle True$",
        r"^check-kadison exited 1, oracle satisfied=True: $",
    ),
    "weights-rebase": (
        r"^(emitted|written) weights differ from the input entries$",
    ),
    "bridge-polar-check": (
        r"^bridge exited 2: error: polar isometry failed its projection check ",
        r"^bridge exited 2: error: polar factorization residual too large ",
    ),
}


def known_failure(defect: str | None, reason: str) -> bool:
    """Is this failure the one the job's known defect produces?"""
    return defect is not None and any(re.search(sig, reason)
                                      for sig in DEFECT_SIGNATURES[defect])


@dataclass
class Outcome:
    ok: bool
    stages: int = 0          # certified stages
    entries: int = 0         # sequence entries judged or realized
    reason: str = ""
    bytes_read: int = 0
    bytes_written: int = 0


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], Outcome]
    ladder: tuple | None = None      # (ladder key, stage count) for stage_growth_exp
    defect: str | None = None        # KNOWN_DEFECTS id when expected to fail
    reps: int = 1                    # timed repetitions; the sample is their median
    prepare: Callable[[], None] | None = None   # untimed, before each repetition
    child: bool = False              # timed by the child process's CPU time
    produces: tuple = ()             # units its throughput counts: "stages", "entries"


def _fail(reason: str) -> Outcome:
    return Outcome(False, reason=reason)


def _error(err: BaseException) -> Outcome:
    return _fail(f"{type(err).__name__}: {err}")


RESIDUAL_BLOCK = 32  # columns of the residual built at a time


def _projection_residual(dec, stream, top: int) -> float:
    """max |terms + remainder - sum_{i<=top} e_i e_i*| for stream vectors e_i,
    built a block of columns at a time so that no dim x dim matrix is held."""
    dim = dec.dim
    B = np.array([math.sqrt(t.weight) * t.vector for t in dec.terms + dec.remainder])
    E = np.array([stream.vector(i, dim) for i in range(top + 1)])
    worst = 0.0
    for j in range(0, dim, RESIDUAL_BLOCK):
        k = j + RESIDUAL_BLOCK
        cols = B.T @ B[:, j:k].conj() - E.T @ E[:, j:k].conj()
        worst = max(worst, float(np.max(np.abs(cols))))
    return worst


class Workload:
    name = ""

    def __init__(self, admseq, seed: int, workdir: Path, root: Path):
        self.A = admseq
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.cold = None

    def _write(self, name, obj) -> Path:
        path = self.workdir / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def setup(self) -> Job:
        """Build the inputs (and the cold-start input); return the warm-up job."""
        self.cold = self._write("cold.json", COLD_INPUT)
        return self._setup()

    def _setup(self) -> Job:
        raise NotImplementedError

    def jobs(self) -> list[Job]:
        raise NotImplementedError


REBASE_CASE = "mu-finite-0.62"   # inputs.MU_FINITE_REBASE, a mu-finite input


def _case_tag(case: str) -> str:
    return "mu-finite" if case == REBASE_CASE else case


def _defect(case: str, S: int) -> str | None:
    """The known defect a decomposition of this case and size runs into."""
    if case == REBASE_CASE:
        return "weights-rebase"
    if case == "both-summable" and S >= 14:
        return "both-summable-mix"
    return None


# -- stage-ladder ------------------------------------------------------------

LADDERS = {
    "mu-divergent": (10, 40, 160),
    "mu-finite": (10, 40, 160),
    "both-summable": (10, 40, 160),
    "lambda-divergent": (10, 20, 40),
}
# Repetitions per rung at the base run length: fewer where one run takes
# seconds (those already span many speed phases of a shared CPU).  The two
# lambda-divergent 20-stage rungs sit at the job_ms_tail percentile and
# scatter by +-20% between repetitions, so they run 13 times.
LADDER_REPS = {
    "mu-divergent": (11, 11, 1),
    "mu-finite": (11, 11, 7),
    "both-summable": (11, 11, 7),
    "lambda-divergent": (11, 13, 1),
}
FINITE_RANK_SIZES = (25, 100, 200)


class StageLadder(Workload):
    """carpenter_decompose on all five cases over a ladder of stage counts."""

    name = "stage-ladder"

    def _setup(self):
        A = self.A
        self.specs = dict(inputs.case_specs(self.seed), **{REBASE_CASE: inputs.MU_FINITE_REBASE})
        self.seqs = {c: inputs.build(s, A.WeightSeq) for c, s in self.specs.items()}
        self.streams = {"basis": A.VectorStream.basis(),
                        "block4": A.VectorStream.block_overlap(4)}
        self.finite = {}
        for n in FINITE_RANK_SIZES:
            vals, vecs = inputs.finite_rank_input(self.seed, n)
            self.finite[n] = (vals, A.VectorStream.explicit(vecs))
        return self._decompose_job("mu-divergent", "basis", 10, 1)

    def _decompose_job(self, case, stream_name, S, reps):
        A = self.A
        seq = self.seqs[case]
        stream = self.streams[stream_name]
        spec = self.specs[case]
        tag_expected = _case_tag(case)

        def run():
            return A.carpenter_decompose(seq, stream, stages=S)

        def check(result, err):
            if err is not None:
                return _error(err)
            dec, certs, tag = result
            if tag.tag != tag_expected:
                return _fail(f"case {tag.tag!r}, expected {tag_expected!r}")
            if len(certs) != S:
                return _fail(f"{len(certs)} certificates for {S} stages")
            return _check_decomposition(dec, certs, stream, lambda w: inputs.weights_match(spec, w))

        return Job(f"decompose/{case}/{stream_name}/S{S}", run, check,
                   ladder=((case, stream_name), S) if case in LADDERS else None,
                   defect=_defect(case, S), reps=reps, produces=("stages", "entries"))

    def _finite_job(self, n):
        A = self.A
        vals, stream = self.finite[n]

        def run():
            return A.carpenter_decompose(vals, stream)

        def check(result, err):
            if err is not None:
                return _error(err)
            dec, certs, tag = result
            if tag.tag != "finite-rank":
                return _fail(f"case {tag.tag!r}, expected 'finite-rank'")
            return _check_decomposition(dec, certs, stream, lambda w: w == vals)

        return Job(f"decompose/finite-rank/explicit/n{n}", run, check,
                   reps=7 if n == 200 else 11, produces=("stages", "entries"))

    def jobs(self):
        out = []
        for case, rungs in LADDERS.items():
            for stream_name in self.streams:
                out += [self._decompose_job(case, stream_name, S, r)
                        for S, r in zip(rungs, LADDER_REPS[case])]
        out += [self._finite_job(n) for n in FINITE_RANK_SIZES]
        out.append(self._decompose_job(REBASE_CASE, "basis", 40, 11))
        return out


def _check_decomposition(dec, certs, stream, weights_ok) -> Outcome:
    """Certificates hold, weights are carried bit for bit, and terms plus
    remainder rebuild the projection onto every stream vector touched."""
    bad = [c.stage for c in certs if not c.residual <= RESIDUAL_TOL]
    if bad:
        return _fail(f"stage residual above {RESIDUAL_TOL} at stages {bad[:5]}")
    bad = [c.stage for c in certs if not c.majorization.holds]
    if bad:
        return _fail(f"majorization fails at stages {bad[:5]}")
    weights = [t.weight for t in dec.terms]
    if not weights_ok(weights):
        return _fail("emitted weights differ from the input entries")
    top = max(stream_index for c in certs for stream_index, _ in c.consumed)
    res = _projection_residual(dec, stream, top)
    if not res <= RESIDUAL_TOL:
        return _fail(f"terms plus remainder miss the projection by {res:.3e}")
    return Outcome(True, stages=len(certs), entries=len(weights))


# -- gate-sweep ----------------------------------------------------------------

PLAN_LADDER = (10, 40, 160)
PLANNERS = {
    "mu-divergent": "plan_mu_diverges",
    "lambda-divergent": "plan_lambda_diverges",
    "both-summable": "plan_both_summable",
}


class GateSweep(Workload):
    """The exact gate on finite lists and closed-form trees, and the planners
    gated stage by stage; nothing is placed, so horn and operators idle."""

    name = "gate-sweep"

    def _setup(self):
        A = self.A
        self.lists = inputs.finite_lists(self.seed)
        self.majorants = {k: inputs.majorant(v) for k, v in self.lists.items()}
        self.trees = inputs.tree_specs(self.seed)
        self.cases = inputs.case_specs(self.seed)
        self.case_seqs = {c: inputs.build(self.cases[c], A.WeightSeq) for c in PLANNERS}
        self._oracles = {}
        return self._list_job("uniform-1000")

    def _oracle(self, key, compute):
        if key not in self._oracles:
            self._oracles[key] = compute()
        return self._oracles[key]

    def _list_job(self, name):
        A = self.A
        values = self.lists[name]
        eta = self.majorants[name]

        def run():
            seq = A.WeightSeq.finite(values)
            rep = A.kadison_check(seq)
            sp = A.split_mu_lambda(seq)
            try:
                tag = A.classify_case(seq)
            except A.KadisonError as exc:
                tag = exc
            return seq, rep, sp, tag, A.majorizes(values, eta)

        def check(result, err):
            if err is not None:
                return _error(err)
            seq, rep, sp, tag, maj = result
            sat, gap = self._oracle(("kadison", name), lambda: inputs.oracle_kadison_finite(values))
            holds = self._oracle(("majorizes", name), lambda: inputs.oracle_majorizes(values, eta))
            if seq.values != tuple(values):
                return _fail("WeightSeq.finite changed the entries")
            if rep.satisfied != sat or (sat and rep.integer_gap != gap):
                return _fail(f"kadison_check says {rep.satisfied} (a={rep.a!r}), oracle {sat}")
            small = [v for v in values if 0.0 < v <= 0.5]
            large = [1.0 - v for v in values if 0.5 < v < 1.0]
            if sp.mu.values != tuple(small) or sp.lam.values != tuple(large):
                return _fail("split_mu_lambda parts differ from the entries")
            if sat != (not isinstance(tag, A.KadisonError)) or (sat and tag.tag != "finite-rank"):
                return _fail(f"classify_case gave {tag!r}")
            if maj.holds != holds:
                return _fail(f"majorizes says {maj.holds} at index {maj.failing_index}, oracle {holds}")
            return Outcome(True, entries=len(values))

        defect = "naive-sum-gate" if name.startswith("defect-") else None
        # The 10^6-entry uniform list sets entries_per_s and its repetitions
        # scatter by +-20%, so every list above 10^4 entries runs 5 times.
        return Job(f"gate/list/{name}", run, check, defect=defect,
                   reps=11 if len(values) <= 10**4 else 5,
                   produces=("entries",))

    def _tree_job(self, name):
        A = self.A
        spec = self.trees[name]

        def run():
            seq = inputs.build(spec, A.WeightSeq)
            rep = A.kadison_check(seq)
            sp = A.split_mu_lambda(seq)
            try:
                tag = A.classify_case(seq)
            except A.KadisonError as exc:
                tag = exc
            stripped = A.strip_zeros_ones(seq)
            tails = [seq.tail_sum(i) for i in inputs.TAIL_INDICES]
            return rep, sp, tag, stripped, tails

        def check(result, err):
            if err is not None:
                return _error(err)
            rep, sp, tag, (_, zeros, ones), tails = result
            exact = self._oracle(("tree", name), lambda: inputs.oracle_tree(spec))
            exact_tails = self._oracle(("tails", name), lambda: inputs.oracle_tail_sums(spec))
            if rep.satisfied != exact["satisfied"] or rep.integer_gap != exact["gap"]:
                return _fail(f"kadison_check says {rep.satisfied}/{rep.integer_gap}, oracle {exact}")
            got_tag = None if isinstance(tag, A.KadisonError) else tag.tag
            if got_tag != exact["tag"]:
                return _fail(f"classify_case gave {got_tag!r}, oracle {exact['tag']!r}")
            if zeros != 0 or ones != 0:
                return _fail(f"strip_zeros_ones found {zeros} zeros and {ones} ones")
            bad = [i for i, (g, e) in zip(inputs.TAIL_INDICES, zip(tails, exact_tails))
                   if not inputs.tail_matches(g, e)]
            if bad:
                return _fail(f"tail_sum differs from the closed form at indices {bad[:5]}")
            return Outcome(True, entries=inputs.head_length(spec))

        return Job(f"gate/tree/{name}", run, check, reps=11, produces=("entries",))

    def _plan_job(self, case, S):
        A = self.A
        seq = self.case_seqs[case]
        spec = self.cases[case]
        planner = PLANNERS[case]

        def run():
            tag = A.classify_case(seq)
            sp = A.split_mu_lambda(seq)
            gen = getattr(A.carpenter, planner)(sp.mu, sp.lam)
            plans = list(itertools.islice(gen, S))
            return tag, plans, [A.majorizes(p.targets, [c for _, c in p.sources]) for p in plans]

        def check(result, err):
            if err is not None:
                return _error(err)
            tag, plans, verdicts = result
            if tag.tag != case:
                return _fail(f"case {tag.tag!r}, expected {case!r}")
            if len(plans) != S:
                return _fail(f"{len(plans)} plans for {S} stages")
            bad = [i for i, v in enumerate(verdicts) if not v.holds]
            if bad:
                return _fail(f"planned stages {bad[:5]} are not majorized by their sources")
            weights = [w for p in plans for w in p.targets + tuple(w for _, w in p.colinear)]
            if not inputs.weights_match(spec, weights):
                return _fail("planned targets differ from the input entries")
            return Outcome(True, stages=S, entries=len(weights))

        return Job(f"gate/plan/{case}/S{S}", run, check, ladder=((case, "plan"), S), reps=11,
                   produces=("stages", "entries"))

    def jobs(self):
        out = [self._list_job(name) for name in self.lists]
        out += [self._tree_job(name) for name in self.trees]
        out += [self._plan_job(case, S) for case in PLANNERS for S in PLAN_LADDER]
        return out


# -- cli-roundtrip -----------------------------------------------------------

CLI_DECOMPOSE = (
    # (case, stream, rungs, repetitions per rung); the lower rung of each
    # pair gives stage_growth_exp its slope.  Rungs of half a second or more
    # run 4 times, so one slow repetition does not set their median.
    ("mu-divergent", "basis", (20, 80), (9, 4)),
    ("lambda-divergent", "block4", (10, 20), (4, 4)),
    ("mu-finite", "basis", (40, 160), (9, 4)),
    ("both-summable", "basis", (10, 20), (9, 9)),
)
CLI_REBASE = (REBASE_CASE, "basis", 40, 9)   # decompose only
STREAM_JSON = {"basis": {"kind": "orthonormal-basis"},
               "block4": {"kind": "block-overlap", "block": 4}}
CLI_LIST_SIZE = 10**5
CLI_MAJORIZE_SIZE = 10**4


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(hashlib.sha256(c).digest())
    return h.hexdigest()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cold_start(root: Path, path: Path) -> tuple[int, bytes]:
    argv = [sys.executable, "-m", "admseq", "check-kadison", str(path)]
    proc = subprocess.Popen(argv, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


class CliRoundtrip(Workload):
    """admseq.cli.main in-process: decompose --out, verify, bridge, the gates
    on large JSON lists, and a cold start in a fresh interpreter."""

    name = "cli-roundtrip"

    def _setup(self):
        specs = dict(inputs.case_specs(self.seed), **{REBASE_CASE: inputs.MU_FINITE_REBASE})
        self.specs = specs
        self.inputs = {}
        for case, stream, _, _ in CLI_DECOMPOSE + (CLI_REBASE,):
            self.inputs[case] = self._write(
                f"{case}.json", {"weights": inputs.to_json(specs[case]), "stream": STREAM_JSON[stream]})
        values = inputs.uniform_list(self.seed, CLI_LIST_SIZE)
        self.kadison = {
            "numbers": (self._write("uniform-numbers.json", {"kind": "finite", "values": values}),
                        values, None),
            "strings": (self._write("uniform-strings.json",
                                    {"kind": "finite", "values": [repr(v) for v in values]}),
                        values, None),
            "defect-strings": (self._write(
                "defect-strings.json",
                {"kind": "finite", "values": [repr(inputs.DEFECT_LIST_VALUE)] * CLI_LIST_SIZE}),
                [inputs.DEFECT_LIST_VALUE] * CLI_LIST_SIZE, "naive-sum-gate"),
        }
        xi = inputs.uniform_list(self.seed, CLI_MAJORIZE_SIZE)
        eta = _spread(xi)
        self.majorize = (self._write("xi.json", {"kind": "finite", "values": xi}),
                         self._write("eta.json", {"kind": "finite", "values": eta}), xi, eta)
        self.digests: dict[str, str] = {}
        return self.jobs()[0]

    def _call(self, argv):
        """(exit code, stdout bytes, last line of stderr) of one CLI call."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.A.cli.main(argv)
        lines = err.getvalue().strip().splitlines()
        return code, out.getvalue().encode("utf-8"), lines[-1] if lines else ""

    def _same_bytes(self, key, *chunks) -> bool:
        d = _digest(*chunks)
        return self.digests.setdefault(key, d) == d

    def _decompose_jobs(self, case, stream, S, reps):
        inp = self.inputs[case]
        out = self.workdir / f"{case}-S{S}.dec.json"
        target = self.workdir / f"{case}-S{S}.dec.target.json"
        bridge_out = self.workdir / f"{case}-S{S}.bridge.json"
        spec = self.specs[case]
        defect = _defect(case, S)
        argv = ["decompose", str(inp), "--stages", str(S), "--out", str(out)]

        def prepare():
            for p in (out, target, bridge_out):
                if p.exists():
                    p.unlink()

        def check_decompose(result, err):
            if err is not None:
                return _error(err)
            code, stdout, stderr = result
            if code != 0:
                return _fail(f"decompose exited {code}: {stderr}")
            rep = json.loads(stdout)
            if not (rep["ok"] and rep["stages"] == S and rep["majorizations_hold"]
                    and rep["max_stage_residual"] <= RESIDUAL_TOL
                    and rep["case"]["tag"] == _case_tag(case)):
                return _fail(f"decompose report {rep}")
            dec_bytes = out.read_bytes()
            tgt_bytes = target.read_bytes()
            weights = [t["weight"] for t in json.loads(dec_bytes)["terms"]]
            if not inputs.weights_match(spec, weights):
                return _fail("written weights differ from the input entries")
            if not self._same_bytes(f"decompose/{case}/{S}", stdout, dec_bytes, tgt_bytes):
                return _fail("report or written files changed between passes")
            return Outcome(True, stages=S, entries=len(weights),
                           bytes_read=inp.stat().st_size,
                           bytes_written=len(stdout) + len(dec_bytes) + len(tgt_bytes))

        def check_verify(result, err):
            if err is not None:
                return _error(err)
            code, stdout, stderr = result
            if code != 0:
                return _fail(f"verify exited {code}: {stderr}")
            rep = json.loads(stdout)
            if not (rep["ok"] and rep["residual"] <= RESIDUAL_TOL):
                return _fail(f"verify report {rep}")
            if not self._same_bytes(f"verify/{case}/{S}", stdout):
                return _fail("report changed between passes")
            return Outcome(True, bytes_read=out.stat().st_size + target.stat().st_size,
                           bytes_written=len(stdout))

        def check_bridge(result, err):
            if err is not None:
                return _error(err)
            code, stdout, stderr = result
            if code != 0:
                return _fail(f"bridge exited {code}: {stderr}")
            rep = json.loads(stdout)
            if not (rep["ok"] and rep["diagonal_deviation"] <= RESIDUAL_TOL):
                return _fail(f"bridge report {rep}")
            written = bridge_out.read_bytes()
            if not self._same_bytes(f"bridge/{case}/{S}", stdout, written):
                return _fail("report or written file changed between passes")
            return Outcome(True, bytes_read=out.stat().st_size,
                           bytes_written=len(stdout) + len(written))

        verify_argv = ["verify", str(out), str(target)]
        bridge_argv = ["bridge", str(out), "--out", str(bridge_out)]
        return [
            Job(f"cli/decompose/{case}/{stream}/S{S}", lambda: self._call(argv), check_decompose,
                ladder=((case, stream), S) if case != REBASE_CASE else None,
                defect=defect, prepare=prepare, reps=reps,
                produces=("stages", "entries")),
            Job(f"cli/verify/{case}/S{S}", lambda: self._call(verify_argv), check_verify,
                defect=defect, reps=reps),
            Job(f"cli/bridge/{case}/S{S}", lambda: self._call(bridge_argv), check_bridge,
                defect=defect or ("bridge-polar-check" if case == "mu-finite" and S >= 30 else None),
                reps=reps),
        ]

    def _kadison_job(self, form):
        path, values, defect = self.kadison[form]

        def check(result, err):
            if err is not None:
                return _error(err)
            code, stdout, stderr = result
            sat, gap = inputs.oracle_kadison_finite(values)
            if code != (0 if sat else 1):
                return _fail(f"check-kadison exited {code}, oracle satisfied={sat}: {stderr}")
            rep = json.loads(stdout)
            if rep["satisfied"] != sat or rep["integer_gap"] != gap:
                return _fail(f"check-kadison report {rep}")
            if not self._same_bytes(f"kadison/{form}", stdout):
                return _fail("report changed between passes")
            return Outcome(True, entries=len(values), bytes_read=path.stat().st_size,
                           bytes_written=len(stdout))

        argv = ["check-kadison", str(path)]
        return Job(f"cli/check-kadison/{form}", lambda: self._call(argv), check, defect=defect,
                   reps=7, produces=("entries",))

    def _majorize_job(self):
        xi_path, eta_path, xi, eta = self.majorize
        holds = inputs.oracle_majorizes(xi, eta)

        def check(result, err):
            if err is not None:
                return _error(err)
            code, stdout, stderr = result
            if code != (0 if holds else 1) or json.loads(stdout)["holds"] != holds:
                return _fail(f"check-majorize exited {code}, oracle holds={holds}: {stderr}")
            if not self._same_bytes("majorize", stdout):
                return _fail("report changed between passes")
            return Outcome(True, entries=len(xi) + len(eta),
                           bytes_read=xi_path.stat().st_size + eta_path.stat().st_size,
                           bytes_written=len(stdout))

        argv = ["check-majorize", str(xi_path), str(eta_path)]
        return Job("cli/check-majorize", lambda: self._call(argv), check, reps=9,
                   produces=("entries",))

    def _cold_job(self):
        def check(result, err):
            if err is not None:
                return _error(err)
            code, stdout = result
            if code != 0 or not json.loads(stdout)["satisfied"]:
                return _fail(f"cold check-kadison exited {code}")
            if not self._same_bytes("cold", stdout):
                return _fail("report changed between runs")
            return Outcome(True)

        return Job("cli/cold-start", lambda: run_cold_start(self.root, self.cold), check,
                   child=True, reps=5)

    def jobs(self):
        out = []
        for case, stream, rungs, reps in CLI_DECOMPOSE:
            for S, r in zip(rungs, reps):
                out += self._decompose_jobs(case, stream, S, r)
        case, stream, S, r = CLI_REBASE
        out.append(self._decompose_jobs(case, stream, S, r)[0])
        out += [self._kadison_job(form) for form in self.kadison]
        out += [self._majorize_job(), self._cold_job()]
        return out


def _spread(xi):
    """A list that majorizes xi: mass moves from each small entry to its
    large partner in sorted order (the reverse of a Robin Hood transfer)."""
    order = sorted(range(len(xi)), key=lambda i: -xi[i])
    eta = list(xi)
    for lo_rank in range(len(order) // 2):
        big, small = order[lo_rank], order[-1 - lo_rank]
        delta = min(1.0 - eta[big], eta[small]) * 0.5
        eta[big] += delta
        eta[small] -= delta
    return eta


WORKLOADS = {w.name: w for w in (StageLadder, GateSweep, CliRoundtrip)}
