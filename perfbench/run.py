"""admseq benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload stage-ladder --seed 0 --seconds 10 --trace 0

Builds the workload's inputs from ``--seed``, runs every job's repetitions
one after another in this process, checks every output, and prints one JSON
line last: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1`` (a separate run with spans around admseq's layers).

Times are CPU time of the process doing the work (``time.process_time``,
and the rusage of child processes), so time the hypervisor hands to other
tenants is not counted.  A shared CPU also runs the same code up to twice as
slowly in phases of 0.2 s to tens of seconds, so a repetition is scaled by
a fixed reference kernel timed next to it, unless its job runs only once:
a job's time is the median of ``cpu * REF_NOMINAL_S / reference``.  Raw CPU
times, the metrics computed from them alone, and wall time are kept in the
result file.  See NOTES.md for what each workload stresses and which numbers
a change should move.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: jobs run one at a time on
# a 2-core machine and the CPU clock should count one thread's work.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Every job runs its base number of repetitions when --seconds is
# BASE_SECONDS, and proportionally more or fewer otherwise (at least one).
BASE_SECONDS = 12.0
SETUP_SAMPLES = 3        # fresh processes timed to readiness (this one included)
COLD_SAMPLES = 13        # cold-start probes spread over the run
IMPORT_SAMPLES = 3       # `python -X importtime` probes in a traced run
TAIL_BEYOND = 10         # samples beyond the reported tail percentile
REF_NOMINAL_S = 0.015    # reference-kernel CPU time that times are scaled to
# A repetition is scaled by the reference just before it, or, if it took
# LONG_JOB_S or more or ran in a child process, by the mean of the references
# before and after it.  A job that runs once per base run (the longest, 2 to
# 3 s) is not scaled: it spans the machine's speed phases itself, two 15 ms
# readings would set its reported time, and over seeds its raw time spread
# less than its scaled one (results/steadiness.md).
LONG_JOB_S = 0.3
TRACE_ORDERS = ((False, True), (True, False))   # untraced/traced pairs per job


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class JobRecord:
    """A job's repetitions: raw CPU seconds, the speed factor of each
    (REF_NOMINAL_S / reference time, or 1.0 if unscaled), and the check
    outcomes."""

    def __init__(self, job):
        self.job = job
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.outcomes: list = []

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def time(self) -> float:
        """Median over repetitions of the speed-scaled time."""
        return statistics.median(t * f for t, f in zip(self.times, self.speeds))

    @property
    def raw_time(self) -> float:
        """Median over repetitions of the raw CPU time."""
        return statistics.median(self.times)

    @property
    def stages(self) -> int:
        return self.outcomes[0].stages if self.ok else 0

    @property
    def entries(self) -> int:
        return self.outcomes[0].entries if self.ok else 0


_REF_DOC = json.dumps({"v": [[i * 1.1, -i / 3.0] for i in range(10000)]})


def reference_kernel() -> float:
    """CPU seconds of fixed work shaped like admseq's: a JSON parse, dense
    complex outer products and a Python float loop.  It reads how fast the
    machine runs at the moment, not how fast admseq is."""
    c0 = time.process_time()
    json.loads(_REF_DOC)
    v = np.ones(200, dtype=complex)
    acc = np.zeros((200, 200), dtype=complex)
    for _ in range(10):
        acc += 0.5 * np.outer(v, v.conj())
    x = 0.0
    for k in range(7000):
        x += (k % 7) * 0.5
    return time.process_time() - c0


def _scaled(measure) -> tuple[float, float]:
    """Run ``measure()`` between two reference kernels; return its value
    scaled by REF_NOMINAL_S / (their mean time), and the raw value."""
    before = reference_kernel()
    value = measure()
    return value * 2 * REF_NOMINAL_S / (before + reference_kernel()), value


def run_once(job, tracer, traced: bool):
    """One timed repetition of a job, then its untimed, untraced check."""
    if job.prepare is not None:
        job.prepare()
    gc.collect()  # each repetition starts without the previous one's garbage
    tracer.enabled = traced
    c0, k0 = time.process_time(), _children_cpu()
    err = result = None
    try:
        result = job.run()
    except Exception as exc:  # a failing job is recorded, never fatal
        err = exc
    cpu = (_children_cpu() - k0) if job.child else (time.process_time() - c0)
    tracer.enabled = False
    try:
        outcome = job.check(result, err)
    except Exception as exc:
        outcome = workloads.Outcome(False, reason=f"check raised {type(exc).__name__}: {exc}")
    if traced:
        tracer.counters["cli.bytes_read"] += outcome.bytes_read
        tracer.counters["cli.bytes_written"] += outcome.bytes_written
    return cpu, outcome


def schedule(jobs, seconds: float) -> list[int]:
    """Job indices in run order.  Repetition k of job j (of R_j) is placed at
    (k + (j + 1/2) / n) / R_j of the run, so each job's repetitions are spread
    evenly over the run and the single runs of the longest jobs do not bunch."""
    n = len(jobs)
    reps = [max(1, round(job.reps * seconds / BASE_SECONDS)) for job in jobs]
    slots = [((k + (j + 0.5) / n) / r, j) for j, r in enumerate(reps) for k in range(r)]
    return [j for _, j in sorted(slots)]


def tail_index(n: int) -> int:
    """Index of the highest percentile with TAIL_BEYOND samples above it."""
    return max(n - TAIL_BEYOND - 1, 0)


def growth_exponent(records, time) -> float:
    """Median over fully successful ladders of the least-squares log-log
    slope of job time against stage count."""
    ladders: dict = {}
    for rec in records:
        if rec.job.ladder is not None:
            key, S = rec.job.ladder
            ladders.setdefault(key, {})[S] = rec
    slopes = []
    for lad in ladders.values():
        if len(lad) < 2 or not all(rec.ok for rec in lad.values()):
            continue
        xs = [math.log(S) for S in sorted(lad)]
        ys = [math.log(time(lad[S])) for S in sorted(lad)]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slopes.append(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                      / sum((x - mx) ** 2 for x in xs))
    return statistics.median(slopes) if slopes else math.nan


def _rate(records, unit: str, time) -> float:
    """Units per second over the jobs that produce that unit; a failed job
    adds its time and no units."""
    jobs = [rec for rec in records if unit in rec.job.produces]
    return sum(getattr(rec, unit) for rec in jobs) / sum(time(rec) for rec in jobs)


def end_to_end(records, setup_samples, cold_samples, time=lambda rec: rec.time):
    """End-to-end metrics; ``time`` gives a record's job time (speed-scaled
    by default; the raw CPU variant goes to the result file)."""
    samples = sorted(time(rec) if rec.ok else math.inf for rec in records)
    busy = sum(time(rec) for rec in records)
    attempted = sum(len(rec.outcomes) for rec in records)
    failed = sum(not o.ok for rec in records for o in rec.outcomes)
    ti = tail_index(len(samples))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "job_ms_p50": (1e3 * statistics.median(samples), "ms"),
        "job_ms_tail": (1e3 * samples[ti], "ms"),
        "fail_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "stages_per_s": (_rate(records, "stages", time), "1/s"),
        "stage_growth_exp": (growth_exponent(records, time), "exponent"),
        "entries_per_s": (_rate(records, "entries", time), "1/s"),
        "cli_cold_start_ms": (1e3 * statistics.median(cold_samples), "ms"),
    }
    detail = {
        "job_ms_tail_percentile": 100.0 * (ti + 1) / len(samples),
        "job_samples": len(samples),
        "busy_s": busy,
    }
    return metrics, attempted, failed, detail


def import_times():
    """Cumulative import time of numpy and admseq from `python -X importtime`."""
    env = workloads.child_env(ROOT)
    numpy_s, admseq_s = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import admseq"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        cum = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if m and m.group(3) in ("numpy", "admseq") and m.group(3) not in cum:
                cum[m.group(3)] = int(m.group(1)) / 1e6
        numpy_s.append(cum.get("numpy", 0.0))
        admseq_s.append(cum.get("admseq", 0.0))
    return statistics.median(numpy_s), statistics.median(admseq_s)


def setup_probe(args) -> float:
    """CPU seconds a fresh process needs to reach its first timed job;
    raises RuntimeError when the probe fails."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def cold_probe(wl) -> float:
    """CPU seconds of one cold start; raises RuntimeError when it fails."""
    k0 = _children_cpu()
    code, out = workloads.run_cold_start(ROOT, wl.cold)
    cpu = _children_cpu() - k0
    if code != 0 or not json.loads(out)["satisfied"]:
        raise RuntimeError(f"cold start exited {code}")
    return cpu


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "admseq" / "__init__.py").is_file():
        print(f"error: admseq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import admseq
    import admseq.cli  # noqa: F401  (the tracer wraps cli.main)

    if Path(admseq.__file__).resolve().parent != SRC / "admseq":
        print(f"error: imported admseq from {admseq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, admseq, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed(job, tracer, traced: bool):
    """One repetition and its speed factor (see LONG_JOB_S)."""
    before = reference_kernel()
    cpu, outcome = run_once(job, tracer, traced)
    if job.reps == 1 and not job.child:
        speed = 1.0
    elif cpu >= LONG_JOB_S or job.child:
        speed = 2 * REF_NOMINAL_S / (before + reference_kernel())
    else:
        speed = REF_NOMINAL_S / before
    return cpu, speed, outcome


def _run(args, admseq, workdir) -> int:
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(admseq, args.seed, workdir, ROOT)
    tracer = Tracer()
    warm = wl.setup()
    run_once(warm, tracer, traced=False)
    setup_s = time.process_time()
    gc.freeze()  # the inputs live all run; keep them out of every collection
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    jobs = wl.jobs()
    records = [JobRecord(job) for job in jobs]
    probe_errors = []
    t0 = time.perf_counter()
    if args.trace:
        # Each job runs in untraced/traced pairs, in both orders, so that a
        # drift in machine speed cancels from the paired difference.
        tracer.install()
        busy = 0.0
        overhead = []
        traced_reps = 0
        for i, job in enumerate(jobs):
            diffs = []
            for order in TRACE_ORDERS:
                scaled = {}
                for traced in order:
                    tracer.job = traced_reps
                    cpu, speed, outcome = _timed(job, tracer, traced)
                    if traced:
                        traced_reps += 1
                        busy += cpu
                    scaled[traced] = cpu * speed
                    records[i].times.append(cpu)
                    records[i].speeds.append(speed)
                    records[i].outcomes.append(outcome)
                diffs.append(scaled[True] - scaled[False])
            overhead.append(statistics.median(diffs))
        tracer.uninstall()
    else:
        order = schedule(jobs, args.seconds)
        probes = {round(k * len(order) / COLD_SAMPLES): k for k in range(COLD_SAMPLES)}
        setup_raw = [setup_s]
        setup_samples = [setup_s * REF_NOMINAL_S / reference_kernel()]
        cold, cold_raw = [], []
        for step, i in enumerate(order):
            if step in probes:
                try:
                    scaled, raw = _scaled(lambda: cold_probe(wl))
                    cold.append(scaled)
                    cold_raw.append(raw)
                    if probes[step] < SETUP_SAMPLES - 1:
                        scaled, raw = _scaled(lambda: setup_probe(args))
                        setup_samples.append(scaled)
                        setup_raw.append(raw)
                except Exception as exc:  # a failed probe is reported, never fatal
                    probe_errors.append(f"probe: {exc}")
            cpu, speed, outcome = _timed(jobs[i], tracer, False)
            records[i].times.append(cpu)
            records[i].speeds.append(speed)
            records[i].outcomes.append(outcome)
    wall = time.perf_counter() - t0
    if args.trace:
        try:
            import_s = import_times()
        except Exception as exc:  # reported like a failed probe, never fatal
            import_s = (0.0, 0.0)
            probe_errors.append(f"importtime probe: {exc}")

    failures = [(rec.job, o) for rec in records for o in rec.outcomes if not o.ok]
    unexpected, seen = set(), {}
    for job, o in failures:
        line = f"{job.name}: {o.reason}"
        if workloads.known_failure(job.defect, o.reason):
            seen.setdefault(job.defect, set()).add(line)
        else:
            unexpected.add(line)
    unexpected = sorted(unexpected) + probe_errors
    detail = {
        "workload": args.workload, "seed": args.seed, "wall_s": wall,
        "unexpected_failures": unexpected[:20],
        "known_defects_seen": {d: sorted(r)[:6] for d, r in sorted(seen.items())},
        "known_defect_jobs_passing": [rec.job.name for rec in records
                                      if rec.job.defect is not None and rec.ok],
        "jobs": {rec.job.name: {
            "ok": rec.ok, "stages": rec.stages, "entries": rec.entries,
            "cpu_ms": [round(1e3 * t, 3) for t in rec.times],
            "speed": [round(f, 4) for f in rec.speeds]} for rec in records},
    }
    if args.trace:
        layer = tracer.summary(busy)
        layer["trace.overhead_s"] = sum(overhead)
        layer["import.numpy_s"], layer["import.admseq_s"] = import_s
        metrics = {k: (v, _layer_unit(k)) for k, v in layer.items()}
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["traced_repetitions"] = traced_reps
        detail["self_plus_unattributed_s"] = (
            sum(v for k, v in layer.items() if k.endswith(".self_s"))
            + layer["trace.unattributed_s"])
        attempted, failed = sum(len(r.outcomes) for r in records), len(failures)
    else:
        for rec in records:
            if rec.job.child:
                for t, f, o in zip(rec.times, rec.speeds, rec.outcomes):
                    if o.ok:
                        cold.append(t * f)
                        cold_raw.append(t)
        cold = cold or [math.inf]
        metrics, attempted, failed, more = end_to_end(records, setup_samples, cold)
        raw, _, _, _ = end_to_end(records, setup_raw, cold_raw or [math.inf],
                                  time=lambda rec: rec.raw_time)
        detail.update(more)
        detail["raw_cpu_metrics"] = {k: v for k, (v, _) in raw.items()}
        detail["setup_samples_s"] = setup_samples
        detail["cold_samples_ms"] = [round(1e3 * t, 3) for t in cold]

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _finite(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": {k: v for k, v in detail.items()
                                 if k not in ("jobs", "raw_cpu_metrics")}}))
    print(json.dumps(result))
    return 0


def _finite(v: float) -> float:
    """JSON has no inf/nan: a failed tail reads 1e12, an undefined exponent 0."""
    return v if math.isfinite(v) else (1e12 if v > 0 else 0.0)


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(".share") or name.endswith("local_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
