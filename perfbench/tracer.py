"""Outside-in span tracer for admseq.

The tracer times calls into admseq's layers without editing the package: it
replaces module attributes (and class attributes, for methods) with timing
wrappers, in every loaded ``admseq`` module that holds the same object, so
calls made through ``from .x import f`` are caught too.  Planner generators
are timed once per ``next()``.

Spans are kept in memory and written as JSON lines when the run ends, one
record per span.  The record is meant to be what an in-package
``admseq decompose --trace`` would emit, so both can be read by one tool:

    {"span": 17, "parent": 12, "job": 3, "name": "horn.mix_two",
     "start_s": 1.234567, "end_s": 1.234890, "error": null,
     "attrs": {"dim": 162}}

``start_s``/``end_s`` read the process CPU clock (``time.process_time``),
the same clock the benchmark times jobs with.  ``error`` names the
exception type when the call raised.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _mix_attrs(args, kwargs, result):
    u = args[2] if len(args) > 2 else kwargs["u"]
    up = args[3] if len(args) > 3 else kwargs["u_prime"]
    return {"dim": len(u) + len(up)}


def _horn_attrs(args, kwargs, result):
    pool = args[0] if args else kwargs["source_terms"]
    return {"pool": len(pool), "dim": len(result.terms[0].vector) if result.terms else 0}


def _frame_attrs(args, kwargs, result):
    terms = args[0] if args else kwargs["terms"]
    return {"terms": len(terms) if hasattr(terms, "__len__") else 0, "dim": result.shape[0]}


def _vector_attrs(args, kwargs, result):
    return {"dim": len(result)}


# span name -> (module, attribute path, kind, attrs(args, kwargs, result))
# kind: "func" for module functions, "method"/"classmethod" for class
# attributes, "planner" for generator functions timed per next().
SPANS = {
    # gate
    "seqkit.WeightSeq.finite": ("seqkit", "WeightSeq.finite", "classmethod", None),
    "seqkit.kadison_check": ("seqkit", "kadison_check", "func", None),
    "seqkit.split_mu_lambda": ("seqkit", "split_mu_lambda", "func", None),
    "seqkit.strip_zeros_ones": ("seqkit", "strip_zeros_ones", "func", None),
    "seqkit.WeightSeq.tail_sum": ("seqkit", "WeightSeq.tail_sum", "method", None),
    "seqkit.majorizes": ("seqkit", "majorizes", "func", None),
    "carpenter.classify_case": ("carpenter", "classify_case", "func", None),
    # planners: one span per next() of any of the three
    "carpenter.plan": ("carpenter", ("plan_mu_diverges", "plan_lambda_diverges",
                                     "plan_both_summable"), "planner", None),
    # placement
    "horn.horn_decompose": ("horn", "horn_decompose", "func", _horn_attrs),
    "horn.mix_two": ("horn", "mix_two", "func", _mix_attrs),
    # verification
    "operators.frame_operator": ("operators", "frame_operator", "func", _frame_attrs),
    "carpenter.realize_block_plans": ("carpenter", "realize_block_plans", "func", None),
    "carpenter.keycase_recursion": ("carpenter", "keycase_recursion", "func", None),
    # streams
    "streams.VectorStream.vector": ("streams", "VectorStream.vector", "method", _vector_attrs),
    # output
    "cli.main": ("cli", "main", "func", None),
    "seqkit.seq_from_json": ("seqkit", "seq_from_json", "func", None),
    "operators.decomp_to_json": ("operators", "decomp_to_json", "func", None),
    "operators.op_to_json": ("operators", "op_to_json", "func", None),
    "operators.decomp_from_json": ("operators", "decomp_from_json", "func", None),
    "operators.op_from_json": ("operators", "op_from_json", "func", None),
    "operators.decomp_residual": ("operators", "decomp_residual", "func", None),
    "bridge.decomp_to_isometry": ("bridge", "decomp_to_isometry", "func", None),
    # root
    "carpenter.carpenter_decompose": ("carpenter", "carpenter_decompose", "func", None),
}


class _TracedPlan:
    """Iterator proxy that opens one span per next() of a planner."""

    def __init__(self, tracer, name, gen, planner):
        self._tracer = tracer
        self._name = name
        self._gen = gen
        self._planner = planner

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._tracer._open(self._name)
        try:
            plan = next(self._gen)
        except StopIteration:
            self._tracer._close(rec, None)
            raise
        except BaseException as exc:
            self._tracer._close(rec, type(exc).__name__)
            raise
        self._tracer._close(rec, None)
        rec[7] = {"planner": self._planner, "targets": len(plan.targets)}
        return plan


class Tracer:
    """Collects spans while ``enabled``; ``install`` patches admseq."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.records: list[list] = []   # [span, parent, job, name, start, end, error, attrs]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.records), parent, self.job, name, 0.0, 0.0, None, None]
        self.records.append(rec)
        self._stack.append(rec)
        rec[4] = time.process_time()
        return rec

    def _close(self, rec, error):
        rec[5] = time.process_time()
        rec[6] = error
        self._stack.pop()

    # -- patching -------------------------------------------------------

    def _wrap(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(rec, type(exc).__name__)
                raise
            tracer._close(rec, None)
            if attrs is not None:
                rec[7] = attrs(args, kwargs, result)
            return result

        return traced

    def _wrap_planner(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return _TracedPlan(tracer, name, gen, fn.__name__) if tracer.enabled else gen

        return traced

    def _replace_everywhere(self, original, replacement):
        """Rebind every admseq module global that is ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "admseq" or modname.startswith("admseq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._patches.append((mod, key, original))

    def install(self) -> None:
        """Wrap every span target; admseq must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (modname, attr, kind, attrs) in SPANS.items():
            mod = sys.modules[f"admseq.{modname}"]
            if kind == "func":
                fn = getattr(mod, attr)
                self._replace_everywhere(fn, self._wrap(name, fn, attrs))
            elif kind == "planner":
                for a in attr:
                    fn = getattr(mod, a)
                    self._replace_everywhere(fn, self._wrap_planner(name, fn))
            else:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if kind == "classmethod":
                    new = classmethod(self._wrap(name, raw.__func__, attrs))
                else:
                    new = self._wrap(name, raw, attrs)
                setattr(cls, meth, new)
                self._patches.append((cls, meth, raw))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def summary(self, busy_s: float) -> dict:
        """Per-span calls/self time/share/errors plus the computed metrics.

        ``busy_s`` is the summed job time of the traced passes; what the
        spans do not cover is reported as ``trace.unattributed_s``."""
        child = defaultdict(float)
        for rec in self.records:
            if rec[1] is not None:
                child[rec[1]] += rec[5] - rec[4]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        errors = defaultdict(int)
        attr_sum = defaultdict(float)
        roots = 0.0
        for rec in self.records:
            dur = rec[5] - rec[4]
            name = rec[3]
            calls[name] += 1
            self_s[name] += dur - child[rec[0]]
            if rec[6] is not None:
                errors[name] += 1
            if rec[1] is None:
                roots += dur
            if rec[7]:
                for k, v in rec[7].items():
                    if isinstance(v, (int, float)):
                        attr_sum[(name, k)] += v
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.share"] = self_s[name] / busy_s if busy_s > 0 else 0.0
            out[f"{name}.errors"] = errors[name]
        out["horn.mix_two.dim_sum"] = attr_sum[("horn.mix_two", "dim")]
        dims = attr_sum[("horn.horn_decompose", "dim")]
        out["horn.horn_decompose.local_ratio"] = (
            attr_sum[("horn.horn_decompose", "pool")] / dims if dims else 0.0
        )
        frame_bytes = 0.0
        for rec in self.records:
            if rec[3] == "operators.frame_operator" and rec[7]:
                frame_bytes += rec[7]["terms"] * rec[7]["dim"] ** 2 * 16
        out["operators.frame_operator.computed_mb"] = frame_bytes / 1e6
        out["streams.VectorStream.vector.dim_sum"] = attr_sum[("streams.VectorStream.vector", "dim")]
        out["cli.bytes_read_mb"] = self.counters["cli.bytes_read"] / 1e6
        out["cli.bytes_written_mb"] = self.counters["cli.bytes_written"] / 1e6
        out["trace.busy_s"] = busy_s
        out["trace.unattributed_s"] = busy_s - roots
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent, job, name, start, end, error, attrs in self.records:
                fh.write(json.dumps({
                    "span": span, "parent": parent, "job": job, "name": name,
                    "start_s": start, "end_s": end, "error": error, "attrs": attrs or {},
                }) + "\n")
