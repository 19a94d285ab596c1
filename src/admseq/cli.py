"""Command-line front end.

Subcommands read JSON documents (files or ``-`` for stdin) and print a
single JSON report to stdout with sorted keys, so identical inputs yield
byte-identical reports.  Exit codes: 0 when the check or construction
succeeds, 1 when the mathematics refuses (a failed verdict or an
impossible decomposition), 2 for malformed input."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys

from ._np import np
from .bridge import decomp_to_isometry
from .carpenter import DEFAULT_STAGES, carpenter_decompose
from .checkers import sum_of_projections_check
from .errors import (
    DimensionError,
    KadisonError,
    MajorizationError,
    PlanningError,
    SequenceError,
    TraceMismatchError,
)
from .jsonio import write_decomposition, write_json
from .operators import (
    _array_doc,
    _op_doc,
    decomp_from_json,
    decomp_residual,
    op_from_json,
)
from .seqkit import kadison_check, majorizes, seq_from_json
from .streams import VectorStream, stream_from_json

VERIFY_TOL = 1e-8  # largest residual verify accepts, in the operator 2-norm

REFUSALS = (KadisonError, MajorizationError, TraceMismatchError, PlanningError)
PARSE_ERRORS = (
    SequenceError,
    DimensionError,
    json.JSONDecodeError,
    OSError,
    KeyError,
    TypeError,
    ValueError,
    RecursionError,  # a document nested deeper than the interpreter's recursion limit
)


def _load(args, name: str):
    """Read the JSON document at the argument ``name`` and record a digest of
    its raw bytes under that name in ``args.inputs``."""
    path = getattr(args, name)
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    args.inputs[name] = hashlib.sha256(raw).hexdigest()
    return json.loads(raw.decode("utf-8"))


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _report(args, **fields) -> dict:
    """The report of ``args.command``: its seed, the digests of the inputs
    read so far, then ``fields``."""
    rep = {"command": args.command, "seed": args.seed, "inputs": args.inputs}
    rep.update({k: _jsonable(v) for k, v in fields.items()})
    return rep


def _cmd_check_kadison(args) -> int:
    rep = kadison_check(seq_from_json(_load(args, "sequence")), alpha=args.alpha)
    _emit(_report(args, **dataclasses.asdict(rep)))
    return 0 if rep.satisfied else 1


def _cmd_check_majorize(args) -> int:
    xi_obj, eta_obj = _load(args, "xi"), _load(args, "eta")
    xi, eta = seq_from_json(xi_obj), seq_from_json(eta_obj)
    if not (xi.is_finite and eta.is_finite):
        raise SequenceError("majorization compares finite sequences")
    verdict = majorizes(xi, eta)
    _emit(_report(args, **dataclasses.asdict(verdict)))
    return 0 if verdict.holds else 1


def _target_path(out: str) -> str:
    if out.endswith(".json"):
        return out[: -len(".json")] + ".target.json"
    return out + ".target.json"


def _cmd_decompose(args) -> int:
    obj = _load(args, "input")
    xi = seq_from_json(obj["weights"])
    stream = (
        stream_from_json(obj["stream"]) if "stream" in obj else VectorStream.basis()
    )
    decomp, certs, tag = carpenter_decompose(xi, stream, stages=args.stages)
    written = []
    if args.out:
        write_decomposition(args.out, decomp)
        tpath = _target_path(args.out)
        write_json(tpath, _op_doc(decomp.frame_operator(with_remainder=True), np.asarray))
        written = [args.out, tpath]
    _emit(
        _report(
            args,
            ok=True,
            case=dataclasses.asdict(tag),
            dim=decomp.dim,
            num_terms=decomp.n_terms,
            num_remainder=len(decomp.row_weights) - decomp.n_terms,
            stages=len(certs),
            max_stage_residual=max((c.residual for c in certs), default=0.0),
            majorizations_hold=all(c.majorization.holds for c in certs),
            written=written,
        )
    )
    return 0


def _cmd_verify(args) -> int:
    dec_obj, op_obj = _load(args, "decomposition"), _load(args, "operator")
    decomp = decomp_from_json(dec_obj)
    target = op_from_json(op_obj)
    del dec_obj, op_obj  # only their parsed forms are needed past here
    residual = decomp_residual(target, decomp, with_remainder=not args.no_remainder)
    ok = residual <= VERIFY_TOL
    _emit(_report(args, ok=ok, residual=residual, tol=VERIFY_TOL, num_terms=decomp.n_terms,
                  num_remainder=len(decomp.row_weights) - decomp.n_terms))
    return 0 if ok else 1


def _cmd_check_sums(args) -> int:
    a = op_from_json(_load(args, "operator"))
    rep, witness = sum_of_projections_check(a, witness=args.witness)
    fields = dataclasses.asdict(rep)
    if witness is not None:
        fields["witness_residual"] = decomp_residual(a, witness)
        if args.out:
            write_decomposition(args.out, witness)
            fields["written"] = [args.out]
    _emit(_report(args, **fields))
    return 0 if rep.decomposable else 1


def _cmd_bridge(args) -> int:
    decomp = decomp_from_json(_load(args, "decomposition"))  # the document is dropped once parsed
    record = decomp_to_isometry(decomp)
    if args.out:
        doc = {
            name: {"rows": m.shape[0], "cols": m.shape[1], "entries": _array_doc(m, np.asarray)}
            for name, m in (("isometry", record.isometry), ("sqrt_gram", record.sqrt_gram))
        }
        doc.update(kept_indices=list(record.kept_indices), weights=list(record.weights))
        write_json(args.out, doc)
    _emit(_report(args, ok=True, kept_indices=list(record.kept_indices), rank=record.rank,
                  diagonal_deviation=record.diagonal_deviation, written=[args.out] if args.out else []))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admseq",
        description="checks and constructions for weighted rank-one decompositions",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="recorded in reports for reproducibility"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-kadison", help="integrality test for a weight sequence")
    p.add_argument("sequence", help="sequence JSON (path or -)")
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=_cmd_check_kadison)

    p = sub.add_parser("check-majorize", help="majorization test xi against eta")
    p.add_argument("xi", help="finite sequence JSON (path or -)")
    p.add_argument("eta", help="finite sequence JSON (path or -)")
    p.set_defaults(func=_cmd_check_majorize)

    p = sub.add_parser("decompose", help="stage a decomposition of a stream")
    p.add_argument("input", help='JSON with "weights" and optional "stream"')
    p.add_argument("--stages", type=int, default=DEFAULT_STAGES)
    p.add_argument("--out", help="write the decomposition here plus <out>.target.json")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="residual of a decomposition against an operator")
    p.add_argument("decomposition", help="decomposition JSON (path or -)")
    p.add_argument("operator", help="operator JSON (path or -)")
    p.add_argument(
        "--no-remainder",
        action="store_true",
        help="ignore remainder terms when reconstructing",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-sums", help="is the operator a sum of projections?")
    p.add_argument("operator", help="operator JSON (path or -)")
    p.add_argument("--witness", action="store_true", help="construct the projections")
    p.add_argument("--out", help="write the witness decomposition here")
    p.set_defaults(func=_cmd_check_sums)

    p = sub.add_parser("bridge", help="polar isometry of a decomposition's placement")
    p.add_argument("decomposition", help="decomposition JSON (path or -)")
    p.add_argument("--out", help="write the isometry record here")
    p.set_defaults(func=_cmd_bridge)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; parse_args leaves it as it is."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.inputs = {}  # digests of the documents read, by argument name
    try:
        return args.func(args)
    except REFUSALS as exc:
        _emit(_report(args, ok=False, error=str(exc)))
        return 1
    except PARSE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
