"""End-to-end checks of the command line interface.

Every command is exercised in-process through ``main(argv)`` so the exit
codes and report payloads are asserted directly, without spawning shells.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from admseq.carpenter import DEFAULT_STAGES, CaseTag
from admseq.checkers import SumOfProjReport
from admseq.cli import build_parser, main
from admseq.seqkit import KadisonReport, MajorizationVerdict


def run(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else {}


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


PERIODIC = {"kind": "periodic-tail", "values": [0.4, 0.9], "tail_block": [0.4, 0.9]}


class TestCheckKadison:
    def test_satisfied(self, tmp_path, capsys):
        p = write_json(tmp_path / "seq.json", {"kind": "finite", "values": [0.5, 0.5]})
        code, rep = run(capsys, "check-kadison", p)
        assert code == 0
        assert rep["satisfied"] is True
        assert rep["a"] == 1.0
        assert rep["b"] == 0.0
        assert rep["integer_gap"] == 1
        assert rep["alpha"] == 0.5
        assert rep["command"] == "check-kadison"
        assert rep["seed"] == 0

    def test_violated_exits_one(self, tmp_path, capsys):
        p = write_json(tmp_path / "seq.json", {"kind": "finite", "values": [0.5, 0.5, 0.25]})
        code, rep = run(capsys, "check-kadison", p)
        assert code == 1
        assert rep["satisfied"] is False
        assert rep["integer_gap"] is None

    def test_divergent_reported_as_inf(self, tmp_path, capsys):
        p = write_json(tmp_path / "seq.json", PERIODIC)
        code, rep = run(capsys, "check-kadison", p)
        assert code == 0
        assert rep["a"] == "inf"
        assert rep["b"] == "inf"

    def test_alpha_option(self, tmp_path, capsys):
        p = write_json(tmp_path / "seq.json", {"kind": "finite", "values": [0.6, 0.4]})
        code, rep = run(capsys, "check-kadison", p, "--alpha", "0.7")
        assert code == 0
        assert rep["alpha"] == 0.7
        assert rep["a"] == pytest.approx(1.0)

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        import io

        raw = io.BytesIO(b'{"kind": "finite", "values": [1.0, 1.0]}')
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw))
        code, rep = run(capsys, "check-kadison", "-")
        assert code == 0
        assert rep["a"] == 0.0
        assert rep["b"] == 0.0

    def test_garbage_input_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("not json at all")
        code = main(["check-kadison", str(p)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["check-kadison", str(tmp_path / "nope.json")])
        assert code == 2

    def test_bad_entries_exit_two(self, tmp_path, capsys):
        p = write_json(tmp_path / "seq.json", {"kind": "finite", "values": [1.5]})
        assert main(["check-kadison", str(p)]) == 2

    @pytest.mark.parametrize("doc, field, got", [
        ({"kind": "finite", "values": "01"}, "values", "str"),
        ({"kind": "periodic-tail", "values": [], "tail_block": {"0.5": 1}}, "tail_block", "dict"),
        ({"kind": "interleave", "parts": {}}, "parts", "dict"),
    ], ids=["values", "tail_block", "parts"])
    def test_a_field_that_is_not_a_list_exits_two(self, tmp_path, capsys, doc, field, got):
        p = write_json(tmp_path / "seq.json", doc)
        assert main(["check-kadison", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sequence JSON field {field!r} must be a list, got {got}\n"

    def test_nesting_beyond_the_recursion_limit_exits_two(self, tmp_path, capsys):
        depth = 5000
        p = tmp_path / "deep.json"
        p.write_text('{"kind": "one-minus", "of": ' * depth
                     + '{"kind": "finite", "values": [0.5]}' + "}" * depth)
        assert main(["check-kadison", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: maximum recursion depth exceeded")


class TestCheckMajorize:
    def test_holds(self, tmp_path, capsys):
        xi = write_json(tmp_path / "xi.json", {"kind": "finite", "values": [0.7, 0.3]})
        eta = write_json(tmp_path / "eta.json", {"kind": "finite", "values": [1.0]})
        code, rep = run(capsys, "check-majorize", xi, eta)
        assert code == 0
        assert rep["holds"] is True
        assert rep["failing_index"] is None
        assert rep["sum_gap"] == 0.0

    def test_fails_with_index(self, tmp_path, capsys):
        xi = write_json(tmp_path / "xi.json", {"kind": "finite", "values": [0.9, 0.1]})
        eta = write_json(tmp_path / "eta.json", {"kind": "finite", "values": [0.5, 0.5]})
        code, rep = run(capsys, "check-majorize", xi, eta)
        assert code == 1
        assert rep["holds"] is False
        assert rep["failing_index"] == 1

    def test_infinite_kind_refused(self, tmp_path, capsys):
        xi = write_json(tmp_path / "xi.json", PERIODIC)
        eta = write_json(tmp_path / "eta.json", {"kind": "finite", "values": [1.0]})
        assert main(["check-majorize", xi, eta]) == 2

    @pytest.mark.parametrize("n", [2, 128])
    @pytest.mark.parametrize("side", ["xi", "eta"])
    def test_overflowing_sum_exits_two_naming_the_side(self, tmp_path, capsys, n, side):
        files = {"xi": [0.5] * n, "eta": [1.0] * n}
        files[side] = [1e308] * n
        xi, eta = (write_json(tmp_path / f"{k}.json", {"kind": "finite", "values": v})
                   for k, v in files.items())
        assert main(["check-majorize", xi, eta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the entries of {side} sum beyond the float64 range\n"


class TestDecompose:
    def test_mu_divergent_pipeline(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", {"weights": PERIODIC})
        out = tmp_path / "dec.json"
        code, rep = run(capsys, "decompose", inp, "--stages", "6", "--out", str(out))
        assert code == 0
        assert rep["ok"] is True
        assert rep["case"]["tag"] == "mu-divergent"
        assert rep["case"]["M"] == "inf"
        assert rep["case"]["N"] == "inf"
        assert rep["majorizations_hold"] is True
        assert rep["max_stage_residual"] <= 1e-10
        assert rep["stages"] == 6
        assert rep["written"] == [str(out), str(tmp_path / "dec.target.json")]
        assert out.exists()
        assert (tmp_path / "dec.target.json").exists()

        # the written pair verifies against each other
        code, vrep = run(
            capsys, "verify", str(out), str(tmp_path / "dec.target.json")
        )
        assert code == 0
        assert vrep["ok"] is True
        assert vrep["residual"] <= 1e-10
        assert vrep["num_terms"] == rep["num_terms"]
        assert vrep["num_remainder"] == rep["num_remainder"]

    def test_an_out_path_without_a_json_suffix(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", {"weights": PERIODIC})
        out = tmp_path / "dec"
        code, rep = run(capsys, "decompose", inp, "--stages", "2", "--out", str(out))
        assert code == 0
        assert rep["written"] == [str(out), str(tmp_path / "dec.target.json")]
        code, _ = run(capsys, "verify", str(out), str(tmp_path / "dec.target.json"))
        assert code == 0

    def test_ones_on_block_overlap_stream(self, tmp_path, capsys):
        weights = {"kind": "periodic-tail", "values": [], "tail_block": [1.0, 0.4, 0.9]}
        inp = write_json(
            tmp_path / "in.json",
            {"weights": weights, "stream": {"kind": "block-overlap", "block": 3}},
        )
        out = tmp_path / "dec.json"
        code, rep = run(capsys, "decompose", inp, "--stages", "4", "--out", str(out))
        assert code == 0
        assert rep["case"]["tag"] == "mu-divergent"
        dec = json.loads(out.read_text())
        assert [t["weight"] for t in dec["terms"]].count(1.0) == 4
        code, vrep = run(
            capsys, "verify", str(out), str(tmp_path / "dec.target.json")
        )
        assert code == 0
        assert vrep["ok"] is True

    def test_finite_rank_explicit_stream(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "in.json",
            {
                "weights": {"kind": "finite", "values": [0.5, 0.5, 0.5, 0.5]},
                "stream": {
                    "kind": "explicit",
                    "vectors": [
                        [[1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [1.0, 0.0]],
                    ],
                },
            },
        )
        code, rep = run(capsys, "decompose", inp)
        assert code == 0
        assert rep["case"]["tag"] == "finite-rank"
        assert rep["case"]["k"] == -2
        assert rep["num_terms"] == 4
        assert rep["num_remainder"] == 0

    def test_finite_rank_needs_matching_stream(self, tmp_path, capsys):
        # trace 2 against the default infinite basis is a refusal
        inp = write_json(
            tmp_path / "in.json",
            {"weights": {"kind": "finite", "values": [0.5, 0.5, 0.5, 0.5]}},
        )
        code, rep = run(capsys, "decompose", inp)
        assert code == 1
        assert rep["ok"] is False

    def test_interleaved_mu_finite_input_decomposes(self, tmp_path, capsys):
        weights = {"kind": "one-minus", "of": {"kind": "interleave", "parts": [
            {"kind": "geometric-tail", "values": [], "tail_first": 0.25, "tail_ratio": 0.5},
            {"kind": "geometric-tail", "values": [], "tail_first": 0.125, "tail_ratio": 0.75},
        ]}}
        inp = write_json(tmp_path / "in.json", {"weights": weights})
        code, rep = run(capsys, "decompose", inp, "--stages", "10")
        assert code == 0
        assert rep["ok"] is True
        assert rep["case"]["tag"] == "mu-finite"
        assert rep["max_stage_residual"] <= 1e-13

    def test_refusal_reports_error_and_exits_one(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "in.json",
            {
                "weights": {
                    "kind": "geometric-tail",
                    "values": [],
                    "tail_first": 0.3,
                    "tail_ratio": 0.5,
                }
            },
        )
        code, rep = run(capsys, "decompose", inp)
        assert code == 1
        assert rep["ok"] is False
        assert "integrality" in rep["error"]

    @pytest.mark.parametrize("block", [2.5, True])
    def test_non_integer_block_exits_two(self, tmp_path, capsys, block):
        inp = write_json(
            tmp_path / "in.json",
            {"weights": PERIODIC, "stream": {"kind": "block-overlap", "block": block}},
        )
        assert main(["decompose", inp]) == 2
        assert "block size must be a positive integer" in capsys.readouterr().err

    def test_missing_weights_key_exits_two(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", {"wrong": []})
        assert main(["decompose", inp]) == 2


class TestVerify:
    def test_mismatch_exits_one(self, tmp_path, capsys):
        dec = write_json(
            tmp_path / "dec.json",
            {"terms": [{"weight": 1.0, "vector": [[1.0, 0.0], [0.0, 0.0]]}]},
        )
        op = write_json(tmp_path / "op.json", {"diag": [1.0, 1.0]})
        code, rep = run(capsys, "verify", dec, op)
        assert code == 1
        assert rep["ok"] is False
        assert rep["residual"] == pytest.approx(1.0)

    def test_no_remainder_flag(self, tmp_path, capsys):
        dec = write_json(
            tmp_path / "dec.json",
            {
                "terms": [{"weight": 1.0, "vector": [[1.0, 0.0], [0.0, 0.0]]}],
                "remainder_terms": [
                    {"weight": 1.0, "vector": [[0.0, 0.0], [1.0, 0.0]]}
                ],
            },
        )
        full = write_json(tmp_path / "full.json", {"diag": [1.0, 1.0]})
        part = write_json(tmp_path / "part.json", {"diag": [1.0, 0.0]})
        assert main(["verify", dec, full]) == 0
        assert main(["verify", dec, part, "--no-remainder"]) == 0
        assert main(["verify", dec, part]) == 1


class TestCheckSums:
    def test_decomposable_with_witness(self, tmp_path, capsys):
        op = write_json(tmp_path / "op.json", {"diag": [2.0, 1.0, 1.0]})
        out = tmp_path / "wit.json"
        code, rep = run(capsys, "check-sums", op, "--witness", "--out", str(out))
        assert code == 0
        assert rep["decomposable"] is True
        assert rep["num_projections"] == 4
        assert rep["trace"] == 4.0
        assert rep["rank"] == 3
        assert rep["excess"] == pytest.approx(1.0)
        assert rep["deficiency"] == pytest.approx(0.0)
        assert rep["witness_residual"] <= 1e-8
        assert rep["written"] == [str(out)]

        payload = json.loads(out.read_text())
        assert all(t["weight"] == 1.0 for t in payload["terms"])

    def test_not_decomposable(self, tmp_path, capsys):
        op = write_json(tmp_path / "op.json", {"diag": [0.5, 0.5]})
        code, rep = run(capsys, "check-sums", op)
        assert code == 1
        assert rep["decomposable"] is False
        assert rep["reason"] == "trace falls below the rank"

    def test_non_integer_trace(self, tmp_path, capsys):
        op = write_json(tmp_path / "op.json", {"diag": [1.5]})
        code, rep = run(capsys, "check-sums", op)
        assert code == 1
        assert rep["reason"] == "trace is not an integer"

    @pytest.mark.parametrize("doc", [{"dim": 0, "entries": []}, {"diag": []}], ids=["dim-0", "diag"])
    def test_zero_operator_is_the_empty_sum(self, tmp_path, capsys, doc):
        op = write_json(tmp_path / "op.json", doc)
        out = tmp_path / "wit.json"
        code = main(["check-sums", op, "--witness", "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        rep = json.loads(captured.out)
        assert rep["decomposable"] is True and rep["reason"] is None
        assert (rep["num_projections"], rep["trace"], rep["rank"]) == (0, 0.0, 0)
        assert rep["witness_residual"] == 0.0
        assert json.loads(out.read_text()) == {"terms": []}

    def test_witness_refusal_reports_its_seed_and_inputs(self, tmp_path, capsys):
        # the trace is an integer within INT_TOL, but the witness placement
        # tests its majorization closer: a refusal, reported like any other
        op = write_json(tmp_path / "op.json", {"diag": [1.0000000005, 1.0]})
        digest = hashlib.sha256((tmp_path / "op.json").read_bytes()).hexdigest()
        assert run(capsys, "check-sums", op)[1]["decomposable"] is True
        code, rep = run(capsys, "--seed", "7", "check-sums", op, "--witness")
        assert code == 1
        assert rep == {"command": "check-sums", "seed": 7, "inputs": {"operator": digest}, "ok": False,
                       "error": "source weights do not majorize the targets (totals differ by -5.000e-10)"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("diag", [["inf"], ["nan"], ["inf", 1.0]], ids=["inf", "nan", "inf-1"])
    def test_non_finite_entries_exit_two(self, tmp_path, capsys, diag):
        # refused before M - M* is formed, where inf - inf would warn
        op = write_json(tmp_path / "op.json", {"diag": diag})
        assert main(["check-sums", op, "--witness"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix entries must be finite\n"

    def test_non_hermitian_exits_two(self, tmp_path, capsys):
        op = write_json(
            tmp_path / "op.json",
            {"dim": 2, "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]},
        )
        assert main(["check-sums", op]) == 2


class TestBridge:
    def test_roundtrip_record(self, tmp_path, capsys):
        dec = write_json(
            tmp_path / "dec.json",
            {
                "terms": [
                    {"weight": 0.5, "vector": [[1.0, 0.0], [0.0, 0.0]]},
                    {"weight": 0.5, "vector": [[0.0, 0.0], [1.0, 0.0]]},
                    {"weight": 0.5, "vector": [[0.70710678118654752, 0.0], [0.70710678118654752, 0.0]]},
                    {"weight": 0.5, "vector": [[0.70710678118654752, 0.0], [-0.70710678118654752, 0.0]]},
                ]
            },
        )
        out = tmp_path / "br.json"
        code, rep = run(capsys, "bridge", dec, "--out", str(out))
        assert code == 0
        assert rep["kept_indices"] == [0, 1, 2, 3]
        assert rep["rank"] == 2
        assert rep["diagonal_deviation"] <= 1e-10

        payload = json.loads(out.read_text())
        iso = payload["isometry"]
        assert iso["rows"] == 4 and iso["cols"] == 2
        entries = iso["entries"]  # sparse: the non-zero pairs and their indices
        v = np.zeros(entries["size"], dtype=complex)
        v[entries["indices"]] = [complex(re, im) for re, im in entries["values"]]
        v = v.reshape(4, 2)
        diag = np.diag(v @ v.conj().T).real
        assert np.allclose(diag, [0.5, 0.5, 0.5, 0.5])
        assert payload["weights"] == [0.5, 0.5, 0.5, 0.5]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_weight_exits_two(self, tmp_path, capsys):
        dec = write_json(tmp_path / "dec.json",
                         {"terms": [{"weight": "inf", "vector": [[1.0, 0.0]]}]})
        assert main(["bridge", dec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: term weight must be finite, got inf\n"

    def test_rank_is_the_isometry_rank(self, tmp_path, capsys):
        # two terms along one vector: the Gram's zero eigenvalue rounds to
        # about 1e-17, whose square root in sqrt_gram is about 4e-9
        v = [[0.25, 0.0], [0.9682458365518543, 0.0]]
        dec = write_json(tmp_path / "dec.json",
                         {"terms": [{"weight": 0.5, "vector": v}, {"weight": 0.25, "vector": v}]})
        out = tmp_path / "br.json"
        code, rep = run(capsys, "bridge", dec, "--out", str(out))
        assert code == 0
        assert rep["rank"] == 1
        entries = json.loads(out.read_text())["isometry"]["entries"]
        iso = np.zeros(entries["size"], dtype=complex)
        iso[entries["indices"]] = [complex(re, im) for re, im in entries["values"]]
        assert np.linalg.matrix_rank(iso.reshape(2, 2)) == 1

    def test_block_record_lists_its_signal_only(self, tmp_path, capsys):
        # 20 lambda-divergent stages on the block-4 stream: the polar pieces'
        # exact zeros are written as zeros, so few pairs are listed
        inp = write_json(tmp_path / "in.json", {
            "weights": {"kind": "periodic-tail", "values": [0.6, 0.5], "tail_block": [0.75]},
            "stream": {"kind": "block-overlap", "block": 4},
        })
        dec, out = tmp_path / "dec.json", tmp_path / "br.json"
        assert main(["decompose", inp, "--stages", "20", "--out", str(dec)]) == 0
        capsys.readouterr()
        code, rep = run(capsys, "bridge", str(dec), "--out", str(out))
        assert code == 0 and rep["diagonal_deviation"] <= 1e-8
        payload = json.loads(out.read_text())
        for name in ("isometry", "sqrt_gram"):
            entries = payload[name]["entries"]
            assert len(entries["indices"]) <= 0.1 * entries["size"]


# the option strings of each subcommand; no tolerance or limit is a flag
NAN_TERMS = {"terms": [{"weight": "nan", "vector": [[1.0, 0.0], [0.0, 0.0]]},
                       {"weight": 1.0, "vector": [[0.0, 0.0], [1.0, 0.0]]}]}
NAN_VECTOR = {"terms": [{"weight": 1.0, "vector": [["nan", 0.0], [0.0, 0.0]]}]}


class TestNonFiniteInput:
    """NaN and infinite weights and vector entries are refused where they are
    read, with one error line and exit 2, and no numpy warning."""

    pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

    def refused(self, capsys, argv, err):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")

    def test_decompose_refuses_a_nan_stream_vector(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", {
            "weights": {"kind": "finite", "values": [0.5, 0.5]},
            "stream": {"kind": "explicit", "vectors": [[["nan", 0.0], [0.0, 0.0]]]},
        })
        self.refused(capsys, ["decompose", inp],
                     "explicit stream vectors must have finite entries")

    @pytest.mark.parametrize("command", ["bridge", "verify"])
    def test_a_nan_weight_is_named(self, tmp_path, capsys, command):
        dec = write_json(tmp_path / "dec.json", NAN_TERMS)
        op = write_json(tmp_path / "op.json", {"diag": [1.0, 1.0]})
        argv = [command, dec] + ([op] if command == "verify" else [])
        self.refused(capsys, argv, "term weight must be finite, got nan")

    def test_a_nan_vector_entry_fails_the_norm_test(self, tmp_path, capsys):
        dec = write_json(tmp_path / "dec.json", NAN_VECTOR)
        op = write_json(tmp_path / "op.json", {"diag": [1.0, 0.0]})
        self.refused(capsys, ["verify", dec, op], "vector norm nan is not 1")


# finite entries whose products or sums leave the float64 range
HUGE_TERMS = {"terms": [{"weight": 1e308, "vector": [[1.0, 0.0]]},
                        {"weight": 1e308, "vector": [[1.0, 0.0]]}]}


class TestFloat64Overflow:
    """A product or sum of finite entries beyond the float64 range is refused
    where it is formed, with one error line naming the overflow and exit 2,
    and no numpy warning."""

    pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

    def refused(self, capsys, argv, err):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")

    def test_verify_refuses_an_overflowing_frame_operator(self, tmp_path, capsys):
        dec = write_json(tmp_path / "dec.json", HUGE_TERMS)
        op = write_json(tmp_path / "op.json", {"diag": [1.0]})
        self.refused(capsys, ["verify", dec, op], "frame operator overflows the float64 range")

    def test_check_sums_refuses_an_overflowing_hermitian_part(self, tmp_path, capsys):
        op = write_json(tmp_path / "op.json", {"diag": [1e308, 1e308]})
        self.refused(capsys, ["check-sums", op], "Hermitian part overflows the float64 range")

    def test_check_sums_refuses_an_overflowing_asymmetry(self, tmp_path, capsys):
        entries = [[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]]
        op = write_json(tmp_path / "op.json", {"dim": 2, "entries": entries})
        self.refused(capsys, ["check-sums", op], "asymmetry overflows the float64 range")

    def test_bridge_refuses_an_overflowing_gram_matrix(self, tmp_path, capsys):
        dec = write_json(tmp_path / "dec.json", HUGE_TERMS)
        self.refused(capsys, ["bridge", dec], "Gram matrix overflows the float64 range")

    def test_decompose_refuses_an_overflowing_stream_gram_matrix(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", {"weights": {"kind": "finite", "values": [1.0]},
                                                "stream": {"kind": "explicit", "vectors": [[1e200, 0]]}})
        self.refused(capsys, ["decompose", inp], "explicit stream Gram matrix overflows the float64 range")


OPTIONS = {
    "check-kadison": ["--alpha", "--help", "-h"],
    "check-majorize": ["--help", "-h"],
    "decompose": ["--help", "--out", "--stages", "-h"],
    "verify": ["--help", "--no-remainder", "-h"],
    "check-sums": ["--help", "--out", "--witness", "-h"],
    "bridge": ["--help", "--out", "-h"],
}

# (argv, exit code, sha256 of the report), recorded before the tolerance
# flags were removed; each input file is json.dumps of its payload
DEC = {
    "terms": [{"weight": 1.0, "vector": [[1.0, 0.0], [0.0, 0.0]]}],
    "remainder_terms": [{"weight": 1.0, "vector": [[0.0, 0.0], [1.0, 0.0]]}],
}
DOCS = {
    "dec.json": DEC,
    "full.json": {"diag": [1.0, 1.0]},
    "part.json": {"diag": [1.0, 0.0]},
    "sums.json": {"diag": [2.0, 1.0, 1.0]},
    "half.json": {"diag": [1.5]},
}
REPORTS = [
    (["verify", "dec.json", "full.json"], 0,
     "f72f83812bf3bdcb9d1e9d6f9640b624ba2ed370aa098e9bbc26bf7a2ba5bec6"),
    (["verify", "dec.json", "part.json"], 1,
     "3ef719be457e2be2e7b67a1f73f5a06c9c9ed09c644ff02da4b1d0764b89cb9e"),
    (["verify", "dec.json", "part.json", "--no-remainder"], 0,
     "dcc20f5e8465b6a7dc0d47f3bdf5b62f1558fa606672f345dbf5d3ac78bd2d08"),
    (["check-sums", "sums.json", "--witness"], 0,
     "5084f824148c9491263ba59a1fb09ab7507ac19f4610d13da109336d6874a840"),
    (["check-sums", "half.json"], 1,
     "54053da4d9f64c8d6ecfecb9bfed48f3b319c3a40cc2071ebaf87ba87e5a4bf4"),
]


class TestOptions:
    def test_option_sets(self):
        parser = build_parser()
        assert sorted(s for a in parser._actions for s in a.option_strings) == [
            "--help", "--seed", "-h"
        ]
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: sorted(s for a in p._actions for s in a.option_strings)
            for name, p in sub.choices.items()
        }
        assert got == OPTIONS

    def test_stages_default(self):
        assert build_parser().parse_args(["decompose", "in.json"]).stages == DEFAULT_STAGES

    @pytest.mark.parametrize("flag", [["--tol", "1e-9"], ["--extend-limit", "5"]],
                             ids=["tol", "extend-limit"])
    def test_removed_decompose_flags_exit_two(self, tmp_path, capsys, flag):
        inp = write_json(tmp_path / "in.json", {"weights": PERIODIC})
        with pytest.raises(SystemExit) as exc:
            main(["decompose", inp, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, digest", REPORTS, ids=[
        "verify", "verify-mismatch", "verify-no-remainder", "check-sums-witness",
        "check-sums-non-integer",
    ])
    def test_report_digests(self, tmp_path, capsys, monkeypatch, argv, code, digest):
        for name, doc in DOCS.items():
            write_json(tmp_path / name, doc)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if argv[0] == "verify":
            assert json.loads(out)["tol"] == 1e-8


class TestReportShape:
    def test_byte_stable_reports(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", {"weights": PERIODIC})
        main(["decompose", inp, "--stages", "5"])
        first = capsys.readouterr().out
        main(["decompose", inp, "--stages", "5"])
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")

    def test_keys_sorted(self, tmp_path, capsys):
        p = write_json(tmp_path / "seq.json", {"kind": "finite", "values": [1.0]})
        _, rep = run(capsys, "check-kadison", p)
        lines = json.dumps(rep, sort_keys=True, indent=2) + "\n"
        main(["check-kadison", p])
        assert capsys.readouterr().out == lines

    def test_reports_carry_the_record_fields(self, tmp_path, capsys):
        seq = write_json(tmp_path / "seq.json", {"kind": "finite", "values": [1.0]})
        op = write_json(tmp_path / "op.json", {"diag": [1.0]})
        inp = write_json(tmp_path / "in.json", {"weights": PERIODIC})
        common = {"command", "seed", "inputs"}
        for argv, record in [(["check-kadison", seq], KadisonReport),
                             (["check-majorize", seq, seq], MajorizationVerdict),
                             (["check-sums", op], SumOfProjReport)]:
            _, rep = run(capsys, *argv)
            assert set(rep) == common | {f.name for f in dataclasses.fields(record)}
        _, rep = run(capsys, "decompose", inp, "--stages", "2")
        assert set(rep["case"]) == {f.name for f in dataclasses.fields(CaseTag)}

    def test_seed_recorded(self, tmp_path, capsys):
        p = write_json(tmp_path / "seq.json", {"kind": "finite", "values": [1.0]})
        code, rep = run(capsys, "--seed", "7", "check-kadison", p)
        assert code == 0
        assert rep["seed"] == 7

    def test_input_digests_are_sha256(self, tmp_path, capsys):
        import hashlib

        p = tmp_path / "seq.json"
        p.write_text('{"kind": "finite", "values": [1.0]}')
        _, rep = run(capsys, "check-kadison", str(p))
        expect = hashlib.sha256(p.read_bytes()).hexdigest()
        assert rep["inputs"]["sequence"] == expect

    def test_no_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def test_one_parser_per_process_reports_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    # main builds its parser on its first call and parses every later argv
    # with it; each report is byte for byte what a freshly built parser gives
    from admseq import cli

    seq = write_json(tmp_path / "seq.json", {"kind": "finite", "values": [0.6, 0.4]})
    eta = write_json(tmp_path / "eta.json", {"kind": "finite", "values": [1.0]})
    inp = write_json(tmp_path / "in.json", {"weights": PERIODIC,
                                            "stream": {"kind": "block-overlap", "block": 3}})
    op = write_json(tmp_path / "op.json", {"diag": [2.0, 1.0, 1.0]})
    dec = str(tmp_path / "dec.json")
    commands = [
        ["check-kadison", seq, "--alpha", "0.7"],
        ["--seed", "3", "check-majorize", seq, eta],
        ["decompose", inp, "--stages", "5", "--out", dec],
        ["verify", dec, str(tmp_path / "dec.target.json"), "--no-remainder"],
        ["verify", dec, str(tmp_path / "dec.target.json")],
        ["check-sums", op, "--witness"],
        ["bridge", dec],
        ["check-kadison", seq],
    ]

    def reports(fresh: bool) -> list:
        out = []
        for argv in commands:
            if fresh:
                cli._parser.cache_clear()
            out.append((main(argv), capsys.readouterr().out))
        return out

    main(["check-kadison", seq])
    capsys.readouterr()
    parser, builds = cli._parser(), []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    once = reports(fresh=False)
    assert builds == [] and cli._parser() is parser
    fresh = reports(fresh=True)
    assert len(builds) == len(commands)
    assert [code for code, _ in once] == [0, 0, 0, 1, 0, 0, 0, 0]
    assert once == fresh
