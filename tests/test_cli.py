"""End-to-end checks of the command line interface.

Every command is exercised in-process through ``main(argv)`` so the exit
codes and report payloads are asserted directly, without spawning shells.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from admseq.cli import main


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
        v = np.array([complex(re, im) for re, im in iso["entries"]]).reshape(4, 2)
        diag = np.diag(v @ v.conj().T).real
        assert np.allclose(diag, [0.5, 0.5, 0.5, 0.5])
        assert payload["weights"] == [0.5, 0.5, 0.5, 0.5]


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
