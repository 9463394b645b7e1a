"""Command-line surface: subcommands, exit codes, deterministic JSON."""

import json
import tracemalloc
from fractions import Fraction

import pytest

from pbkernel import PauliSum, PseudoBoolean
from pbkernel.cli import main

DELTA_EXPR = "1 - x1 - x2 - x3 + x2*x3 + x1*x3 + x1*x2\n"
GHZ3_CIRCUIT = "qubits 3\nh 1\ncnot 1 2\ncnot 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def delta_file(tmp_path):
    path = tmp_path / "delta3.pbf"
    path.write_text(DELTA_EXPR)
    return str(path)


@pytest.fixture
def ghz3_file(tmp_path):
    path = tmp_path / "ghz3.qc"
    path.write_text(GHZ3_CIRCUIT)
    return str(path)


class TestPbfCommands:
    def test_kernel(self, capsys, delta_file):
        code, out, _ = run(capsys, "pbf", "kernel", delta_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel"] == ["001", "010", "011", "100", "101", "110"]

    def test_eval(self, capsys, delta_file):
        code, out, _ = run(capsys, "pbf", "eval", delta_file, "--at", "110", "--json")
        assert code == 0
        assert json.loads(out)["value"] == "0"

    def test_eval_requires_at(self, capsys, delta_file):
        code, _, err = run(capsys, "pbf", "eval", delta_file)
        assert code == 2 and "--at" in err

    def test_nonneg(self, capsys, delta_file):
        code, out, _ = run(capsys, "pbf", "nonneg", delta_file, "--json")
        assert code == 0
        assert json.loads(out)["nonnegative"] is True

    def test_pauli_round_trips(self, capsys, delta_file):
        code, out, _ = run(capsys, "pbf", "pauli", delta_file, "--json")
        assert code == 0
        payload = json.loads(out)
        text = "\n".join(f"{c} {w}" for c, w in payload["terms"])
        parsed = PauliSum.from_text(text)
        from pbkernel import parse, pbf_to_pauli

        assert parsed == pbf_to_pauli(parse(DELTA_EXPR))


class TestSymCommands:
    def test_factor_delta(self, capsys, delta_file):
        code, out, _ = run(capsys, "sym", "factor", delta_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["K"] == [0.5, 0.0]
        assert payload["roots"] == [[1.0, 0.0], [2.0, 0.0]]
        assert payload["exact_roots"] == ["1", "2"]

    def test_profile_delta(self, capsys, delta_file):
        code, out, _ = run(capsys, "sym", "profile", delta_file, "--json")
        assert code == 0
        assert json.loads(out)["profile"] == ["1", "0", "0", "1"]

    def test_factor_rejects_asymmetric(self, capsys, tmp_path):
        path = tmp_path / "asym.pbf"
        path.write_text("x1\n")
        code, _, err = run(capsys, "sym", "factor", str(path), "--arity", "2")
        assert code == 2 and "symmetric" in err


class TestParentCommands:
    def test_clifford_ghz3_verify(self, capsys, ghz3_file):
        code, out, _ = run(capsys, "parent", "clifford", ghz3_file, "--verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verify"] == {
            "kernel_dimension": 1,
            "annihilates_state": True,
            "ok": True,
        }
        terms = {tuple(t) for t in payload["terms"]}
        assert terms == {
            ("3/2", "III"), ("-1/2", "ZZI"), ("-1/2", "IZZ"), ("-1/2", "XXX"),
        }

    def test_clifford_human_report_mentions_terms(self, capsys, ghz3_file):
        code, out, _ = run(capsys, "parent", "clifford", ghz3_file)
        assert code == 0
        for line in ("3/2 III", "-1/2 ZZI", "-1/2 IZZ", "-1/2 XXX"):
            assert line in out
        assert "elapsed" in out

    def test_support(self, capsys, tmp_path):
        path = tmp_path / "ghz.state"
        path.write_text("000 1 0\n111 1 0\n")
        code, out, _ = run(capsys, "parent", "support", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["support"] == ["000", "111"]
        assert payload["diag"][0] == "0" and payload["diag"][7] == "0"
        assert payload["diag"][3] == "1"

    def test_ghz_quadratic(self, capsys):
        code, out, _ = run(capsys, "parent", "ghz-quadratic", "-n", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel"] == ["000", "111"]
        f = PseudoBoolean.from_dict(payload["polynomial"])
        assert f.kernel() == {(0, 0, 0), (1, 1, 1)}


class TestGadgetCommand:
    def test_compose_clamp_minimize(self, capsys, tmp_path):
        netlist = {
            "gates": [
                {"type": "or", "inputs": ["x1", "x2"], "output": "w"},
                {"type": "and", "inputs": ["w", "y2"], "output": "p"},
            ]
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(netlist))
        code, out, _ = run(
            capsys, "gadget", "compose", str(path), "--clamp", "p=1", "--minimize", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["variables"] == ["w", "x1", "x2", "y2"]
        assert payload["minimum"] == "0"
        # variables are (w, x1, x2, y2); strip w to get the satisfying inputs
        projected = {bits[1:] for bits in payload["argmin"]}
        assert projected == {"011", "101", "111"}

    def test_bad_clamp_syntax(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"gates": []}))
        code, _, err = run(capsys, "gadget", "compose", str(path), "--clamp", "p")
        assert code == 2 and "WIRE=BIT" in err


class TestIsingCommand:
    def test_realize_parity_infeasible(self, capsys, tmp_path):
        path = tmp_path / "even3.txt"
        path.write_text("000\n011\n101\n110\n")
        code, out, _ = run(capsys, "ising", "realize", str(path), "-n", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert payload["certificate"]

    def test_realize_aligned_feasible(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("0000\n1111\n")
        code, out, _ = run(capsys, "ising", "realize", str(path), "-n", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        Fraction(payload["c0"])


class TestExitCodesAndDeterminism:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "pbf", "kernel", "/nonexistent/file.pbf")
        assert code == 2 and "cannot read" in err

    def test_malformed_expression(self, capsys, tmp_path):
        path = tmp_path / "bad.pbf"
        path.write_text("x1 + @!\n")
        code, _, err = run(capsys, "pbf", "kernel", str(path))
        assert code == 2 and "error" in err

    def test_over_cap_arity_distinct_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "wide.pbf"
        path.write_text("x1 + x30\n")
        code, _, err = run(capsys, "pbf", "kernel", str(path))
        assert code == 2 and "cap" in err

    def test_deep_nesting_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.pbf"
        path.write_text("(" * 3000 + "x1" + ")" * 3000 + "\n")
        code, out, err = run(capsys, "pbf", "kernel", str(path))
        assert code == 2 and out == ""
        assert err == "error: expression nested too deeply\n"

    def test_wide_state_line_rejected_before_allocation(self, capsys, tmp_path):
        path = tmp_path / "wide.state"
        path.write_text("0" * 20 + " 1 0\n")
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "parent", "support", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and err == "error: statevector arity 20 outside 0..16\n"
        assert peak < 1 << 20

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["pbf", "frobnicate", "x"])
        assert exc.value.code == 2

    def test_json_output_is_byte_identical(self, capsys, ghz3_file):
        _, first, _ = run(capsys, "parent", "clifford", ghz3_file, "--verify", "--json")
        _, second, _ = run(capsys, "parent", "clifford", ghz3_file, "--verify", "--json")
        assert first == second

    def test_json_has_no_timing(self, capsys, delta_file):
        _, out, _ = run(capsys, "pbf", "kernel", delta_file, "--json")
        assert "elapsed" not in out
