"""Command-line surface: subcommands, exit codes, deterministic JSON."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

import pbkernel
from pbkernel import PauliSum, PseudoBoolean, stabilizer
from pbkernel.cli import main
from conftest import (random_clifford_circuit, ref_cmd_parent_clifford, ref_cmd_parent_support,
                      ref_pbf_to_pauli)

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

    def test_eval_at_the_empty_point_of_arity_0(self, capsys, tmp_path):
        # `pbf kernel` prints "" as the one point of an arity-0 file; eval reads it back
        path = tmp_path / "c0.pbf"
        path.write_text("7/2\n")
        code, out, _ = run(capsys, "pbf", "eval", str(path), "--at", "", "--json")
        assert code == 0 and json.loads(out)["value"] == "7/2"

    def test_eval_at_the_empty_point_checks_the_length(self, capsys, tmp_path):
        path = tmp_path / "c2.pbf"
        path.write_text("x1 + x2\n")
        code, out, err = run(capsys, "pbf", "eval", str(path), "--at", "", "--json")
        assert (code, out, err) == (2, "", "error: assignment length 0 != arity 2\n")

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

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    @pytest.mark.parametrize("text, message", [
        # power form 10**309 + X^2: the search skips it, np.roots needs floats
        ("1" + "0" * 309 + " + x1 + x2 + 2*x1*x2\n",
         "a coefficient left for np.roots does not fit a float"),
        # power form K(X - 1) with K = 10**309: the root is exact, K is not a float
        ("-{0} + {0}*x1 + {0}*x2".format("1" + "0" * 309), "K does not fit a float"),
        # power form 1 - K X + K X^2 with K = 10**-400 / 2: K is the leading
        # coefficient left for np.roots, which would strip it as a zero
        ("1 + 1/1" + "0" * 400 + "*x1*x2\n", "K does not fit a float"),
        # power form K(X - 1) with K = 10**-400: the root is exact, K is not a float
        ("-{0} + {0}*x1 + {0}*x2".format("1/1" + "0" * 400), "K does not fit a float"),
        # power form 10**200 - K X + K X^2 with K = 10**-200 / 2: each coefficient
        # is a float, their ratio is not
        ("1" + "0" * 200 + " + 1/1" + "0" * 200 + "*x1*x2\n",
         "a coefficient ratio left for np.roots does not fit a float"),
    ], ids=["residual", "K", "K-underflow", "K-underflow-exact", "ratio"])
    def test_factor_outside_the_float_range_is_an_input_error(
        self, capsys, tmp_path, flags, text, message
    ):
        path = tmp_path / "big.pbf"
        path.write_text(text)
        code, out, err = run(capsys, "sym", "factor", str(path), *flags)
        assert code == 2 and out == ""
        assert err == f"error: malformed input: {message}\n"

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

    def test_verify_state_cap_is_the_named_constant(self, capsys, ghz3_file, monkeypatch):
        from pbkernel import cli

        assert cli.VERIFY_STATE_CAP == 12
        for cap, annihilates in ((3, True), (2, None)):  # above the cap the state is not built
            monkeypatch.setattr(cli, "VERIFY_STATE_CAP", cap)
            code, out, _ = run(capsys, "parent", "clifford", ghz3_file, "--verify", "--json")
            assert code == 0
            assert json.loads(out)["verify"] == {"kernel_dimension": 1, "annihilates_state": annihilates, "ok": True}

    def test_clifford_verify_reads_the_generators_off_the_parent(self, capsys, tmp_path, monkeypatch):
        rng = random.Random(1010)
        calls = []
        conjugate = stabilizer.conjugate
        monkeypatch.setattr(
            stabilizer, "conjugate", lambda circuit, p: calls.append(p) or conjugate(circuit, p)
        )
        path = tmp_path / "circuit.qc"
        for _ in range(200):
            n = rng.randint(1, 12)
            path.write_text(random_clifford_circuit(rng, n, rng.randint(0, 3 * n)).to_text())
            calls.clear()
            got = run(capsys, "parent", "clifford", str(path), "--verify", "--json")
            assert len(calls) == n  # once per generator, inside projector_parent
            code = ref_cmd_parent_clifford(argparse.Namespace(circuitfile=str(path), verify=True, json=True))
            want = capsys.readouterr()
            assert got == (code, want.out, want.err)

    def test_support(self, capsys, tmp_path):
        path = tmp_path / "ghz.state"
        path.write_text("000 1 0\n111 1 0\n")
        code, out, _ = run(capsys, "parent", "support", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["support"] == ["000", "111"]
        assert payload["diag"][0] == "0" and payload["diag"][7] == "0"
        assert payload["diag"][3] == "1"

    def test_support_is_read_off_the_file(self, capsys, tmp_path, monkeypatch, rng):
        """Random state files (comments, blank lines, zero and complex amplitudes,
        a 16-qubit two-line file first) give the ``--json`` bytes of the
        statevector path, and no statevector is built or scanned."""
        from pbkernel import gadgets, pauli

        def refuse(*args, **kwargs):
            raise AssertionError("parent support built or scanned a statevector")

        zero, nonzero = ["0", "-0", "0/7", "0e5"], ["3", "-2", "5/4", "-1/3", "1e2", "-0.25", "2E-1"]
        fillers = ["", "# bits re im", "   ", "\t# 0 1 0"]
        path = tmp_path / "random.state"
        for trial in range(120):
            if trial == 0:  # the two ends of a 16-qubit register
                n, amps = 16, {0: ("1", "0"), (1 << 16) - 1: ("1/2", "-3")}
            else:
                n = rng.randint(1, 8)
                codes = rng.sample(range(1 << n), rng.randint(1, min(1 << n, 10)))
                amps = {c: (rng.choice(zero + nonzero), rng.choice(zero + nonzero)) for c in codes}
                amps[codes[0]] = (rng.choice(nonzero), rng.choice(zero + nonzero))  # a nonempty support
            lines = []
            for code, (re, im) in amps.items():
                lines += rng.sample(fillers, rng.randint(0, 2))
                sep = rng.choice([" ", "  ", "\t"])
                lines.append(f"{code:0{n}b}{sep}{re} {im}")
            path.write_text("\n".join(lines) + "\n")
            with monkeypatch.context() as m:
                m.setattr(pauli, "StateVector", refuse)
                m.setattr(gadgets, "support", refuse)
                got = run(capsys, "parent", "support", str(path), "--json")
            code = ref_cmd_parent_support(argparse.Namespace(statefile=str(path), json=True))
            want = capsys.readouterr()
            assert got == (code, want.out, want.err)
            assert got[0] == 0

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

    def test_wire_named_like_a_generated_slack_exits_2(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"gates": [{"type": "xor", "inputs": ["a", "b"], "output": "__slack0_0"}]}))
        code, out, err = run(capsys, "gadget", "compose", str(path), "--minimize", "--json")
        assert code == 2 and out == ""
        assert err == "error: gate 0: wire '__slack0_0' is the generated name of a slack of gate 0\n"

    def test_clamp_on_a_generated_slack_wire(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"gates": [{"type": "xor", "inputs": ["a", "b"], "output": "c"}]}))
        code, out, _ = run(capsys, "gadget", "compose", str(path), "--minimize", "--json")
        payload = json.loads(out)  # the slack carries a AND b
        assert code == 0 and payload["variables"] == ["__slack0_0", "a", "b", "c"]
        assert payload["argmin"] == ["0000", "0011", "0101", "1110"]
        code, out, _ = run(capsys, "gadget", "compose", str(path), "--clamp", "__slack0_0=1", "--minimize", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["variables"] == ["a", "b", "c"] and payload["argmin"] == ["110"]

    def test_bad_clamp_syntax(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"gates": []}))
        code, _, err = run(capsys, "gadget", "compose", str(path), "--clamp", "p")
        assert code == 2 and "WIRE=BIT" in err

    @pytest.mark.parametrize("spec", ["c=١", "c=+1", "c= 1", "c=a", "c=10", "c="])
    def test_clamp_bit_is_the_character_0_or_1(self, capsys, tmp_path, spec):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"gates": [{"type": "and", "inputs": ["a", "b"], "output": "c"}]}))
        code, out, err = run(capsys, "gadget", "compose", str(path), "--clamp", spec, "--json")
        assert (code, out, err) == (2, "", f"error: --clamp needs WIRE=BIT, got {spec!r}\n")
        code, out, _ = run(capsys, "gadget", "compose", str(path), "--clamp", "c=1", "--minimize", "--json")
        assert code == 0 and json.loads(out)["argmin"] == ["11"]


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

    def test_deeply_nested_netlist_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "gadget", "compose", str(path))
        assert code == 2 and out == ""
        assert err == "error: malformed netlist JSON: nested too deeply\n"

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

    def test_zero_denominator_in_state_file(self, capsys, tmp_path):
        path = tmp_path / "zero.state"
        path.write_text("00 1 0\n01 1/0 0\n")
        code, out, err = run(capsys, "parent", "support", str(path))
        assert code == 2 and out == ""
        assert err == "error: state line 2: zero denominator\n"

    def test_huge_exponent_in_state_file(self, capsys, tmp_path):
        path = tmp_path / "huge.state"
        path.write_text("00 1 0\n01 1e10000000 0\n")
        code, out, err = run(capsys, "parent", "support", str(path))
        assert code == 2 and out == ""
        assert err == f"error: state line 2: decimal exponent over {sys.get_int_max_str_digits()} digits\n"

    def test_exponent_at_the_digit_limit_is_read(self, capsys, tmp_path):
        path = tmp_path / "edge.state"
        limit = sys.get_int_max_str_digits()
        path.write_text(f"00 1e{limit} 0\n01 1E-{limit} 0\n10 0e+0{limit} 0\n")
        code, out, _ = run(capsys, "parent", "support", str(path), "--json")
        assert code == 0 and json.loads(out)["support"] == ["00", "01"]

    def test_repeated_basis_string_in_state_file(self, capsys, tmp_path):
        path = tmp_path / "repeat.state"
        path.write_text("00 1 0\n# a comment\n00 0 0\n11 1 0\n")
        code, out, err = run(capsys, "parent", "support", str(path), "--json")
        assert code == 2 and out == ""
        assert err == "error: state line 3: basis string 00 repeats line 1\n"

    @pytest.mark.parametrize("text, message", [
        ("00 1 0\n0a 1 0\n", "state line 2: bad bit string '0a'"),
        ("00 1 0\n\n011 1 0\n", "state line 3: inconsistent width"),
        ("00 1 0\n01 1 0 0\n", "state line 2: expected 'bits re im'"),
        ("# re im\n00 abc 0\n", "state line 2: bad number 'abc'"),
        ("00 1 0\n01 0 1/-2\n", "state line 2: bad number '1/-2'"),
        ("00 0 0\n# only zeros\n", "malformed input: empty support has no parent"),
        ("# nothing\n\n", "state file has no amplitude lines"),
    ])
    def test_state_file_diagnostics_name_the_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.state"
        path.write_text(text)
        code, out, err = run(capsys, "parent", "support", str(path), "--json")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("text, n, message", [
        ("000\n0a1\n", "3", "strings line 2: bad bit string '0a1'"),
        ("000\n01 10\n", "3", "strings line 2: expected one bit string"),
        ("000\n# a comment\n\n1111\n", "3", "strings line 4: inconsistent width"),
        # the -n checks of quadratic_realizability keep their messages
        ("000\n111\n", "0", "malformed input: n must be positive, got 0"),
        ("000\n111\n", "4", "malformed input: bad bit string (0, 0, 0) for n = 4"),
        # a long line is named in a bounded message, not echoed whole
        pytest.param("0" * 100000 + "\n", "4", "malformed input: bad bit string (0, 0, 0, 0, 0, 0, ...) for n = 4",
                     id="100000-character-line"),
        ("0" * 13 + "\n", "13", "2^13 margin rows exceed cap 2^12"),
        ("# no strings\n", "3", "malformed input: S must be nonempty"),
    ])
    def test_strings_file_diagnostics_name_the_line(self, capsys, tmp_path, text, n, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, "ising", "realize", str(path), "-n", n, "--json")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_ghz_quadratic_arity_checked_before_allocation(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "parent", "ghz-quadratic", "-n", "30000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == "error: malformed input: arity must be in 0..64, got 30000\n"
        assert peak < 5 << 20

    @pytest.mark.parametrize("netlist, message", [
        ("[1, 2]", "netlist must be an object, got list"),
        ('{"gates": {"a": 1}}', "'gates' must be a list of gate objects, got dict"),
        ('{"gates": [5]}', "gate 0: expected an object, got int"),
        ('{"gates": [{"type": "not", "inputs": ["a"]}]}', "gate 0: missing 'output'"),
        ('{"gates": [{"type": "and", "inputs": "ab", "output": "c"}]}',
         "gate 0: 'inputs' must be a list of wire names"),
        ('{"gates": [{"type": "not", "inputs": ["a"], "output": "b"},'
         ' {"type": "not", "inputs": [null], "output": "c"}]}', "gate 1: wire names must be strings"),
        ('{"gates": [{"type": "not", "inputs": ["a"], "output": "b"}], "clamps": [["b", 1]]}',
         "'clamps' must be an object, got list"),
        ('{"gates": [{"type": "not", "inputs": ["a"], "output": "b"}], "clamps": {"b": 1e400}}',
         "clamp on wire 'b': value must be 0 or 1, got inf"),
        ('{"gates": [{"type": "not", "inputs": ["a"], "output": "b"}], "clamps": {"b": 1.5}}',
         "clamp on wire 'b': value must be 0 or 1, got 1.5"),
        ('{"gates": [{"type": "not", "inputs": ["a"], "output": "b"}], "clamps": {"b": "1"}}',
         "clamp on wire 'b': value must be 0 or 1, got '1'"),
        ('{"gates": [{"type": "and", "inputs": ["a", "b"], "output": "c"}], "clamps": {"c": true}}',
         "clamp on wire 'c': value must be 0 or 1, got True"),
        ('{"gates": [{"type": "not", "inputs": ["a"], "output": "b"}], "clamps": {"b": 1.0}}',
         "clamp on wire 'b': value must be 0 or 1, got 1.0"),
        ('{"gates": [{"type": "not", "inputs": ["a"], "output": "b"}], "clamps": {"b": false}}',
         "clamp on wire 'b': value must be 0 or 1, got False"),
    ])
    def test_malformed_netlist_shapes(self, capsys, tmp_path, netlist, message):
        path = tmp_path / "net.json"
        path.write_text(netlist)
        code, out, err = run(capsys, "gadget", "compose", str(path), "--json")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("qubits 3\nh 0\n", "line 2: qubit index 0 out of range 1..3"),
        ("qubits 3\nh 1.5\n", "line 2: bad qubit index '1.5'"),
        ("qubits 3\n\ncnot 1 4\n", "line 3: qubit index 4 out of range 1..3"),
        ("qubits 2\ncnot 2 2\n", "line 2: cnot control and target must differ"),
        ("qubits x\n", "line 1: bad qubit count 'x'"),
        ("qubits 65\n", "line 1: qubit count 65 out of range 1..64"),
    ])
    def test_circuit_diagnostics_name_the_line_and_index(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.qc"
        path.write_text(text)
        code, out, err = run(capsys, "parent", "clifford", str(path), "--verify")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_failed_recheck_is_an_internal_error(self, capsys, tmp_path, monkeypatch):
        from pbkernel.ising_kernel import QuadraticRealization

        path = tmp_path / "pair.txt"
        path.write_text("0000\n1111\n")
        monkeypatch.setattr(QuadraticRealization, "verify", lambda self, target: False)
        code, out, err = run(capsys, "ising", "realize", str(path), "-n", "4", "--json")
        assert code == 3 and out == ""
        assert err == (
            "error: internal error: AssertionError: "
            "recovered coefficients fail the margin re-verification\n"
        )
        assert "Traceback" not in err

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["pbf", "frobnicate", "x"])
        assert exc.value.code == 2

    def test_json_output_is_byte_identical(self, capsys, ghz3_file):
        _, first, _ = run(capsys, "parent", "clifford", ghz3_file, "--verify", "--json")
        _, second, _ = run(capsys, "parent", "clifford", ghz3_file, "--verify", "--json")
        assert first == second

    def test_json_is_byte_identical_across_hash_seeds(self, tmp_path, delta_file, ghz3_file):
        """Every subcommand once per process, one process per PYTHONHASHSEED."""
        files = {
            "ghz.state": "000 1 0\n111 1 0\n",
            "net.json": json.dumps({"gates": [
                {"type": "or", "inputs": ["x1", "x2"], "output": "w"},
                {"type": "xor", "inputs": ["w", "y2"], "output": "p"},
            ]}),
            "even3.txt": "000\n011\n101\n110\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        state, net, even3 = (str(tmp_path / name) for name in files)
        commands = [
            ["pbf", "kernel", delta_file],
            ["pbf", "eval", delta_file, "--at", "110"],
            ["pbf", "nonneg", delta_file],
            ["pbf", "pauli", delta_file],
            ["sym", "factor", delta_file],
            ["sym", "profile", delta_file],
            ["parent", "clifford", ghz3_file, "--verify"],
            ["parent", "support", state],
            ["parent", "ghz-quadratic", "-n", "4"],
            ["gadget", "compose", net, "--clamp", "p=1", "--minimize"],
            ["ising", "realize", even3, "-n", "3"],
        ]
        script = (
            "import json, sys\n"
            "from pbkernel.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    print('exit', main(argv + ['--json']), flush=True)\n"
        )
        src = str(Path(pbkernel.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-c", script, json.dumps(commands)]
        runs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            runs.append(subprocess.run(argv, env=env, capture_output=True, check=True))
        lines = runs[0].stdout.decode().splitlines()
        assert lines[1::2] == ["exit 0"] * len(commands) and runs[0].stderr == b""
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize("flags", [["--arity", "16", "--json"], ["--arity", "3"]], ids=["json", "human"])
    def test_a_closed_stdout_ends_quietly_with_141(self, tmp_path, flags):
        # 65536 kernel points in JSON fail inside print; the short human report
        # at arity 3 fails at main's flush, after its elapsed line
        zero = tmp_path / "zero.pbf"
        zero.write_text("0\n")
        argv = [sys.executable, "-m", "pbkernel.cli", "pbf", "kernel", str(zero), *flags]
        src = str(Path(pbkernel.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout block-buffered
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first byte is written
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 141 and proc.stderr == b""

    def test_json_builds_no_text_rendering(self, capsys, monkeypatch, tmp_path, delta_file, ghz3_file):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"gates": [{"type": "and", "inputs": ["a", "b"], "output": "c"}]}))
        calls = []
        for cls in (PseudoBoolean, PauliSum):
            render = cls.to_text
            monkeypatch.setattr(cls, "to_text",
                                lambda self, *a, render=render: calls.append(self) or render(self, *a))
        commands = [
            ["gadget", "compose", str(net), "--minimize"],
            ["pbf", "pauli", delta_file],
            ["parent", "clifford", ghz3_file, "--verify"],
            ["parent", "ghz-quadratic", "-n", "3"],
        ]
        for argv in commands:
            assert run(capsys, *argv, "--json")[0] == 0
        assert calls == []
        for argv in commands:  # the human reports still render
            assert run(capsys, *argv)[0] == 0
        assert len(calls) == len(commands)

    def test_json_has_no_timing(self, capsys, delta_file):
        _, out, _ = run(capsys, "pbf", "kernel", delta_file, "--json")
        assert "elapsed" not in out

    def test_human_report_ends_with_one_elapsed_line(self, capsys, delta_file):
        code, out, _ = run(capsys, "pbf", "kernel", delta_file)
        lines = out.splitlines()
        assert code == 0 and lines[0] == "arity 3"
        assert [line for line in lines if line.startswith("elapsed: ")] == [lines[-1]]

    def test_failed_command_prints_no_elapsed_line(self, capsys, tmp_path):
        path = tmp_path / "asym.pbf"
        path.write_text("x1 + 2*x2\n")
        code, out, err = run(capsys, "sym", "factor", str(path))
        assert code == 2 and out == ""
        assert err == "error: input is not a symmetric function\n"


def monomial(k):
    return "*".join(f"x{i}" for i in range(1, k + 1))


def binomial_product(k):
    return "*".join(f"(x{2 * i + 1}+x{2 * i + 2})" for i in range(k))


def dense_text(n):
    """All 2^n - 1 non-constant monomials on n variables, coefficients 1..7."""
    return " + ".join(
        f"{mask % 7 + 1}*" + "*".join(f"x{i + 1}" for i in range(n) if mask >> i & 1)
        for mask in range(1, 1 << n)
    )


class TestWorkCaps:
    def test_pauli_expansion_cap_boundary(self, monkeypatch):
        from pbkernel import EnumerationCapError, pauli
        from pbkernel.expr import parse as parse_expression

        monkeypatch.setattr(pauli, "EXPANSION_CAP", 8)
        assert len(pauli.pbf_to_pauli(parse_expression(monomial(3)))) == 8
        assert len(pauli.pbf_to_pauli(parse_expression("x1*x2 + x3*x4"))) == 7
        for text, count in ((monomial(4), 16), ("x1*x2 + x3*x4 + x5", 10)):
            with pytest.raises(EnumerationCapError, match=f"needs {count} subset terms, over cap 8"):
                pauli.pbf_to_pauli(parse_expression(text))

    def test_pauli_expansion_cap_counts_at_most_2_to_the_n_keys(self, monkeypatch):
        """Dense input: the pass holds at most 2^n keys, though sum 2^|M| is 3^n."""
        from pbkernel import EnumerationCapError, pauli
        from pbkernel.expr import parse as parse_expression

        monkeypatch.setattr(pauli, "EXPANSION_CAP", 8)
        f = parse_expression(dense_text(3))
        assert pauli.pbf_to_pauli(f) == ref_pbf_to_pauli(f)
        with pytest.raises(EnumerationCapError, match="needs 16 subset terms, over cap 8"):
            pauli.pbf_to_pauli(parse_expression(dense_text(4)))

    def test_pauli_dense_n12_file_expands(self, capsys, tmp_path):
        from pbkernel.expr import parse as parse_expression
        from pbkernel.pauli import pauli_to_pbf

        path = tmp_path / "dense12.pbf"
        path.write_text(dense_text(12) + "\n")
        code, out, err = run(capsys, "pbf", "pauli", str(path), "--json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        text = "\n".join(f"{c} {w}" for c, w in payload["terms"])
        assert pauli_to_pbf(PauliSum.from_text(text)) == parse_expression(dense_text(12))

    def test_pauli_degree_30_monomial_exits_2_in_bounded_memory(self, capsys, tmp_path):
        path = tmp_path / "deg30.pbf"
        path.write_text(monomial(30) + "\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "pbf", "pauli", str(path), "--json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == "error: Z-basis expansion needs 1073741824 subset terms, over cap 65536\n"
        assert peak < 1 << 20

    def test_pauli_at_the_default_cap_expands(self):
        from pbkernel.expr import parse as parse_expression
        from pbkernel.pauli import pbf_to_pauli

        assert len(pbf_to_pauli(parse_expression(monomial(16)))) == 1 << 16

    def test_product_cap_boundary(self, monkeypatch):
        from pbkernel import ParseError, expr
        from pbkernel.expr import parse as parse_expression

        monkeypatch.setattr(expr, "PRODUCT_CAP", 16)
        assert len(list(parse_expression(binomial_product(4)).terms())) == 16
        assert len(list(parse_expression("(x1+x2+x3+x4)*(x5+x6+x7+x8)").terms())) == 16
        with pytest.raises(ParseError, match="needs 32 term products, over cap 16"):
            parse_expression(binomial_product(5))
        with pytest.raises(ParseError, match="needs 20 term products, over cap 16"):
            parse_expression("(x1+x2+x3+x4)*(x5+x6+x7+x8+x9)")

    def test_product_over_cap_exits_2_naming_position_count_and_cap(self, capsys, tmp_path, monkeypatch):
        from pbkernel import expr

        monkeypatch.setattr(expr, "PRODUCT_CAP", 1 << 10)
        path = tmp_path / "product.pbf"
        path.write_text(binomial_product(20) + "\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "pbf", "kernel", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pos = len(binomial_product(10))  # the '*' before the eleventh factor
        assert code == 2 and out == ""
        assert err == (
            f"error: product at line 1, column {pos + 1} needs 2048 term products, over cap 1024"
            f" (at position {pos})\n"
        )
        assert peak < 4 << 20


class TestParserReuse:
    """``main`` builds its parser once per process; every later call must
    behave as it would on a freshly built parser."""

    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch, tmp_path, delta_file, ghz3_file):
        from pbkernel import cli

        files = {
            "ghz.state": "000 1 0\n111 1 0\n",
            "net.json": json.dumps({"gates": [
                {"type": "or", "inputs": ["x1", "x2"], "output": "w"},
                {"type": "and", "inputs": ["w", "y2"], "output": "p"},
            ]}),
            "pair.txt": "0000\n1111\n",
            "even3.txt": "000\n011\n101\n110\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        state, net, pair, even3 = (str(tmp_path / name) for name in files)
        commands = [
            ["pbf", "kernel", delta_file],
            ["pbf", "eval", delta_file, "--at", "110"],
            ["pbf", "nonneg", delta_file, "--arity", "4"],
            ["pbf", "pauli", delta_file],
            ["sym", "factor", delta_file],
            ["sym", "profile", delta_file],
            ["parent", "clifford", ghz3_file, "--verify"],
            ["parent", "clifford", ghz3_file],
            ["parent", "support", state],
            ["parent", "ghz-quadratic", "-n", "3"],
            ["gadget", "compose", net, "--clamp", "p=1", "--clamp", "x1=0", "--minimize"],
            ["gadget", "compose", net],
            ["ising", "realize", pair, "-n", "4"],
            ["ising", "realize", even3, "-n", "3"],
        ]
        commands = [argv + mode for argv in commands for mode in ([], ["--json"])]
        usage_errors = [
            ["pbf", "frobnicate", delta_file],
            ["parent", "ghz-quadratic", "--json"],
            ["pbf", "kernel", delta_file, "--arity", "x"],
            ["ising", "realize"],
            [],
        ]
        helps = [["--help"], ["parent", "clifford", "--help"], ["gadget", "compose", "-h"]]
        input_errors = [["pbf", "eval", delta_file], ["pbf", "kernel", str(tmp_path / "missing.pbf")]]
        odd = usage_errors + helps + input_errors
        calls = [argv for pair_ in zip_longest(commands, odd) for argv in pair_ if argv is not None]

        def outcome(argv):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            out = capsys.readouterr()
            return code, re.sub(r"(?m)^elapsed: \S+$", "elapsed: -", out.out), out.err

        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        reused = {tuple(argv): outcome(argv) for argv in calls}
        cli._parser.cache_clear()
        assert len(builds) == 1

        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = {tuple(argv): outcome(argv) for argv in calls}
        assert len(builds) == 1
        assert reused == fresh
        assert [reused[tuple(argv)][0] for argv in usage_errors] == ["SystemExit(2)"] * len(usage_errors)
        assert [reused[tuple(argv)][0] for argv in helps] == ["SystemExit(0)"] * len(helps)
        assert [reused[tuple(argv)][0] for argv in input_errors] == [2, 2]
        assert all(reused[tuple(argv)][0] == 0 for argv in commands)
