"""Property tests on generated inputs (hypothesis, derandomized).

The examples are a fixed function of each test, so a run is
reproducible, and the example counts keep the module to seconds.
"""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbkernel import (
    CliffordCircuit,
    CliffordGate,
    LPInstance,
    PauliSum,
    PseudoBoolean,
    StateVector,
    apply_circuit,
    conjugate_sum,
    parse,
    pauli_to_pbf,
    pbf_to_pauli,
    projector_parent,
    simplex_solve,
)
from pbkernel.cli import main
from pbkernel.stabilizer import cnot
from conftest import ref_simplex_solve

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

rationals = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 4, 6, 7, 9))
)


@st.composite
def polynomials(draw, max_arity=6):
    n = draw(st.integers(0, max_arity))
    masks = st.integers(0, (1 << n) - 1)
    return PseudoBoolean(n, draw(st.dictionaries(masks, rationals, max_size=8)))


@st.composite
def linear_programs(draw):
    nv = draw(st.integers(1, 4))
    rows = st.tuples(st.lists(rationals, min_size=nv, max_size=nv), rationals)
    return LPInstance(
        num_vars=nv,
        objective=draw(st.lists(rationals, min_size=nv, max_size=nv)),
        eq=draw(st.lists(rows, max_size=2)),
        geq=draw(st.lists(rows, max_size=4)),
        nonneg=draw(st.lists(st.booleans(), min_size=nv, max_size=nv)),
        sense=draw(st.sampled_from(("min", "max"))),
    )


@FIXED
@given(polynomials())
def test_text_round_trip(f):
    assert parse(f.to_text(), arity=f.n) == f


@FIXED
@given(polynomials())
def test_pauli_round_trip(f):
    assert pauli_to_pbf(pbf_to_pauli(f)) == f


@FIXED
@given(polynomials())
def test_disjoint_form_round_trip(f):
    assert PseudoBoolean.from_disjoint_form(f.to_disjoint_form()) == f


@settings(FIXED, max_examples=150)
@given(linear_programs())
def test_integer_tableau_matches_the_fraction_reference(lp):
    assert simplex_solve(lp) == ref_simplex_solve(lp)


@st.composite
def circuits(draw, max_qubits=6):
    n = draw(st.integers(2, max_qubits))
    qubit = st.integers(0, n - 1)
    one = st.builds(CliffordGate, st.sampled_from(("h", "s", "x", "z")), qubit)
    two = st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda pair: cnot(*pair))
    return CliffordCircuit(n, tuple(draw(st.lists(st.one_of(one, two), max_size=24))))


@FIXED
@given(circuits(), st.data())
def test_conjugate_sum_preserves_the_term_count(circuit, data):
    words = st.text(alphabet="IXYZ", min_size=circuit.n, max_size=circuit.n)
    hsum = PauliSum(circuit.n, data.draw(st.dictionaries(words, rationals, max_size=8)))
    assert len(conjugate_sum(circuit, hsum)) == len(hsum)


@FIXED
@given(circuits(), st.data())
def test_parent_eigenvalue_is_the_hamming_weight(circuit, data):
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=circuit.n, max_size=circuit.n)))
    u_x = apply_circuit(circuit, StateVector.basis_state(circuit.n, bits))
    assert projector_parent(circuit).apply(u_x) == u_x.scaled(sum(bits))


# -- malformed input files through the CLI -----------------------------------

TOKENS = ("0", "1", "2", "3", "4", "-1", "1.5", "x", "1/2", "99999999999999999999", "")
circuit_lines = st.one_of(
    st.sampled_from(("qubits 3", "qubits 1", "qubits 0", "qubits 65", "qubits x", "qubits",
                     "qubits 2 2", "QUBITS 2", "# note", "")),
    st.lists(st.sampled_from(("h", "s", "x", "z", "cnot", "cz", "H") + TOKENS), max_size=4).map(" ".join),
)
state_lines = st.one_of(
    st.sampled_from(("01 1/0 0", "11 1 0", "# note", "")),
    st.lists(st.sampled_from(("0", "01", "10", "011", "0" * 17, "ab", "1/0", "0/0", "-3/4",
                              "1e3", "nan", "inf", "1/-2", "--1") + TOKENS), max_size=4).map(" ".join),
)


def run_cli(argv_head, text, argv_tail=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv_head, str(path), *argv_tail])
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    assert err.count("\n") == (code == 2) and err.endswith("\n") == (code == 2)
    assert "Traceback" not in out + err


@FIXED
@given(st.lists(circuit_lines, max_size=8).map("\n".join), st.booleans())
@example("qubits 3\nh 0\n", True)
@example("qubits 3\nh 1.5\n", True)
def test_malformed_circuit_files_exit_cleanly(text, verify):
    assert_clean_exit(*run_cli(["parent", "clifford"], text, ["--verify"] if verify else []))


@FIXED
@given(st.lists(state_lines, max_size=6).map("\n".join))
@example("01 1/0 0\n")
def test_malformed_state_files_exit_cleanly(text):
    assert_clean_exit(*run_cli(["parent", "support"], text))
