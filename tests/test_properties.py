"""Property tests on generated inputs (hypothesis, derandomized).

The examples are a fixed function of each test, so a run is
reproducible, and the example counts keep the module to seconds.
"""

import contextlib
import io
import json
import math
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbkernel import (
    CliffordCircuit,
    CliffordGate,
    LPInstance,
    Netlist,
    PauliSum,
    PseudoBoolean,
    StateVector,
    apply_circuit,
    boolean_to_spin,
    clamp,
    compose,
    conjugate_sum,
    ising_form,
    parse,
    pauli_to_pbf,
    pbf_to_pauli,
    projector_parent,
    simplex_solve,
    spin_to_boolean,
)
from pbkernel.cli import main
from pbkernel.stabilizer import cnot
from pbkernel.symmetric import _expand, _rational_roots
from conftest import (
    ref_add,
    ref_clamp,
    ref_compose,
    ref_conjugate_sum,
    ref_embed,
    ref_mul,
    ref_one_pass_parse,
    ref_pauli_add,
    ref_projector_parent,
    ref_rational_roots,
    ref_simplex_solve,
)

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
def quadratics(draw, max_arity=7):
    n = draw(st.integers(0, max_arity))
    masks = st.sets(st.integers(0, max(n - 1, 0)), max_size=min(2, n)).map(
        lambda vs: sum(1 << i for i in vs)
    )
    return PseudoBoolean(n, draw(st.dictionaries(masks, rationals, max_size=12)))


@st.composite
def polynomial_pairs(draw, max_arity=5):
    n = draw(st.integers(0, max_arity))
    masks = st.integers(0, (1 << n) - 1)
    return tuple(PseudoBoolean(n, draw(st.dictionaries(masks, rationals, max_size=6))) for _ in "fg")


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


@FIXED
@given(polynomials())
def test_spin_round_trip(f):
    assert spin_to_boolean(boolean_to_spin(f)) == f
    assert boolean_to_spin(spin_to_boolean(f)) == f


@FIXED
@given(quadratics())
def test_ising_form_agrees_with_the_z_expansion(f):
    def word(qubits):
        return "".join("Z" if i in qubits else "I" for i in range(f.n))

    form = ising_form(f)
    terms = {word(()): form.constant}
    terms.update({word((l,)): h for l, h in enumerate(form.fields)})
    terms.update({word(pair): j for pair, j in form.couplings.items()})
    assert all(form.couplings.values()) and len(terms) == 1 + f.n + len(form.couplings)
    assert PauliSum(f.n, terms) == pbf_to_pauli(f)


@FIXED
@given(polynomials(), st.data())
def test_clamp_commutes_with_eval(f, data):
    if f.n == 0:
        return
    var, value = data.draw(st.integers(0, f.n - 1)), data.draw(st.integers(0, 1))
    clamped = clamp(f, var, value)
    for x in product((0, 1), repeat=f.n - 1):
        assert clamped.eval(x) == f.eval(x[:var] + (value,) + x[var:])


@FIXED
@given(polynomial_pairs())
def test_sum_of_non_negative_penalties_intersects_kernels(pair):
    f, g = (h * h for h in pair)  # squares are non-negative on the cube
    assert (f + g).kernel() == f.kernel() & g.kernel()


@FIXED
@given(polynomial_pairs())
def test_product_unites_kernels(pair):
    f, g = pair
    assert (f * g).kernel() == f.kernel() | g.kernel()


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


# -- the one term-table rule against the loops it replaced --------------------

few_rationals = st.sampled_from(tuple(map(Fraction, (-2, -1, 1, 2, "1/2"))))


def cancelling_tables(draw, keys):
    """Two {key: coefficient} tables over few keys and coefficients; the second
    often negates an entry of the first, so sums cancel."""
    first = draw(st.dictionaries(keys, few_rationals, max_size=6))
    second = {}
    for key in draw(st.lists(keys, max_size=6)):
        second[key] = -first[key] if key in first and draw(st.booleans()) else draw(few_rationals)
    return first, second


@st.composite
def cancelling_polynomials(draw, max_arity=4):
    n = draw(st.integers(0, max_arity))
    return tuple(PseudoBoolean(n, t) for t in cancelling_tables(draw, st.integers(0, (1 << n) - 1)))


def items(table_owner):
    """A term table in its key order, read as Fractions: what the sums must reproduce exactly."""
    if isinstance(table_owner, PseudoBoolean):
        return list(table_owner.masked_terms().items())
    return [(w, table_owner.coefficient(w)) for w in table_owner._terms]


def outcome(fn, *args):
    try:
        return "ok", items(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


@FIXED
@given(cancelling_polynomials())
def test_sum_and_product_tables_match_the_replaced_loops(pair):
    f, g = pair
    assert items(f + g) == items(ref_add(f, g))
    assert items(f - g) == items(ref_add(f, -g))
    assert items(f * g) == items(ref_mul(f, g))
    assert items(g * f) == items(ref_mul(g, f))


#: many ±1 terms over few variables, so terms identified by ``embed`` cancel and come back
unit_polynomials = st.integers(3, 5).flatmap(lambda n: st.dictionaries(
    st.integers(0, (1 << n) - 1), st.sampled_from((Fraction(1), Fraction(-1))), min_size=3, max_size=12
).map(lambda table: PseudoBoolean(n, table)))


@FIXED
@given(unit_polynomials, st.data())
def test_embed_and_clamp_tables_match_the_replaced_loops(f, data):
    arity = data.draw(st.integers(1, 2))
    mapping = data.draw(st.lists(st.integers(0, arity - 1), min_size=f.n, max_size=f.n))
    assert items(f.embed(arity, mapping)) == items(ref_embed(f, arity, mapping))
    assert items(f.embed(f.n + 1)) == items(ref_embed(f, f.n + 1))
    var, value = data.draw(st.integers(0, f.n - 1)), data.draw(st.integers(0, 1))
    assert items(clamp(f, var, value)) == items(ref_clamp(f, var, value))


@st.composite
def wired_netlists(draw):
    """Gate i drives wire gi and reads a, b or earlier gates' wires; clamps may name any wire."""
    wires, gate_list = ["a", "b"], []
    kinds = draw(st.lists(st.sampled_from(("and", "or", "not", "xor")), min_size=1, max_size=6))
    for i, kind in enumerate(kinds):
        width = 1 if kind == "not" else 2
        inputs = draw(st.lists(st.sampled_from(wires), min_size=width, max_size=width))
        gate_list.append({"type": kind, "inputs": inputs, "output": f"g{i}"})
        wires.append(f"g{i}")
    clamps = draw(st.dictionaries(st.sampled_from(wires), st.integers(0, 1), max_size=2))
    return Netlist.from_dict({"gates": gate_list, "clamps": clamps})


@FIXED
@given(wired_netlists())
def test_compose_table_matches_the_replaced_loops(netlist):
    assert outcome(compose, netlist) == outcome(ref_compose, netlist)


@FIXED
@given(circuits(max_qubits=4), st.data())
def test_pauli_sum_tables_match_the_replaced_loops(circuit, data):
    words = st.text(alphabet="IXYZ", min_size=circuit.n, max_size=circuit.n)
    h, k = (PauliSum(circuit.n, t) for t in cancelling_tables(data.draw, words))
    assert items(h + k) == items(ref_pauli_add(h, k))
    assert items(h - k) == items(ref_pauli_add(h, -1 * k))
    assert items(conjugate_sum(circuit, h + k)) == items(ref_conjugate_sum(circuit, h + k))


@FIXED
@given(circuits())
def test_projector_parent_table_matches_the_one_term_sums(circuit):
    assert items(projector_parent(circuit)) == items(ref_projector_parent(circuit))


factors = st.sampled_from(("x1", "x2", "x1", "~x2", "(x1 - x2)", "(x2 - x1*x3 + 1)"))
expression_terms = st.one_of(
    st.sampled_from(("1", "2")),
    st.tuples(st.sampled_from(("", "", "2*")), st.lists(factors, min_size=1, max_size=2))
    .map(lambda t: t[0] + "*".join(t[1])),
)


@FIXED
@given(st.lists(st.tuples(st.sampled_from("+-"), expression_terms), min_size=1, max_size=12))
def test_parse_table_matches_the_replaced_loop(signed_terms):
    text = " ".join(f"{sign} {term}" for sign, term in signed_terms)
    assert items(parse(text)) == items(ref_one_pass_parse(text))


def test_a_key_that_cancels_and_comes_back_moves_to_the_end():
    """Dropping a key at zero and re-adding it puts it after keys first seen in between."""
    f = PseudoBoolean(3, {0b001: 1, 0b100: 5, 0b010: -1, 0: 1})
    xy = PseudoBoolean(3, {0b011: 1})
    assert items(f * xy) == items(ref_mul(f, xy)) == [(0b111, 5), (0b011, 1)]
    f = PseudoBoolean(3, {0b001: 1, 0: 7, 0b010: -1, 0b100: 1})
    assert items(f.embed(1, [0, 0, 0])) == items(ref_embed(f, 1, [0, 0, 0])) == [(0, 7), (1, 1)]
    # a target past the arity is checked only where a term uses it
    x1x2 = PseudoBoolean(3, {0b011: 1})
    assert items(x1x2.embed(3, [0, 1, 99])) == items(ref_embed(x1x2, 3, [0, 1, 99])) == [(0b011, 1)]
    with pytest.raises(ValueError, match="mapped index 99 out of range for arity 3"):
        PseudoBoolean(3, {0b100: 1}).embed(3, [0, 1, 99])
    text = "x1 + 2 - x1 + x1"
    assert items(parse(text)) == items(ref_one_pass_parse(text)) == [(0, 2), (1, 1)]
    nots = [{"type": "not", "inputs": [i], "output": o} for i, o in (("a", "b"), ("b", "c"))]
    netlist = Netlist.from_dict({"gates": nots})
    assert items(compose(netlist)) == items(ref_compose(netlist))
    h = PauliSum(2, {"XI": 1, "ZZ": 2})
    assert items(h + PauliSum(2, {"XI": -1, "YY": 1})) == [("ZZ", 2), ("YY", 1)]


# -- one canonical form for every term table ---------------------------------

def assert_one_form(tables):
    """Term tables built along different paths: equal, held as the same int
    numerators over the same least denominator, and (polynomials) equal hashes."""
    first = tables[0]
    for t in tables:
        assert t == first and t._den == first._den and t._terms == first._terms
        assert all(type(c) is int for c in t._terms.values())
        assert t._den > 0 and math.gcd(t._den, *t._terms.values()) == 1
        if isinstance(t, PseudoBoolean):
            assert hash(t) == hash(first)


@FIXED
@given(polynomials())
def test_every_path_gives_one_canonical_polynomial(f):
    n = f.n
    halves = [str(c / 2) + "".join(f"*x{i + 1}" for i in vars_) for vars_, c in f.terms()] or ["0"]
    assert_one_form([
        f,
        PseudoBoolean.from_terms(n, dict(f.terms())),
        parse(" + ".join(halves * 2), arity=n),  # every coefficient as its two halves
        PseudoBoolean.from_disjoint_form(f.to_disjoint_form()),
        (2 * f) * PseudoBoolean.constant(n, Fraction(1, 2)),
        f * 2 * Fraction(1, 2),
        f + f - f,
        spin_to_boolean(boolean_to_spin(f)),
    ])
    assert_one_form([PseudoBoolean.zero(n), f * 0, 0 * f, f - f, f * Fraction(0)])
    z = pbf_to_pauli(f)
    assert_one_form([z, PauliSum(n, dict(z.terms())), pbf_to_pauli(pauli_to_pbf(z))])


@FIXED
@given(circuits(max_qubits=4), st.data())
def test_every_path_gives_one_canonical_pauli_sum(circuit, data):
    n = circuit.n
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    h = PauliSum(n, data.draw(st.dictionaries(words, rationals, max_size=6)))
    paths = [h, PauliSum(n, dict(h.terms())), 2 * h * Fraction(1, 2), h + h - h]
    if len(h):
        paths.append(PauliSum.from_text(h.to_text()))
    assert_one_form(paths)
    assert_one_form([PauliSum.zero(n), h * 0, h - h])
    parent = projector_parent(circuit)
    assert_one_form([parent, PauliSum(n, dict(parent.terms())), ref_projector_parent(circuit)])
    assert parent._den == 2


def test_cancelling_denominators_leave_integer_tables():
    assert_one_form([parse("1/2*x1 + 1/2*x1"), parse("x1"), PseudoBoolean.from_terms(1, {(0,): 1})])
    assert_one_form([parse("(2*x1)*(1/2*x2)"), parse("x1*x2"), PseudoBoolean.from_terms(2, {(0, 1): 1})])
    assert parse("(2*x1)*(1/2*x2)")._den == 1
    assert_one_form([parse("1/3*x1 + 1/6*x1 - 1/2"), PseudoBoolean.from_terms(1, {(0,): "1/2", (): "-1/2"})])


# -- the integer root search against the Fraction search it replaced ---------

# ascending factors multiplied onto the planted roots: complex and irrational
# pairs the search must leave in the residual, and ends on both sides of 10**15
root_free_tails = st.sampled_from((
    (1,), (1, 0, 1), (-2, 0, 1), (1, 1, 1), (3, 0, 0, 2), (10_007, 0, 1),
    (10**15 + 1, 0, 1), (1, 0, 10**15 + 1), (-(10**15) - 1, 1, 0, 0, 1),
))
root_scales = st.builds(
    Fraction, st.sampled_from((1, -1, 3, -7, 10**14, -(10**14) - 3)), st.sampled_from((1, 2, 9))
)


@settings(FIXED, max_examples=200)
@given(st.lists(rationals, max_size=4), st.integers(0, 2), root_scales, root_free_tails)
def test_rational_roots_match_the_fraction_search(roots, repeats, scale, tail):
    planted = _expand(scale, roots + roots[:1] * repeats)  # zero, repeated, p/q roots
    poly = [Fraction(0)] * (len(planted) + len(tail) - 1)
    for i, a in enumerate(planted):
        for j, b in enumerate(tail):
            poly[i + j] += a * b
    exact, residual = _rational_roots(poly)
    ref_exact, ref_residual = ref_rational_roots(poly)
    assert exact == ref_exact
    assert residual == ref_residual
    assert [float(c) for c in residual] == [float(c) for c in ref_residual]


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


expression_lines = st.lists(
    st.sampled_from(("x1", "x2", "x3", "~x2", "x0", "x21", "x65", "x", "~", "+", "-", "*", "/", "(",
                     ")", "@", "1/0", "1/2", "-3") + TOKENS),
    max_size=6,
).map(" ".join)
expression_commands = st.sampled_from((
    ["pbf", "kernel"], ["pbf", "nonneg"], ["pbf", "pauli"], ["pbf", "eval"], ["sym", "profile"],
    ["sym", "factor"],
))
BIG = "1" + "0" * 309  # 10**309, past the float range


@FIXED
@given(st.lists(expression_lines, max_size=4).map("\n".join), expression_commands)
@example("x1 + x99999999999999999999", ["pbf", "pauli"])
@example("*".join(f"x{i}" for i in range(1, 31)), ["pbf", "pauli"])
@example(" + ".join("*".join(f"x{i + 1}" for i in range(12) if m >> i & 1) for m in range(1, 1 << 12)),
         ["pbf", "pauli"])  # dense: 3^12 subset sums, at most 2^12 keys
@example("*".join(f"(x{2 * i + 1}+x{2 * i + 2})" for i in range(20)), ["pbf", "kernel"])
@example(f"{BIG} + x1 + x2 + 2*x1*x2\n", ["sym", "factor"])
@example(f"-{BIG} + {BIG}*x1 + {BIG}*x2", ["sym", "factor"])
@example("735134400 + 510511*x1 + 510511*x2 + 1021020*x1*x2\n", ["sym", "factor"])
def test_malformed_expression_files_exit_cleanly(text, command):
    tail = ["--at", "101"] if command[1] == "eval" else []
    assert_clean_exit(*run_cli(command, text, tail))


wires = st.sampled_from(("a", "b", "c", "p"))
json_leaves = st.sampled_from((None, True, False, 0, 1, 2, -1, 1.5, 1e400, float("nan"), "a", "p",
                               "and", "not", "xor", "nand", ""))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(("type", "inputs", "output", "gates", "clamps", "a")), inner,
                        max_size=3),
    ),
    max_leaves=8,
)
gate_objects = st.fixed_dictionaries({
    "type": st.sampled_from(("and", "or", "not", "xor", "nand", "AND")),
    "inputs": st.one_of(st.lists(wires, max_size=3), json_values),
    "output": st.one_of(wires, json_values),
})
netlists = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"gates": st.one_of(st.lists(st.one_of(gate_objects, json_values), max_size=4), json_values)},
        optional={"clamps": st.one_of(st.dictionaries(wires, json_leaves, max_size=2), json_values)},
    ),
)


@FIXED
@given(netlists.map(json.dumps), st.booleans(), st.sampled_from(([], ["--clamp", "p=1"], ["--clamp", "c=2"])))
@example("[1, 2]", False, [])
@example('{"gates": {"a": 1}}', False, [])
@example('{"gates": [5]}', False, [])
@example(json.dumps({"gates": [{"type": "not", "inputs": ["a"], "output": "p"}], "clamps": {"p": 1e400}}), True, [])
@example("[" * 100_000, False, [])  # deeper than the JSON decoder can recurse
def test_malformed_netlist_files_exit_cleanly(text, minimize, clamp_args):
    tail = ["--minimize"] * minimize + clamp_args
    assert_clean_exit(*run_cli(["gadget", "compose"], text, tail))


strings_lines = st.one_of(
    st.sampled_from(("# note", "", "01", "0101", "2", "ab", " 011 ", "0 1")),
    st.text(alphabet="01", min_size=1, max_size=5),
)


@FIXED
@given(st.lists(strings_lines, max_size=6).map("\n".join), st.sampled_from(("-1", "0", "1", "2", "3", "13")))
def test_malformed_strings_files_exit_cleanly(text, n):
    assert_clean_exit(*run_cli(["ising", "realize"], text, ["-n", n]))
