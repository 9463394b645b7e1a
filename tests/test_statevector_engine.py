"""The integer statevector engine against the per-index reference loops.

``apply_circuit`` and ``PauliSum.apply`` must give exactly the amplitudes
of the loops in ``conftest`` on rational and ``ExactComplex`` inputs, on
both sides of the int64 bound of the engine, and the same numbers up to
rounding on float and complex inputs.  The readers of the one exact table
(``amps``, ``amplitude``, ``to_numpy``, ``==``, ``is_zero``,
``gadgets.support``) and ``DiagonalOperator`` must match the list-form
code kept in ``conftest``.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    CliffordCircuit,
    DiagonalOperator,
    DimensionError,
    ExactComplex,
    PauliSum,
    StateVector,
    apply_circuit,
    embed_diagonal,
    embed_state,
    pbf,
    projector_parent,
    support,
    support_parent,
)
from pbkernel.gadgets import SupportSet
from pbkernel.pauli import _ZERO
from pbkernel.stabilizer import cnot, h, s, x, z
from conftest import (random_clifford_circuit, random_pbf, ref_amps, ref_apply_circuit, ref_diag,
                      ref_diagonal_apply, ref_is_zero, ref_kernel_indices, ref_pauli_apply, ref_state_eq,
                      ref_support, ref_to_numpy)

BIG = 1 << 62


def assert_same_amplitudes(got, want):
    assert got.n == want.n
    assert len(got.amps) == len(want.amps)
    for k, (a, b) in enumerate(zip(got.amps, want.amps)):
        assert a == b, f"amplitude {k}: {a!r} != {b!r}"


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 7)))


def random_amplitudes(rng, n):
    """Rational, ExactComplex, and sparse integer and imaginary amplitude lists at arity n."""
    size = 1 << n
    return [
        [rational(rng) for _ in range(size)],
        [ExactComplex(rational(rng), rational(rng)) for _ in range(size)],
        [rng.choice((0, 0, rng.randint(-4, 4), ExactComplex(0, rational(rng)))) for _ in range(size)],
    ]


def random_states(rng, n):
    """A basis state and the :func:`random_amplitudes` vectors at arity n."""
    basis = StateVector.basis_state(n, rng.randrange(1 << n))
    return [basis] + [StateVector(n, a) for a in random_amplitudes(rng, n)]


def random_pauli_sum(rng, n, num_terms):
    words = {"".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(num_terms)}
    return PauliSum(n, {w: Fraction(rng.randint(-6, 6) or 1, rng.choice((1, 2, 3, 4, 6))) for w in words})


def recorded_dtypes(monkeypatch):
    """Patch the engine's widening step to record the dtype it picks."""
    seen = []
    widened = StateVector._widened

    def spy(v, growth):
        re, im = widened(v, growth)
        seen.append(re.dtype)
        return re, im

    monkeypatch.setattr(StateVector, "_widened", spy)
    return seen


@pytest.mark.parametrize("n", range(1, 9))
def test_random_circuits_match_the_reference(n):
    rng = random.Random(40 + n)
    for _ in range(3):
        c = random_clifford_circuit(rng, n, num_gates=4 * n + 4)
        for v in random_states(rng, n):
            assert_same_amplitudes(apply_circuit(c, v), ref_apply_circuit(c, v))


def test_every_gate_kind_on_every_qubit_pair():
    rng = random.Random(5)
    n = 4
    v = StateVector(n, [ExactComplex(rational(rng), rational(rng)) for _ in range(1 << n)])
    for q in range(n):
        for gate in (h(q), s(q), x(q), z(q)):
            c = CliffordCircuit(n, (gate,))
            assert_same_amplitudes(apply_circuit(c, v), ref_apply_circuit(c, v))
        for t in range(n):
            if t != q:
                c = CliffordCircuit(n, (cnot(q, t),))
                assert_same_amplitudes(apply_circuit(c, v), ref_apply_circuit(c, v))


def test_qubit_zero_is_the_most_significant_bit():
    out = apply_circuit(CliffordCircuit(3, (x(0),)), StateVector.basis_state(3, 0))
    assert out == StateVector.basis_state(3, 0b100)
    out = apply_circuit(CliffordCircuit(3, (x(0), cnot(0, 2))), StateVector.basis_state(3, 0))
    assert out == StateVector.basis_state(3, 0b101)
    out = PauliSum(3, {"XII": 1}).apply(StateVector.basis_state(3, 0))
    assert out == StateVector.basis_state(3, 0b100)


@pytest.mark.parametrize("n", range(0, 8))
def test_random_pauli_sums_match_the_reference(n):
    rng = random.Random(70 + n)
    for num_terms in (0, 1, 3, 8):
        ps = random_pauli_sum(rng, n, num_terms)
        for v in random_states(rng, n):
            assert_same_amplitudes(ps.apply(v), ref_pauli_apply(ps, v))


def test_pauli_sum_with_coefficient_lcm_and_every_letter():
    ps = PauliSum(3, {"XYZ": Fraction(1, 3), "YYI": Fraction(-2, 5), "ZIX": Fraction(3, 4), "III": 7})
    rng = random.Random(9)
    for v in random_states(rng, 3):
        assert_same_amplitudes(ps.apply(v), ref_pauli_apply(ps, v))


def test_parent_eigenvalues_are_exact():
    rng = random.Random(11)
    for n in (2, 5, 8):
        c = random_clifford_circuit(rng, n, num_gates=3 * n)
        parent = projector_parent(c)
        for _ in range(4):
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            u_x = apply_circuit(c, StateVector.basis_state(n, bits))
            assert_same_amplitudes(parent.apply(u_x), ref_pauli_apply(parent, u_x))
            assert parent.apply(u_x) == u_x.scaled(Fraction(sum(bits)))


def test_conversion_back_builds_the_fewest_objects():
    v = StateVector(2, [Fraction(1, 2), 0, ExactComplex(0, 3), 0])
    out = apply_circuit(CliffordCircuit(2, (z(1),)), v).amps
    assert out[1] is _ZERO and out[3] is _ZERO
    assert type(out[0]) is Fraction and out[0] == Fraction(1, 2)
    assert type(out[2]) is ExactComplex and out[2] == ExactComplex(0, 3)
    out = apply_circuit(CliffordCircuit(1, (s(0), s(0))), StateVector.basis_state(1, 1)).amps
    assert out[0] is _ZERO and type(out[1]) is Fraction and out[1] == -1  # i * i


# -- the int64 bound -------------------------------------------------------

CIRCUIT_BOUND_CASES = [
    # max|numerator| * 2^(#H) = 2^62 - 1: int64
    ([BIG - 1, -(BIG - 1)], (z(0), x(0), s(0)), np.int64),
    # 2^62 - 2 with one H; the H output reaches 2^62 - 2
    ([BIG // 2 - 1, -(BIG // 2 - 1)], (h(0),), np.int64),
    # exactly 2^62: Python ints
    ([BIG, 0], (s(0),), object),
    ([BIG // 2, BIG // 2], (h(0),), object),
    # 2^63 and 2^64 after two and four H gates, past every int64
    ([BIG, BIG], (h(0), h(0)), object),
    ([BIG // 4, -(BIG // 4)], (h(0), s(0), h(0), h(0), h(0)), object),
    # each below 2^61, pushed over 2^62 by the denominator LCM 15
    ([Fraction(1 << 61, 3), ExactComplex(0, Fraction(-(1 << 60), 5))], (h(0),), object),
    ([Fraction(1 << 57, 3), ExactComplex(0, Fraction(-(1 << 56), 5))], (h(0),), np.int64),
]


@pytest.mark.parametrize("amps, gates, dtype", CIRCUIT_BOUND_CASES)
def test_circuit_at_the_int64_bound(monkeypatch, amps, gates, dtype):
    seen = recorded_dtypes(monkeypatch)
    c = CliffordCircuit(1, gates)
    v = StateVector(1, amps)
    got = apply_circuit(c, v)
    assert seen == [dtype]
    assert_same_amplitudes(got, ref_apply_circuit(c, v))


PAULI_BOUND_CASES = [
    # coefficient numerators 1 and 2 over LCM 3: sum 3, times (2^62 - 1) / 3
    ({"I": Fraction(1, 3), "Z": Fraction(2, 3)}, [(BIG - 1) // 3, 1], np.int64),
    ({"I": Fraction(1, 3), "Y": Fraction(2, 3)}, [(BIG - 1) // 3, ExactComplex(0, 1)], np.int64),
    # sum 4 times 2^60 = 2^62
    ({"I": 1, "Z": 3}, [BIG // 4, 0], object),
    # sum 6 times 2^61 reaches 3 * 2^62 in the output
    ({"I": 3, "Z": 3}, [BIG // 2, 0], object),
    ({"X": Fraction(3, 2), "Y": Fraction(-3, 2)}, [BIG // 2, ExactComplex(0, BIG // 2)], object),
    # an enormous coefficient on a small state
    ({"X": 1 << 80}, [1, 0], object),
    # the zero state still bounds by max(1, max|numerator|)
    ({"X": BIG}, [0, 0], object),
    ({"X": BIG - 1}, [0, 0], np.int64),
]


@pytest.mark.parametrize("terms, amps, dtype", PAULI_BOUND_CASES)
def test_pauli_sum_at_the_int64_bound(monkeypatch, terms, amps, dtype):
    seen = recorded_dtypes(monkeypatch)
    ps = PauliSum(1, terms)
    v = StateVector(1, amps)
    got = ps.apply(v)
    assert seen == [dtype]
    assert_same_amplitudes(got, ref_pauli_apply(ps, v))


def assert_exact_zero(got, want):
    assert got.exact and got.is_zero() and got.denom == 1
    assert got == StateVector.zeros(got.n)
    assert_same_amplitudes(got, want)


@pytest.mark.parametrize("power", [40, 41])  # 3^40 > 2^63, 3^41 > 2^64
def test_zero_result_over_a_denominator_past_int64(power):
    d = 3 ** power
    v = StateVector(1, [Fraction(1, d), Fraction(-1, d)])
    assert v.denom == d and v.re.dtype == np.int64
    ps = PauliSum(1, {"I": 1, "X": 1})
    assert_exact_zero(ps.apply(v), ref_pauli_apply(ps, v))
    w = StateVector(2, [Fraction(1, d), 0, ExactComplex(0, Fraction(2, d)), 0])
    for op in (support_parent(support(w)), DiagonalOperator(2, [0, 5, 0, 7])):
        assert_exact_zero(op.apply(w), ref_diagonal_apply(op.diag, w))
    op = DiagonalOperator(1, [0, Fraction(1, d)])  # the diagonal's own denominator
    assert op.denom == d
    assert_exact_zero(op.apply(StateVector.basis_state(1, 0)), StateVector.zeros(1))


# -- inexact inputs ----------------------------------------------------------

def float_states(rng, n):
    size = 1 << n
    return [
        StateVector(n, [rng.uniform(-1, 1) for _ in range(size)]),
        StateVector(n, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)]),
        # one float makes the whole vector inexact
        StateVector(n, [0.5] + [rational(rng) for _ in range(size - 1)]),
        StateVector.ghz_state(n, normalized=True),
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_float_and_complex_inputs(n):
    rng = random.Random(90 + n)
    c = random_clifford_circuit(rng, n, num_gates=4 * n)
    ps = random_pauli_sum(rng, n, 6)
    for v in float_states(rng, n):
        got = apply_circuit(c, v)
        assert np.allclose(got.to_numpy(), ref_apply_circuit(c, v).to_numpy())
        got = ps.apply(v)
        assert np.allclose(got.to_numpy(), ref_pauli_apply(ps, v).to_numpy())


def test_float_outputs_are_plain_floats_and_complexes():
    out = apply_circuit(CliffordCircuit(1, (h(0), s(0))), StateVector(1, [0.5, 0.0])).amps
    assert out == [0.5, 0.5j]
    assert type(out[0]) is float and type(out[1]) is complex


# -- errors ------------------------------------------------------------------

def test_dimension_errors_are_unchanged():
    with pytest.raises(DimensionError, match=r"^arity mismatch: circuit 2 vs state 3$"):
        apply_circuit(CliffordCircuit(2, (h(0),)), StateVector.basis_state(3, 0))
    with pytest.raises(DimensionError, match=r"^arity mismatch: 2 vs 3$"):
        PauliSum.identity(2).apply(StateVector.basis_state(3, 0))


# -- one exact table: the list-form readers and diagonals ---------------------

def table_inputs(rng, n):
    """The random_amplitudes lists, float, complex and mixed float/Fraction
    lists, numerators near 2^60 over 3 (past 2^53, so a float64 division
    would round twice) and integers past int64."""
    size = 1 << n
    big = 1 << 60
    return random_amplitudes(rng, n) + [
        [rng.uniform(-1, 1) for _ in range(size)],
        [complex(rng.uniform(-1, 1), rng.choice((0.0, rng.uniform(-1, 1)))) for _ in range(size)],
        [0.5] + [rng.choice((0, rational(rng))) for _ in range(size - 1)],
        [Fraction(rng.randint(-big, big), 3) for _ in range(size)],
        [ExactComplex(Fraction(rng.randint(-big, big), 3), Fraction(rng.choice((0, big + 1)), 7))
         for _ in range(size)],
        [rng.choice((0, rng.randint(-big, big) << 8)) for _ in range(size)],
    ]


@pytest.mark.parametrize("n", range(0, 7))
def test_amps_and_to_numpy_read_each_entry_as_the_list_form(n):
    rng = random.Random(300 + n)
    for values in table_inputs(rng, n):
        v = StateVector(n, values)
        got, want = v.amps, ref_amps(values)
        for k, (a, b) in enumerate(zip(got, want)):
            assert type(a) is type(b) and a == b, f"amplitude {k}: {a!r} != {b!r}"
            assert (a is _ZERO) == (b is _ZERO)
            assert type(v.amplitude(k)) is type(b) and v.amplitude(k) == b
        assert len(got) == len(want) == 1 << n
        assert np.array_equal(v.to_numpy(), ref_to_numpy(values))  # correctly rounded, bit for bit


@pytest.mark.parametrize("n", range(0, 7))
def test_eq_and_is_zero_match_the_list_form(n):
    rng = random.Random(400 + n)
    states = [StateVector(n, values) for values in table_inputs(rng, n)]
    states += [StateVector.zeros(n), StateVector(n, [0.0] * (1 << n)), StateVector(n, [1e-13] * (1 << n))]
    if n:
        c = random_clifford_circuit(rng, n, num_gates=3 * n)
        parent = projector_parent(c)
        u = apply_circuit(c, StateVector.basis_state(n, 0))
        states += [u, parent.apply(u), u.scaled(Fraction(1, 3)), StateVector(n, [complex(a) for a in u.amps])]
    for u in states:
        for tol in (0.0, 1e-12, 0.5):
            assert u.is_zero(tol) == ref_is_zero(u, tol)
        assert np.array_equal(u.to_numpy(), ref_to_numpy(u.amps))
        for w in states:
            assert (u == w) == ref_state_eq(u, w)
    assert StateVector(1, [Fraction(1, 2), 0]) == StateVector(1, [0.5, 0.0])
    assert StateVector(1, [Fraction(1, 3), 0]) != StateVector(1, [1 / 3, 0.0])


@pytest.mark.parametrize("n", range(0, 7))
def test_support_matches_the_list_form(n):
    rng = random.Random(500 + n)
    for values in table_inputs(rng, n):
        v = StateVector(n, values)
        for tol in (0.0, 1e-12, 0.5):
            assert support(v, tol) == ref_support(v, tol)


def random_diagonal(rng, n):
    big = 1 << 62
    return [rng.choice((0, 0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.choice((2, 3, 7))),
                        rng.randint(-big, big), 0.25)) for _ in range(1 << n)]


@pytest.mark.parametrize("n", range(0, 7))
def test_diagonal_matches_the_list_form(n):
    rng = random.Random(600 + n)
    for _ in range(3):
        values = random_diagonal(rng, n)
        op, diag = DiagonalOperator(n, values), ref_diag(values)
        assert op.diag == diag and all(type(d) is Fraction for d in op.diag)
        assert op.kernel_indices() == ref_kernel_indices(diag)
        assert op == DiagonalOperator(n, diag) and op != DiagonalOperator(n, [d + 1 for d in diag])
        for values in table_inputs(rng, n):
            v = StateVector(n, values)
            assert_same_amplitudes(op.apply(v), ref_diagonal_apply(diag, v))


@pytest.mark.parametrize("n", range(0, 9))
def test_embeddings_hold_the_value_table(n):
    rng = random.Random(700 + n)
    f = random_pbf(rng, n, 6) * Fraction(rng.randint(1, 9), rng.choice((1, 2, 6)))
    table = f.to_disjoint_form()
    op, psi = embed_diagonal(f), embed_state(f)
    assert op == DiagonalOperator(n, table) and op.diag == table
    assert op.kernel_indices() == ref_kernel_indices(table)
    assert psi == StateVector(n, table) and psi.denom == StateVector(n, table).denom  # least terms
    assert_same_amplitudes(psi, StateVector(n, table))


@pytest.mark.parametrize("n", [8, 9, 16])  # both sides of the 2^8-entry dict/np.unique split
def test_diag_builds_one_fraction_per_distinct_value(monkeypatch, n):
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    op = support_parent(SupportSet(n, frozenset({(0,) * n, (1,) * n})))
    monkeypatch.setattr(pbf, "Fraction", Counted)
    diag = op.diag
    assert len(built) == 2 and diag.count(0) == 2 and diag.count(1) == (1 << n) - 2
    assert len({id(d) for d in diag}) == 2 and diag[0] is diag[-1] and diag[1] is diag[-2]
