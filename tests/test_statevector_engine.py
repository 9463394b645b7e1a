"""The integer statevector engine against the per-index reference loops.

``apply_circuit`` and ``PauliSum.apply`` must give exactly the amplitudes
of the loops in ``conftest`` on rational and ``ExactComplex`` inputs, on
both sides of the int64 bound of the engine, and the same numbers up to
rounding on float and complex inputs.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    CliffordCircuit,
    DimensionError,
    ExactComplex,
    PauliSum,
    StateVector,
    apply_circuit,
    projector_parent,
)
from pbkernel.pauli import _ZERO, _Amplitudes
from pbkernel.stabilizer import cnot, h, s, x, z
from conftest import random_clifford_circuit, ref_apply_circuit, ref_pauli_apply

BIG = 1 << 62


def assert_same_amplitudes(got, want):
    assert got.n == want.n
    assert len(got.amps) == len(want.amps)
    for k, (a, b) in enumerate(zip(got.amps, want.amps)):
        assert a == b, f"amplitude {k}: {a!r} != {b!r}"


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 7)))


def random_states(rng, n):
    """Rational, ExactComplex, sparse and integer inputs at arity n."""
    size = 1 << n
    return [
        StateVector.basis_state(n, rng.randrange(size)),
        StateVector(n, [rational(rng) for _ in range(size)]),
        StateVector(n, [ExactComplex(rational(rng), rational(rng)) for _ in range(size)]),
        StateVector(n, [rng.choice((0, 0, rng.randint(-4, 4), ExactComplex(0, rational(rng))))
                        for _ in range(size)]),
    ]


def random_pauli_sum(rng, n, num_terms):
    words = {"".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(num_terms)}
    return PauliSum(n, {w: Fraction(rng.randint(-6, 6) or 1, rng.choice((1, 2, 3, 4, 6))) for w in words})


def recorded_dtypes(monkeypatch):
    """Patch the engine's constructor to record the dtype it picks."""
    seen = []
    of = _Amplitudes.of.__func__

    def spy(cls, v, growth):
        amps = of(cls, v, growth)
        seen.append(amps.re.dtype)
        return amps

    monkeypatch.setattr(_Amplitudes, "of", classmethod(spy))
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
