"""Clifford conjugation, projector parents, kernel certification."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pbkernel import (
    CliffordCircuit,
    ExactComplex,
    PauliSum,
    StateVector,
    SymplecticPauli,
    apply_circuit,
    conjugate,
    conjugate_sum,
    conjugated_generators,
    dense_pauli_coefficients,
    ghz_circuit,
    kernel_dimension,
    pauli_cardinality,
    pbf_to_pauli,
    projector_parent,
    trivial_parent,
)
from pbkernel.stabilizer import cnot, h, s, x, z
from conftest import (
    assignments,
    dense_circuit,
    dense_pauli_sum,
    dense_word,
    random_clifford_circuit,
    random_pbf,
    ref_pauli_mul,
)


def conj_dense(circuit, pauli):
    u = dense_circuit(circuit)
    mat = pauli.sign * dense_word(pauli.letters())
    return u @ mat @ u.conj().T


def assert_conjugation_matches_dense(circuit, pauli):
    out = conjugate(circuit, pauli)
    expect = conj_dense(circuit, pauli)
    got = out.sign * dense_word(out.letters())
    assert np.allclose(got, expect)


ALL_2Q_PAULIS = [
    SymplecticPauli.from_letters(a + b) for a, b in product("IXYZ", repeat=2)
]


class TestConjugation:
    def test_hadamard_swaps_x_and_z(self):
        c = CliffordCircuit(1, (h(0),))
        out = conjugate(c, SymplecticPauli.from_letters("Z"))
        assert out.letters() == "X" and out.sign == 1
        out = conjugate(c, SymplecticPauli.from_letters("X"))
        assert out.letters() == "Z" and out.sign == 1
        out = conjugate(c, SymplecticPauli.from_letters("Y"))
        assert out.letters() == "Y" and out.sign == -1

    def test_every_gate_matches_dense_on_two_qubits(self):
        gates = [h(0), h(1), s(0), s(1), x(0), z(1), cnot(0, 1), cnot(1, 0)]
        for gate in gates:
            circuit = CliffordCircuit(2, (gate,))
            for p in ALL_2Q_PAULIS:
                assert_conjugation_matches_dense(circuit, p)

    def test_ghz3_generator_images(self):
        c = ghz_circuit(3)
        images = {
            "ZII": ("XXX", 1),
            "IZI": ("ZZI", 1),
            "IIZ": ("IZZ", 1),
        }
        for letters, (expect, sign) in images.items():
            out = conjugate(c, SymplecticPauli.from_letters(letters))
            assert (out.letters(), out.sign) == (expect, sign)
            assert_conjugation_matches_dense(c, SymplecticPauli.from_letters(letters))

    def test_random_circuits_match_dense(self, rng):
        for _ in range(10):
            n = rng.randint(1, 4)
            c = random_clifford_circuit(rng, n, num_gates=10)
            word = "".join(rng.choice("IXYZ") for _ in range(n))
            assert_conjugation_matches_dense(c, SymplecticPauli.from_letters(word))

    def test_commutation_preserved(self, rng):
        for _ in range(20):
            n = rng.randint(2, 6)
            c = random_clifford_circuit(rng, n)
            p = SymplecticPauli.from_letters("".join(rng.choice("IXYZ") for _ in range(n)))
            q = SymplecticPauli.from_letters("".join(rng.choice("IXYZ") for _ in range(n)))
            assert p.commutes(q) == conjugate(c, p).commutes(conjugate(c, q))

    def test_symplectic_product_preserved_per_gate(self):
        # exhaustive over ordered 2-qubit Pauli pairs for every gate kind
        for gate in (h(0), s(1), x(0), z(0), cnot(0, 1)):
            circuit = CliffordCircuit(2, (gate,))
            for p in ALL_2Q_PAULIS:
                for q in ALL_2Q_PAULIS:
                    assert p.commutes(q) == conjugate(circuit, p).commutes(
                        conjugate(circuit, q)
                    )

    def test_group_action(self, rng):
        for _ in range(10):
            n = rng.randint(1, 5)
            first = random_clifford_circuit(rng, n, num_gates=6)
            second = random_clifford_circuit(rng, n, num_gates=6)
            p = SymplecticPauli.from_letters("".join(rng.choice("IXYZ") for _ in range(n)))
            combined = conjugate(first.followed_by(second), p)
            nested = conjugate(second, conjugate(first, p))
            assert combined == nested

    def test_conjugate_sum_folds_signs(self, rng):
        n = 3
        c = random_clifford_circuit(rng, n)
        ps = pbf_to_pauli(random_pbf(rng, n))
        out = conjugate_sum(c, ps)
        assert np.allclose(
            dense_pauli_sum(out),
            dense_circuit(c) @ dense_pauli_sum(ps) @ dense_circuit(c).conj().T,
        )


def product_outcome(mul, a, b):
    try:
        p = mul(a, b)
    except ValueError as exc:
        return str(exc)
    return p.letters(), p.sign


class TestPauliProduct:
    def test_every_pair_of_short_words_matches_the_phase_table(self):
        for n in (1, 2):
            words = [
                SymplecticPauli.from_letters("".join(w), sign)
                for w in product("IXYZ", repeat=n)
                for sign in (1, -1)
            ]
            for a, b in product(words, repeat=2):
                assert product_outcome(SymplecticPauli.__mul__, a, b) == product_outcome(
                    ref_pauli_mul, a, b
                )

    def test_random_64_qubit_pairs_match_the_phase_table(self, rng):
        # about half of random pairs commute, so both outcomes are drawn often
        for _ in range(2000):
            a, b = (
                SymplecticPauli(64, rng.getrandbits(64), rng.getrandbits(64), rng.choice((1, -1)))
                for _ in "ab"
            )
            assert product_outcome(SymplecticPauli.__mul__, a, b) == product_outcome(
                ref_pauli_mul, a, b
            )


def test_is_identity_means_the_identity_matrix():
    for n in (1, 2):
        for letters in product("IXYZ", repeat=n):
            for sign in (1, -1):
                p = SymplecticPauli.from_letters("".join(letters), sign)
                # the sign is kept apart from the word, so -I is an identity word too
                assert p.is_identity() == np.allclose(dense_word(p.letters()), np.eye(1 << n))
    assert SymplecticPauli(64, 0, 0, -1).is_identity()
    assert not SymplecticPauli(64, 0, 1 << 63, 1).is_identity()


class TestProjectorParent:
    def test_empty_circuit_counts_ones(self):
        c = CliffordCircuit(2, ())
        parent = projector_parent(c)
        expect = PauliSum(2, {"II": 1, "ZI": Fraction(-1, 2), "IZ": Fraction(-1, 2)})
        assert parent == expect
        for bits in assignments(2):
            out = parent.apply(StateVector.basis_state(2, bits))
            if bits == (0, 0):
                assert out.is_zero()
            else:
                assert not out.is_zero()

    def test_ghz3_parent_exact(self):
        parent = projector_parent(ghz_circuit(3))
        expect = PauliSum(3, {
            "III": Fraction(3, 2),
            "ZZI": Fraction(-1, 2),
            "IZZ": Fraction(-1, 2),
            "XXX": Fraction(-1, 2),
        })
        assert parent == expect

    def test_ghz_parent_annihilates_ghz(self):
        for n in (2, 3, 5, 8):
            parent = projector_parent(ghz_circuit(n))
            assert parent.apply(StateVector.ghz_state(n)).is_zero()

    def test_eigenvalue_relation_random_circuits(self, rng):
        for _ in range(5):
            n = rng.randint(2, 6)
            c = random_clifford_circuit(rng, n)
            parent = projector_parent(c)
            for _ in range(4):
                bits = tuple(rng.randint(0, 1) for _ in range(n))
                u_x = apply_circuit(c, StateVector.basis_state(n, bits))
                assert parent.apply(u_x) == u_x.scaled(Fraction(sum(bits)))

    def test_term_count_at_most_n_plus_one(self, rng):
        for _ in range(10):
            n = rng.randint(2, 6)
            c = random_clifford_circuit(rng, n)
            assert pauli_cardinality(projector_parent(c)) <= n + 1

    def test_ghz10_has_eleven_terms(self):
        assert pauli_cardinality(projector_parent(ghz_circuit(10))) == 11


class TestGhzCircuit:
    def test_gate_list(self):
        c = ghz_circuit(2)
        assert c.gates == (h(0), cnot(0, 1))

    def test_prepares_bell_state(self):
        state = apply_circuit(ghz_circuit(2), StateVector.basis_state(2, 0))
        assert state.amps == [1, 0, 0, 1]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ghz_circuit(1)


class TestKernelDimension:
    def test_ghz_generators_unique_kernel(self):
        gens = [
            SymplecticPauli.from_letters("ZZI"),
            SymplecticPauli.from_letters("IZZ"),
            SymplecticPauli.from_letters("XXX"),
        ]
        assert kernel_dimension(gens) == 1

    def test_single_constraint(self):
        assert kernel_dimension([SymplecticPauli.from_letters("ZI")]) == 2

    def test_sign_contradiction_empties_kernel(self):
        gens = [
            SymplecticPauli.from_letters("ZI"),
            SymplecticPauli.from_letters("ZI", sign=-1),
        ]
        assert kernel_dimension(gens) == 0

    def test_redundant_generator_dropped(self):
        a = SymplecticPauli.from_letters("ZZ")
        b = SymplecticPauli.from_letters("IZ")
        c = a * b  # = Z x Z * I x Z = Z x I
        assert kernel_dimension([a, b, c]) == 1

    def test_anticommuting_rejected(self):
        with pytest.raises(ValueError):
            kernel_dimension([
                SymplecticPauli.from_letters("X"),
                SymplecticPauli.from_letters("Z"),
            ])

    def test_matches_dense_null_space(self, rng):
        for _ in range(8):
            n = rng.randint(2, 6)
            c = random_clifford_circuit(rng, n)
            dim = kernel_dimension(conjugated_generators(c))
            mat = dense_pauli_sum(projector_parent(c))
            eigenvalues = np.linalg.eigvalsh(mat)
            assert dim == int(np.sum(np.abs(eigenvalues) < 1e-9))


class TestApplyCircuit:
    def test_matches_dense_up_to_hadamard_scale(self, rng):
        for _ in range(8):
            n = rng.randint(1, 4)
            c = random_clifford_circuit(rng, n, num_gates=8)
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            got = apply_circuit(c, StateVector.basis_state(n, bits)).to_numpy()
            num_h = sum(1 for g in c.gates if g.kind == "h")
            expect = dense_circuit(c) @ StateVector.basis_state(n, bits).to_numpy()
            assert np.allclose(got, expect * 2 ** (num_h / 2))

    def test_s_gate_exact_phase(self):
        c = CliffordCircuit(1, (s(0),))
        out = apply_circuit(c, StateVector.basis_state(1, 1))
        assert out.amps[1] == ExactComplex(0, 1)

    def test_parent_annihilates_prepared_state(self, rng):
        for n in [rng.randint(2, 6) for _ in range(5)] + [10, 12]:
            c = random_clifford_circuit(rng, n)
            state = apply_circuit(c, StateVector.basis_state(n, 0))
            assert projector_parent(c).apply(state).is_zero()


class TestTrivialParent:
    def test_single_qubit(self):
        gamma = trivial_parent(StateVector.basis_state(1, 0))
        assert np.allclose(gamma, np.diag([0, 1]))

    def test_ghz3_projector_identities(self):
        v = StateVector.ghz_state(3, normalized=True)
        gamma = trivial_parent(v)
        assert np.allclose(gamma @ v.to_numpy(), 0, atol=1e-12)
        assert np.allclose(gamma @ gamma, gamma, atol=1e-12)

    def test_ghz3_pauli_cardinality_is_eight(self):
        # 4 diagonal strings + 4 X/Y strings survive in |GHZ><GHZ|, and the
        # subtraction from the identity keeps all 8 coefficients nonzero
        gamma = trivial_parent(StateVector.ghz_state(3, normalized=True))
        coeffs = dense_pauli_coefficients(gamma)
        assert len(coeffs) == 8

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            trivial_parent(StateVector.ghz_state(3))


class TestTextFormat:
    def test_round_trip(self):
        c = ghz_circuit(4)
        assert CliffordCircuit.from_text(c.to_text()) == c

    def test_parse_example(self):
        text = "qubits 3\nh 1\ncnot 1 2\ncnot 2 3\n"
        assert CliffordCircuit.from_text(text) == ghz_circuit(3)

    def test_missing_header_rejected(self):
        from pbkernel import ParseError

        with pytest.raises(ParseError):
            CliffordCircuit.from_text("h 1\n")


class TestErrorPaths:
    def test_conjugate_arity_mismatch(self):
        from pbkernel import DimensionError, conjugate

        with pytest.raises(DimensionError):
            conjugate(ghz_circuit(3), SymplecticPauli.from_letters("ZZ"))

    def test_trivial_parent_cap(self):
        from pbkernel import EnumerationCapError

        with pytest.raises(EnumerationCapError):
            trivial_parent(StateVector.basis_state(11, 0))

    def test_trivial_parent_cap_is_the_named_constant(self, monkeypatch):
        from pbkernel import EnumerationCapError, stabilizer

        assert stabilizer.PROJECTOR_CAP == 10
        monkeypatch.setattr(stabilizer, "PROJECTOR_CAP", 1)
        with pytest.raises(EnumerationCapError, match="^dense projector at arity 2 is over cap 1$"):
            trivial_parent(StateVector.ghz_state(2, normalized=True))
        assert trivial_parent(StateVector.basis_state(1, 0)).shape == (2, 2)

    def test_symmetry_scan_cap(self):
        from pbkernel import EnumerationCapError, detect_symmetric
        from pbkernel import PseudoBoolean

        with pytest.raises(EnumerationCapError):
            detect_symmetric(PseudoBoolean.zero(12), cap=10)
