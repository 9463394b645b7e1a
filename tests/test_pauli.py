"""Operator/state embeddings, Z-basis conversions, statevector action."""

from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    DimensionError,
    EnumerationCapError,
    ExactComplex,
    NotDiagonalError,
    PauliSum,
    PseudoBoolean,
    StateVector,
    embed_diagonal,
    embed_state,
    ising_form,
    parse,
    pauli_cardinality,
    pauli_to_pbf,
    pbf_to_pauli,
)
from conftest import assignments, dense_pauli_sum, random_pbf

DELTA3 = parse("1 - x1 - x2 - x3 + x2*x3 + x1*x3 + x1*x2")


class TestExactComplex:
    def test_arithmetic(self):
        i = ExactComplex(0, 1)
        assert i * i == -1
        assert (i + 1) * (i - 1) == -2
        assert Fraction(1, 2) * i == ExactComplex(0, Fraction(1, 2))
        assert i.conjugate() == ExactComplex(0, -1)
        assert complex(ExactComplex(Fraction(1, 2), 1)) == 0.5 + 1j


class TestEmbeddings:
    def test_zero_function_zero_operator(self):
        op = embed_diagonal(PseudoBoolean.zero(3))
        assert all(v == 0 for v in op.diag)

    def test_delta_diagonal(self):
        op = embed_diagonal(DELTA3)
        assert [v for v in op.diag] == [1, 0, 0, 0, 0, 0, 0, 1]

    def test_diagonal_matches_pointwise(self, rng):
        f = random_pbf(rng, 4)
        op = embed_diagonal(f)
        for idx, x in enumerate(assignments(4)):
            assert op.diag[idx] == f.eval(x)

    def test_constant_state_is_uniform(self):
        v = embed_state(PseudoBoolean.constant(3, 1))
        assert v.amps == [1] * 8

    def test_plus_state_relation(self, rng):
        # H_f applied to the unnormalized plus state is exactly |psi_f>
        for n in (2, 5, 10):
            f = random_pbf(rng, n)
            lhs = embed_diagonal(f).apply(StateVector.plus_state(n))
            assert lhs == embed_state(f)

    def test_satisfiable_indicator_state(self):
        x1 = PseudoBoolean.variable(2, 0)
        x2 = PseudoBoolean.variable(2, 1)
        sat = x1 + x2 - x1 * x2  # indicator of x1 or x2
        unsat = x1 * (1 - x1)
        assert not embed_state(sat).is_zero()
        assert embed_state(unsat).is_zero()


class TestZBasisConversion:
    def test_single_variable(self):
        ps = pbf_to_pauli(PseudoBoolean.variable(1, 0))
        assert ps.terms() == [("I", Fraction(1, 2)), ("Z", Fraction(-1, 2))]

    def test_pair(self):
        ps = pbf_to_pauli(PseudoBoolean.from_terms(2, {(0, 1): 1}))
        quarter = Fraction(1, 4)
        assert dict(ps.terms()) == {
            "II": quarter, "ZI": -quarter, "IZ": -quarter, "ZZ": quarter,
        }

    def test_diagonal_duality_against_dense(self, rng):
        for n in (2, 4, 6):
            f = random_pbf(rng, n)
            mat = dense_pauli_sum(pbf_to_pauli(f))
            assert np.allclose(mat, np.diag(np.diag(mat)))
            diag = embed_diagonal(f).diag
            assert np.allclose(np.diag(mat), [float(v) for v in diag])

    def test_inverse_of_single_z(self):
        ps = PauliSum(1, {"I": Fraction(1, 2), "Z": Fraction(-1, 2)})
        assert pauli_to_pbf(ps) == PseudoBoolean.variable(1, 0)

    def test_linear_affine(self, rng):
        hs = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        ps = PauliSum(3, {
            "ZII": hs[0], "IZI": hs[1], "IIZ": hs[2],
        })
        f = pauli_to_pbf(ps)
        expect = PseudoBoolean.from_terms(
            3, {(): sum(hs), (0,): -2 * hs[0], (1,): -2 * hs[1], (2,): -2 * hs[2]}
        )
        assert f == expect

    def test_round_trip(self, rng):
        for n in range(1, 9):
            f = random_pbf(rng, n)
            assert pauli_to_pbf(pbf_to_pauli(f)) == f

    def test_rejects_off_diagonal(self):
        with pytest.raises(NotDiagonalError):
            pauli_to_pbf(PauliSum(2, {"XI": 1}))

    def test_hermitian_by_construction(self, rng):
        ps = pbf_to_pauli(random_pbf(rng, 4))
        for word, coeff in ps.terms():
            assert isinstance(coeff, Fraction)
            assert set(word) <= set("IXYZ")


class TestCardinality:
    def test_zero_sum(self):
        assert pauli_cardinality(PauliSum.zero(3)) == 0

    def test_triple_product_expands_to_eight(self):
        ps = pbf_to_pauli(PseudoBoolean.from_terms(3, {(0, 1, 2): 1}))
        assert pauli_cardinality(ps) == 8

    def test_cancellation_drops_terms(self):
        a = PauliSum(2, {"XI": 1, "ZZ": 2})
        b = PauliSum(2, {"XI": -1})
        assert pauli_cardinality(a + b) == 1


class TestApply:
    def test_identity(self, rng):
        v = StateVector(3, [Fraction(rng.randint(-3, 3)) for _ in range(8)])
        assert PauliSum.identity(3).apply(v) == v

    def test_x_flips(self):
        v = StateVector.basis_state(2, (0, 1))
        out = PauliSum(2, {"XI": 1}).apply(v)
        assert out == StateVector.basis_state(2, (1, 1))

    def test_y_introduces_exact_i(self):
        v = StateVector.basis_state(1, (0,))
        out = PauliSum(1, {"Y": 1}).apply(v)
        assert out.amps[1] == ExactComplex(0, 1)
        back = PauliSum(1, {"Y": 1}).apply(out)
        assert back == v  # Y^2 = I

    def test_against_dense_oracle(self, rng):
        n = 6
        words = set()
        while len(words) < 5:
            words.add("".join(rng.choice("IXYZ") for _ in range(n)))
        ps = PauliSum(n, {w: Fraction(rng.randint(-3, 3) or 1) for w in words})
        amps = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1 << n)]
        v = StateVector(n, amps)
        expect = dense_pauli_sum(ps) @ np.array(amps)
        got = ps.apply(v).to_numpy()
        assert np.allclose(got, expect)

    def test_exact_path_matches_dense(self, rng):
        n = 3
        ps = PauliSum(n, {"XYZ": Fraction(1, 3), "ZIY": Fraction(-2)})
        v = StateVector(n, [Fraction(rng.randint(-2, 2)) for _ in range(8)])
        got = ps.apply(v)
        expect = dense_pauli_sum(ps) @ v.to_numpy()
        assert np.allclose(got.to_numpy(), expect)

    def test_arity_mismatch(self):
        with pytest.raises(DimensionError):
            PauliSum.identity(2).apply(StateVector.basis_state(3, 0))


def random_pauli_sum(rng, n: int, count: int) -> PauliSum:
    words = {"".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(count)}
    return PauliSum(n, {w: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for w in words})


class TestDenseAndApprox:
    def test_to_dense_matches_apply(self, rng):
        for n in range(5):
            ps = random_pauli_sum(rng, n, 6)
            v = StateVector(n, [ExactComplex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(1 << n)])
            dense = ps.to_dense()
            assert dense.shape == (1 << n, 1 << n)
            assert np.allclose(dense, dense.conj().T)  # Hermitian
            assert np.allclose(dense @ v.to_numpy(), ps.apply(v).to_numpy())

    def test_to_dense_cap(self):
        with pytest.raises(EnumerationCapError):
            PauliSum.zero(13).to_dense()

    def test_approx_equal_is_an_elementwise_tolerance(self, rng):
        for _ in range(200):
            n = rng.randint(0, 3)
            a = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1 << n)]
            b = [x + complex(rng.choice([0, 1e-12, 1e-8, 1e-3]), 0) for x in a]
            tol = rng.choice([1e-10, 1e-6, 1e-2])
            want = all(abs(x - y) <= tol + 1e-5 * abs(y) for x, y in zip(a, b))  # numpy's allclose
            assert StateVector(n, a).approx_equal(StateVector(n, b), tol) is want
        exact = StateVector(2, [Fraction(1, 3), 0, 0, ExactComplex(0, 1)])
        assert exact.approx_equal(StateVector(2, [1 / 3, 0, 0, 1j]))
        assert not exact.approx_equal(StateVector(3, [0] * 8))


class TestSharedTermTable:
    """What PseudoBoolean and PauliSum keep from their shared base."""

    def test_cross_type_equality_is_false(self):
        pairs = [
            (PseudoBoolean.zero(2), PauliSum.zero(2)),
            (PseudoBoolean.constant(1, 1), PauliSum.identity(1)),
        ]
        for f, ps in pairs:
            assert f != ps and ps != f
            assert not f == ps and not ps == f

    def test_pauli_sum_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(PauliSum.identity(2))

    def test_equal_polynomials_hash_equal(self):
        f = parse("x1*x2 + 1/2*x3 - 2")
        g = PseudoBoolean.from_terms(3, {(2,): Fraction(1, 2), (): -2, (1, 0): 1})
        assert f == g and f is not g and hash(f) == hash(g)
        assert len({f, g, f + PseudoBoolean.zero(3)}) == 1

    @pytest.mark.parametrize("table", [
        PseudoBoolean.from_terms(3, {(0, 1): 2, (): -1}),
        PauliSum(3, {"XYZ": 2, "III": -1}),
    ])
    def test_scaling_by_zero_keeps_the_arity(self, table):
        for zero in (0 * table, table * 0, table * Fraction(0)):
            assert type(zero) is type(table) and zero.n == 3
            assert zero._terms == {} and zero == type(table).zero(3)
        assert (table * Fraction(1, 2))._terms == {k: v / 2 for k, v in table._terms.items()}


class TestIsingForm:
    def test_single_pair(self):
        form = ising_form(PseudoBoolean.from_terms(2, {(0, 1): 1}))
        assert form.constant == Fraction(1, 4)
        assert form.fields == (Fraction(-1, 4), Fraction(-1, 4))
        assert form.couplings == {(0, 1): Fraction(1, 4)}

    def test_matches_full_expansion(self, rng):
        f = random_pbf(rng, 4, max_degree=2)
        form = ising_form(f)
        ps = pbf_to_pauli(f)
        assert form.constant == ps.coefficient("IIII")
        assert form.fields[2] == ps.coefficient("IIZI")
        assert form.couplings.get((1, 3), Fraction(0)) == ps.coefficient("IZIZ")

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            ising_form(PseudoBoolean.from_terms(3, {(0, 1, 2): 1}))

    def test_symmetric_model_has_uniform_fields_and_couplings(self):
        from pbkernel import symmetric_ising

        form = ising_form(symmetric_ising(2, 1, 3))
        assert len(set(form.fields)) == 1
        assert len(set(form.couplings.values())) == 1
        assert set(form.couplings) == {(0, 1), (0, 2), (1, 2)}


class TestTextFormat:
    def test_emit_and_parse(self):
        ps = PauliSum(3, {"III": Fraction(3, 2), "ZZI": Fraction(-1, 2), "XXX": Fraction(-1, 2)})
        text = ps.to_text()
        assert "3/2 III" in text.splitlines()
        assert PauliSum.from_text(text) == ps

    def test_round_trip_random(self, rng):
        words = {"".join(rng.choice("IXYZ") for _ in range(4)) for _ in range(6)}
        ps = PauliSum(4, {w: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for w in words})
        assert PauliSum.from_text(ps.to_text()) == ps

    def test_bad_word_rejected(self):
        from pbkernel import ParseError

        with pytest.raises(ParseError):
            PauliSum.from_text("1/2 ZQ")


class TestErrorPaths:
    def test_embedding_caps(self):
        from pbkernel import EnumerationCapError, embed_diagonal

        wide = PseudoBoolean.variable(18, 0)
        with pytest.raises(EnumerationCapError):
            embed_diagonal(wide)
        with pytest.raises(EnumerationCapError):
            embed_state(wide)
