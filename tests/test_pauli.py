"""Operator/state embeddings, Z-basis conversions, statevector action."""

import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    DiagonalOperator,
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
from pbkernel.pauli import _ZERO
from conftest import assignments, dense_pauli_sum, random_pbf, ref_to_dense

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
            assert np.array_equal(dense, ref_to_dense(ps))  # apply and to_dense share one word reading

    def test_to_dense_is_the_kronecker_sum_bit_for_bit(self, rng):
        """Both parts, and the sign of every zero, equal the Kronecker sum's, also
        for coefficients that round (1/3, and -2^-1100, which underflows to -0.0)."""
        tiny = Fraction(-1, 2**1100)
        sums = [PauliSum(2, {"XY": Fraction(1, 3), "YX": Fraction(-1, 3), "ZZ": tiny, "II": Fraction(2, 7)}),
                PauliSum(1, {"X": 1, "Y": Fraction(-5, 3), "Z": tiny}), PauliSum(0, {"": Fraction(-7, 9)})]
        sums += [random_pauli_sum(rng, n, rng.randint(0, 8 if n < 9 else 3))
                 for n in range(11) for _ in range(4 if n < 9 else 1)]
        for ps in sums:
            got, want = ps.to_dense(), ref_to_dense(ps)
            for a, b in ((got.real, want.real), (got.imag, want.imag)):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

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
            assert zero.terms() == [] and zero == type(table).zero(3)
        assert (table * Fraction(1, 2)).terms() == [(k, v / 2) for k, v in table.terms()]

    @pytest.mark.parametrize("cls, arity, key", [(PseudoBoolean, 3, 0b1000), (PauliSum, 2, "XYZ")])
    def test_a_bad_key_raises_whatever_its_coefficient(self, cls, arity, key):
        # the key is checked before its coefficient is read: a zero or a bad number does not hide it
        for coeff in (0, Fraction(0), 1, "not a number"):
            with pytest.raises(ValueError, match="mask|Pauli word"):
                cls(arity, {key: coeff})

    def test_pauli_arity_is_not_negative(self):
        for arity in (-1, -5):
            with pytest.raises(ValueError, match="arity"):
                PauliSum(arity)
            with pytest.raises(ValueError, match="arity"):
                PauliSum.identity(arity)
        assert PauliSum(0).n == 0 and PauliSum(0, {"": 3}).coefficient("") == 3

    @pytest.mark.parametrize("arity", [1.9, 1.0, True, Fraction(1)])
    def test_pauli_arity_is_an_integer(self, arity):
        # PauliSum(1.9, {"X": 1}) was a sum on one qubit; PauliSum.identity(1.9) raised TypeError
        builds = (lambda: PauliSum(arity, {"X": 1}), lambda: PauliSum(arity), lambda: PauliSum.identity(arity))
        for build in builds:
            with pytest.raises(ValueError, match=rf"^arity must be an integer, got {re.escape(repr(arity))}$"):
                build()
        for n in (1, np.int64(1), np.uint8(1)):
            h = PauliSum(n, {"X": 1})
            assert h == PauliSum(1, {"X": 1}) and type(h.n) is int
            assert PauliSum.identity(n) == PauliSum(1, {"I": 1})


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

    @pytest.mark.parametrize("token, message", [
        ("1e10000000", f"line 1: decimal exponent over {sys.get_int_max_str_digits()} digits"),
        ("1/0", "line 1: zero denominator"),
        ("abc", "line 1: bad number 'abc'"),
    ])
    def test_bad_coefficient_is_a_parse_error_naming_the_line(self, monkeypatch, token, message):
        from pbkernel import ParseError, expr

        built = []  # every Fraction the number reader builds
        fraction = expr.Fraction
        monkeypatch.setattr(expr, "Fraction", lambda *args: built.append(args) or fraction(*args))
        with pytest.raises(ParseError) as exc:
            PauliSum.from_text(f"{token} X")
        assert str(exc.value) == message
        assert built == ([] if token == "1e10000000" else [(token,)])

    def test_comments_and_blank_lines_count_as_lines(self):
        from pbkernel import ParseError

        text = "# a sum\n\n1/2 ZZ\n   \n  # more\n-1 XY\n"
        assert PauliSum.from_text(text) == PauliSum(2, {"ZZ": Fraction(1, 2), "XY": -1})
        with pytest.raises(ParseError, match="^line 7: bad number 'x'$"):
            PauliSum.from_text(text + "x II\n")


class TestBasisIndex:
    """States check an assignment as ``PseudoBoolean.eval`` does, and an index."""

    def test_entry_that_is_not_a_bit(self):
        with pytest.raises(ValueError, match="assignment entry 2 is not a bit"):
            StateVector.basis_state(3, (1, 2, 0))
        with pytest.raises(ValueError, match="assignment entry 2 is not a bit"):
            StateVector.basis_state(2, (1, 2))

    def test_short_assignment(self):
        with pytest.raises(DimensionError, match="assignment length 1 != arity 3"):
            StateVector.basis_state(3, (1,))

    def test_long_assignment(self):
        with pytest.raises(DimensionError, match="assignment length 3 != arity 2"):
            StateVector.ghz_state(2).amplitude((1, 1, 1))

    @pytest.mark.parametrize("index", [-1, 4, 1 << 70])
    def test_index_outside_the_register(self, index):
        with pytest.raises(ValueError, match=f"basis index {index} outside 0..3"):
            StateVector.basis_state(2, index)
        with pytest.raises(ValueError, match=f"basis index {index} outside 0..3"):
            StateVector.ghz_state(2).amplitude(index)

    def test_assignments_and_indices_agree(self):
        for n in range(4):
            for k, bits in enumerate(sorted(assignments(n), key=lambda b: int("".join(map(str, b)) or "0", 2))):
                v = StateVector.basis_state(n, bits)
                assert v == StateVector.basis_state(n, k)
                assert v.amplitude(bits) == v.amplitude(k) == 1
                assert v.amps.count(0) == (1 << n) - 1
        assert StateVector.basis_state(2, (True, False)) == StateVector.basis_state(2, 2)
        assert StateVector.basis_state(2, [1.0, 1]) == StateVector.basis_state(2, 3)

    @pytest.mark.parametrize("index", [np.int64(1), np.uint8(1), np.int32(1)])
    def test_numpy_integer_index(self, index):
        assert StateVector.basis_state(2, index) == StateVector.basis_state(2, 1)
        assert StateVector.ghz_state(2).amplitude(np.int64(3)) == 1
        assert StateVector.basis_state(2, index).amplitude(index) == 1
        with pytest.raises(ValueError, match="basis index 4 outside 0..3"):
            StateVector.basis_state(2, np.int64(4))


class TestAmplitudeTypes:
    """Amplitudes are classified as numbers.Rational (exact), ExactComplex
    (exact) or any other numbers.Complex (float); nothing else is accepted."""

    @pytest.mark.parametrize("amps, index, name", [
        (["a", 1], 0, "str"),
        ([1, None], 1, "NoneType"),
        ([0, 0, 0, object()], 3, "object"),
        ([Fraction(1, 2), "1/2"], 1, "str"),
    ])
    def test_non_numeric_amplitude_is_refused_naming_its_index(self, amps, index, name):
        n = len(amps).bit_length() - 1
        with pytest.raises(TypeError, match=f"^amplitude {index} is a {name}, not a number$"):
            StateVector(n, amps)

    def test_numpy_floats_take_the_float_path(self):
        from pbkernel import CliffordCircuit, apply_circuit
        from pbkernel.stabilizer import h

        for value in (np.float32(0.1), np.float64(0.1), np.complex64(0.1 + 0.2j)):
            v = StateVector(1, [value, 0])
            out = apply_circuit(CliffordCircuit(1, (h(0),)), v)
            assert not v.exact and not out.exact
            assert out.amps == [complex(value), complex(value)]  # H unnormalized: a + 0, a - 0
            assert PauliSum(1, {"X": 1}).apply(v).amps == [_ZERO, complex(value)]

    def test_numpy_integers_stay_exact(self):
        v = StateVector(2, [np.int64(3), Fraction(1, 1 << 62), np.int32(-2), np.uint64(1 << 63)])
        assert v.exact
        assert v.amps == [3, Fraction(1, 1 << 62), -2, 1 << 63]
        assert all(type(a) is Fraction for a in v.amps)
        assert PauliSum(2, {"II": 1}).apply(v) == v


class TestErrorPaths:
    def test_embedding_caps(self):
        from pbkernel import EnumerationCapError, embed_diagonal

        wide = PseudoBoolean.variable(18, 0)
        with pytest.raises(EnumerationCapError):
            embed_diagonal(wide)
        with pytest.raises(EnumerationCapError):
            embed_state(wide)

    @pytest.mark.parametrize("embed, what", [(embed_diagonal, "diagonal"), (embed_state, "state")])
    def test_cap_above_the_state_cap_is_checked_first(self, embed, what):
        wide = PseudoBoolean.variable(18, 0)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match=f"^{what} embedding at arity 18 exceeds cap 16$"):
                embed(wide, cap=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 2^18 table would take tens of MB
        assert embed(PseudoBoolean.variable(4, 0), cap=20).n == 4

    @pytest.mark.parametrize("arity", [22, 64])
    @pytest.mark.parametrize("build", [
        StateVector.zeros,
        lambda n: StateVector.basis_state(n, 0),
        StateVector.plus_state,
        lambda n: StateVector.plus_state(n, normalized=True),
        StateVector.ghz_state,
    ])
    def test_state_constructors_check_the_cap_before_allocating(self, build, arity):
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match=f"^statevector arity {arity} outside 0..16$"):
                build(arity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # 2^22 amplitudes would take 32 MB
        assert build(3).n == 3

    @pytest.mark.parametrize("arity", [True, 1.0, None])
    @pytest.mark.parametrize("build", [
        StateVector.zeros,
        lambda n: StateVector.basis_state(n, 0),
        StateVector.plus_state,
        StateVector.ghz_state,
        lambda n: StateVector(n, [0, 1]),
        lambda n: DiagonalOperator(n, [1, 2]),
    ])
    def test_state_and_diagonal_arities_are_read_as_counts(self, build, arity):
        # True was stored as the arity; 1.0 and None leaked TypeError
        with pytest.raises(ValueError, match=rf"^arity must be an integer, got {arity!r}$"):
            build(arity)
        built = build("1")
        assert built.n == 1 and type(built.n) is int

    def test_dense_caps_are_named_and_named_in_the_refusal(self, monkeypatch):
        from pbkernel import dense_pauli_coefficients, pauli

        with pytest.raises(EnumerationCapError, match="^dense matrix at arity 13 is over cap 12$"):
            PauliSum.zero(13).to_dense()
        with pytest.raises(EnumerationCapError, match=r"^4\^7 trace inner products is over cap 4\^6$"):
            dense_pauli_coefficients(np.zeros((128, 128)))
        monkeypatch.setattr(pauli, "DENSE_CAP", 2)
        monkeypatch.setattr(pauli, "PAULI_BASIS_CAP", 1)
        with pytest.raises(EnumerationCapError, match="^dense matrix at arity 3 is over cap 2$"):
            PauliSum.zero(3).to_dense()
        with pytest.raises(EnumerationCapError, match=r"^4\^2 trace inner products is over cap 4\^1$"):
            dense_pauli_coefficients(np.eye(4))
        assert PauliSum.identity(2).to_dense().shape == (4, 4)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 3), (4, 2), (2, 4), (2, 2, 2)])
    def test_pauli_coefficients_refuse_a_matrix_that_is_not_square_2_to_the_n(self, shape):
        from pbkernel import DimensionError, dense_pauli_coefficients

        with pytest.raises(DimensionError, match=re.escape(f"matrix shape {shape} is not square 2^n")):
            dense_pauli_coefficients(np.zeros(shape))
