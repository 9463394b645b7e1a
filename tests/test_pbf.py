"""Core polynomial algebra: evaluation, canonical forms, spin map, kernels."""

import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    DimensionError,
    EnumerationCapError,
    PseudoBoolean,
    bits_of,
    boolean_to_spin,
    index_of,
    parse,
    spin_to_boolean,
)
from conftest import assignments, naive_eval, random_pbf, random_nonneg_pbf

DELTA3 = parse("1 - x1 - x2 - x3 + x2*x3 + x1*x3 + x1*x2")
INT_DIGITS = sys.get_int_max_str_digits()  # the longest digit string int() reads


def indicator(n, point):
    """x^sigma: the product of literals matching one point exactly."""
    f = PseudoBoolean.constant(n, 1)
    for i, b in enumerate(point):
        v = PseudoBoolean.variable(n, i)
        f = f * (v if b else 1 - v)
    return f


class TestEval:
    def test_delta_vanishes_at_110(self):
        assert DELTA3.eval((1, 1, 0)) == 0

    def test_zero_polynomial(self):
        z = PseudoBoolean.zero(4)
        for x in assignments(4):
            assert z.eval(x) == 0

    def test_matches_naive_oracle(self, rng):
        for _ in range(20):
            f = random_pbf(rng, 5, max_terms=10, max_degree=3)
            pairs = f.terms()
            for x in assignments(5):
                assert f.eval(x) == naive_eval(pairs, x)

    def test_arity_mismatch(self):
        with pytest.raises(DimensionError):
            DELTA3.eval((0, 1))


class TestEvalReal:
    def test_linear_interpolation(self):
        f = PseudoBoolean.variable(1, 0)
        assert f.eval_real([Fraction(1, 2)]) == Fraction(1, 2)

    def test_delta_midpoint(self):
        mid = [Fraction(1, 2)] * 3
        assert DELTA3.eval_real(mid) == Fraction(1, 4)

    def test_agrees_on_vertices(self, rng):
        f = random_pbf(rng, 4)
        for x in assignments(4):
            assert f.eval_real(x) == f.eval(x)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DELTA3.eval_real([Fraction(3, 2), 0, 0])


class TestAlgebra:
    def test_additive_identity(self, rng):
        f = random_pbf(rng, 3)
        assert f + PseudoBoolean.zero(3) == f

    def test_complement_pair_sums_to_one(self):
        x1 = PseudoBoolean.variable(2, 0)
        assert x1 + (1 - x1) == PseudoBoolean.constant(2, 1)

    def test_add_matches_naive_merge(self, rng):
        for _ in range(10):
            f, g = random_pbf(rng, 4), random_pbf(rng, 4)
            merged = {}
            for vars_, c in f.terms() + g.terms():
                merged[vars_] = merged.get(vars_, Fraction(0)) + c
            expect = PseudoBoolean.from_terms(4, merged)
            assert f + g == expect

    def test_idempotence(self):
        x1 = PseudoBoolean.variable(1, 0)
        assert x1 * x1 == x1

    def test_disjoint_indicator_products(self):
        # x^sigma x^tau = delta_{sigma,tau}: indicators of distinct points
        # annihilate, an indicator squares to itself
        pts = assignments(3)
        for a in pts[:4]:
            for b in pts[:4]:
                prod = indicator(3, a) * indicator(3, b)
                if a == b:
                    assert prod == indicator(3, a)
                else:
                    assert prod.is_zero()

    def test_and_of_or_expansion(self):
        lhs = parse("(x1 + x2 - x1*x2)*x3")
        rhs = parse("x1*x3 + x2*x3 - x1*x2*x3")
        assert lhs == rhs

    def test_multiply_matches_pointwise(self, rng):
        for _ in range(10):
            f, g = random_pbf(rng, 4), random_pbf(rng, 4)
            prod = f * g
            for x in assignments(4):
                assert prod.eval(x) == f.eval(x) * g.eval(x)

    def test_scalar_ops(self, rng):
        f = random_pbf(rng, 3)
        assert (2 * f).eval((1, 0, 1)) == 2 * f.eval((1, 0, 1))
        assert (f - f).is_zero()


class TestDisjointForm:
    def test_constant_table(self):
        one = PseudoBoolean.constant(2, 1)
        assert one.to_disjoint_form() == [Fraction(1)] * 4

    def test_delta_table_is_equal_indicator(self):
        table = DELTA3.to_disjoint_form()
        expect = [Fraction(1 if idx in (0, 7) else 0) for idx in range(8)]
        assert table == expect

    def test_table_matches_pointwise_oracle(self, rng):
        f = random_pbf(rng, 4)
        table = f.to_disjoint_form()
        for idx, x in enumerate(assignments(4)):
            assert index_of(x) == idx
            assert table[idx] == naive_eval(f.terms(), x)

    def test_round_trip(self, rng):
        for n in range(1, 7):
            f = random_pbf(rng, n)
            assert PseudoBoolean.from_disjoint_form(f.to_disjoint_form()) == f

    def test_single_variable_table(self):
        f = PseudoBoolean.from_disjoint_form([0, 1])
        assert f == PseudoBoolean.variable(1, 0)

    def test_equal_indicator_recovers_delta(self):
        table = [1 if idx in (0, 7) else 0 for idx in range(8)]
        assert PseudoBoolean.from_disjoint_form(table) == DELTA3

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            PseudoBoolean.from_disjoint_form([1, 2, 3])

    def test_cap_enforced(self):
        f = PseudoBoolean.variable(8, 0)
        with pytest.raises(EnumerationCapError):
            f.to_disjoint_form(cap=6)


class TestSpinTransform:
    def test_single_variable(self):
        f = PseudoBoolean.variable(1, 0)
        g = boolean_to_spin(f)
        assert g == PseudoBoolean.from_terms(1, {(): Fraction(1, 2), (0,): Fraction(-1, 2)})

    def test_pair_expansion(self):
        f = PseudoBoolean.from_terms(2, {(0, 1): 1})
        g = boolean_to_spin(f)
        expect = PseudoBoolean.from_terms(
            2,
            {(): Fraction(1, 4), (0,): Fraction(-1, 4), (1,): Fraction(-1, 4), (0, 1): Fraction(1, 4)},
        )
        assert g == expect

    def test_linear_affine_map(self, rng):
        # sum h_l z_l -> sum h_l - 2 sum h_l x_l
        hs = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        zpoly = PseudoBoolean.from_terms(4, {(l,): h for l, h in enumerate(hs)})
        xpoly = spin_to_boolean(zpoly)
        expect = PseudoBoolean.from_terms(
            4, {(): sum(hs), **{(l,): -2 * h for l, h in enumerate(hs)}}
        )
        assert xpoly == expect

    def test_round_trip(self, rng):
        for n in range(1, 9):
            f = random_pbf(rng, n)
            assert spin_to_boolean(boolean_to_spin(f)) == f
            assert boolean_to_spin(spin_to_boolean(f)) == f

    def test_spin_values_match(self, rng):
        # g(z) at z = 1 - 2x equals f(x); z in {-1,1} via eval_real is out of
        # range, so check through the inverse map instead
        f = random_pbf(rng, 3)
        g = boolean_to_spin(f)
        back = spin_to_boolean(g)
        for x in assignments(3):
            assert back.eval(x) == f.eval(x)


class TestKernelAndNonnegativity:
    def test_delta_kernel_is_six_mixed_strings(self):
        expect = {x for x in assignments(3) if 0 < sum(x) < 3}
        assert DELTA3.kernel() == expect

    def test_constant_one_has_empty_kernel(self):
        assert PseudoBoolean.constant(3, 1).kernel() == set()

    def test_delta_nonnegative(self):
        assert DELTA3.is_nonnegative().ok

    def test_witness_returned(self):
        f = PseudoBoolean.variable(1, 0) - 1
        res = f.is_nonnegative()
        assert not res.ok and res.witness == (0,)
        assert f.eval(res.witness) < 0

    def test_squares_nonnegative(self, rng):
        for _ in range(10):
            f = random_nonneg_pbf(rng, 5)
            assert f.is_nonnegative().ok

    def test_kernel_cap(self):
        with pytest.raises(EnumerationCapError):
            PseudoBoolean.zero(10).kernel(cap=8)


class TestKernelAlgebra:
    def test_sum_to_intersection_product_to_union(self, rng):
        for _ in range(30):
            n = rng.randint(2, 8)
            f, g = random_nonneg_pbf(rng, n), random_nonneg_pbf(rng, n)
            kf, kg = f.kernel(), g.kernel()
            assert (f + g).kernel() == kf & kg
            assert (f * g).kernel() == kf | kg


class TestExtremaAtBooleanInputs:
    def test_multilinear_extension_bounded_by_vertices(self, rng):
        for _ in range(50):
            n = rng.randint(1, 6)
            f = random_pbf(rng, n)
            values = [f.eval(x) for x in assignments(n)]
            r = [Fraction(rng.randint(0, 8), 8) for _ in range(n)]
            v = f.eval_real(r)
            assert min(values) <= v <= max(values)


class TestEmbedAndSerialization:
    def test_embed_pads_arity(self):
        f = PseudoBoolean.variable(2, 1)
        g = f.embed(4)
        assert g.n == 4 and g.coefficient((1,)) == 1

    def test_embed_remaps(self):
        f = PseudoBoolean.from_terms(2, {(0, 1): 3})
        g = f.embed(5, [4, 2])
        assert g.coefficient((2, 4)) == 3

    def test_embed_identifies_repeated_targets(self):
        # x1 x2 with both variables sent to one wire collapses to that wire
        f = PseudoBoolean.from_terms(2, {(0, 1): 1})
        g = f.embed(3, [1, 1])
        assert g == PseudoBoolean.variable(3, 1)
        for bits in assignments(3):
            assert g.eval(bits) == f.eval((bits[1], bits[1]))

    def test_embed_checks_the_new_arity(self):
        # the arity is read before any term's variable is seated, so a term
        # never names a mapped index against an arity that cannot exist
        for terms in ({0: 1}, {1: 1}):  # a constant and x1
            for arity in (-1, 65):
                with pytest.raises(ValueError, match=rf"^arity must be in 0\.\.64, got {arity}$"):
                    PseudoBoolean(3, terms).embed(arity)
            assert PseudoBoolean(3, terms).embed(64).n == 64

    def test_json_round_trip(self, rng):
        f = random_pbf(rng, 5)
        assert PseudoBoolean.from_dict(f.to_dict()) == f

    def test_json_sums_a_repeated_monomial_in_either_order(self):
        def read(*vars_lists, coeffs=None):
            coeffs = coeffs or ["1"] * len(vars_lists)
            terms = [{"vars": v, "coeff": c} for v, c in zip(vars_lists, coeffs)]
            return PseudoBoolean.from_dict({"arity": 2, "terms": terms})

        twice = PseudoBoolean.from_terms(2, {(0, 1): 2})
        assert read([1, 2], [1, 2]) == read([1, 2], [2, 1]) == read([2, 1], [2, 1]) == twice
        assert read([1, 2], [2, 1], coeffs=["1/2", "-1/2"]).is_zero()
        third_x1 = PseudoBoolean.variable(2, 0) * Fraction(1, 3)
        assert read([1, 2], [2, 1], [1], coeffs=["3", "-3", "1/3"]) == third_x1
        assert read([], [1], [], coeffs=["1", "2", "-1"]) == 2 * PseudoBoolean.variable(2, 0)

    def test_json_counts_are_integers(self):
        # the decimal strings from_dict has always read stay accepted
        assert PseudoBoolean.from_dict({"arity": "2", "terms": [{"vars": ["2"], "coeff": "3"}]}) == (
            3 * PseudoBoolean.variable(2, 1))
        assert PseudoBoolean.from_dict({"arity": np.int64(2), "terms": []}) == PseudoBoolean.zero(2)
        for bad in (2.9, 2.0, True):
            with pytest.raises(ValueError, match=rf"^arity must be an integer, got {bad!r}$"):
                PseudoBoolean.from_dict({"arity": bad, "terms": []})
        for bad in (1.9, True):
            with pytest.raises(ValueError, match=rf"^variable index must be an integer, got {bad!r}$"):
                PseudoBoolean.from_dict({"arity": 2, "terms": [{"vars": [bad], "coeff": "1"}]})

    @pytest.mark.parametrize("arity", [2.7, 3.0, True, False, Fraction(3)])
    def test_arity_is_an_integer(self, arity):
        # PseudoBoolean(2.7, {3: 1}) was a polynomial of arity 2
        for build in (lambda: PseudoBoolean(arity, {3: 1}), lambda: PseudoBoolean.zero(arity),
                      lambda: PseudoBoolean.from_terms(arity, {(0,): 1}), lambda: PseudoBoolean(2).embed(arity)):
            with pytest.raises(ValueError, match=rf"^arity must be an integer, got {re.escape(repr(arity))}$"):
                build()

    def test_arity_may_be_a_numpy_integer(self):
        for dtype in (np.int8, np.int64, np.uint64):
            f = PseudoBoolean(dtype(2), {3: 1})
            assert f == PseudoBoolean(2, {3: 1}) and type(f.n) is int

    def test_json_uses_one_based_strings(self):
        d = DELTA3.to_dict()
        assert d["arity"] == 3
        assert {"vars": [], "coeff": "1"} in d["terms"]
        assert {"vars": [1], "coeff": "-1"} in d["terms"]

    def test_text_round_trip(self, rng):
        for _ in range(10):
            f = random_pbf(rng, 4)
            assert parse(f.to_text(), arity=4) == f

    def test_multilinearity_is_structural(self, rng):
        f = random_pbf(rng, 5) * random_pbf(rng, 5)
        for vars_, _ in f.terms():
            assert len(set(vars_)) == len(vars_)


class TestParser:
    def test_delta_expression(self):
        assert DELTA3 == PseudoBoolean.from_terms(
            3, {(): 1, (0,): -1, (1,): -1, (2,): -1, (0, 1): 1, (0, 2): 1, (1, 2): 1}
        )

    def test_zero_literal(self):
        f = parse("0")
        assert f.n == 0 and f.is_zero()

    def test_complement_literal(self):
        assert parse("~x2") == parse("1 - x2")

    def test_rational_coefficients(self):
        f = parse("-1/2*x1 + 3")
        assert f.coefficient((0,)) == Fraction(-1, 2)
        assert f.coefficient(()) == 3

    def test_nested_parens(self):
        f = parse("((x1 + x2))*(x1)")
        assert f == parse("x1 + x1*x2")

    def test_index_zero_rejected(self):
        from pbkernel import ParseError

        with pytest.raises(ParseError):
            parse("x0 + 1")

    def test_syntax_error_has_position(self):
        from pbkernel import ParseError

        with pytest.raises(ParseError) as err:
            parse("x1 + @")
        assert err.value.position == 5

    @pytest.mark.parametrize("text, message, position", [
        # digits int() does not read: str.isdigit accepts them, str.isdecimal does not
        ("x\u00b2", "expected a variable index after 'x' at line 1, column 1", 0),
        ("2\u00b2*x1", "unexpected character '\u00b2' at line 1, column 2", 1),
        # runs longer than int() reads from a string
        ("x1 +\n 7" + "0" * INT_DIGITS, f"number of {INT_DIGITS + 1} digits over {INT_DIGITS} "
         "at line 2, column 2", 6),
        ("x" + "1" * (INT_DIGITS + 1), f"number of {INT_DIGITS + 1} digits over {INT_DIGITS} "
         "at line 1, column 2", 1),
    ], ids=["superscript-index", "superscript-digit", "long-literal", "long-index"])
    def test_digit_runs_int_cannot_read_have_a_position(self, text, message, position):
        from pbkernel import ParseError

        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_trailing_garbage_rejected(self):
        from pbkernel import ParseError

        with pytest.raises(ParseError):
            parse("x1 x2")

    def test_explicit_arity(self):
        f = parse("x1", arity=4)
        assert f.n == 4

    def test_bits_of_inverts_index_of(self):
        for n in (1, 3, 5):
            for x in assignments(n):
                assert bits_of(index_of(x), n) == x


class TestErrorPaths:
    def test_from_terms_checks_the_arity_before_building_masks(self):
        terms = {(k,): 1 for k in range(30000)}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^arity must be in 0\.\.64, got 30000$"):
                PseudoBoolean.from_terms(30000, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_multiply_arity_mismatch(self):
        with pytest.raises(DimensionError):
            PseudoBoolean.variable(2, 0) * PseudoBoolean.variable(3, 0)
        with pytest.raises(DimensionError):
            PseudoBoolean.variable(2, 0) + PseudoBoolean.variable(3, 0)

    def test_nonnegativity_cap(self):
        with pytest.raises(EnumerationCapError):
            PseudoBoolean.zero(10).is_nonnegative(cap=9)

    def test_canonical_duality_full_range(self, rng):
        for n in range(1, 9):
            f = random_pbf(rng, n)
            assert PseudoBoolean.from_disjoint_form(f.to_disjoint_form()) == f
