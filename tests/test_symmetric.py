"""Symmetry detection, Stirling basis change, root factorization, families."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from pbkernel import (
    EnumerationCapError,
    PseudoBoolean,
    RootFactorization,
    SymmetricForm,
    WeightProfile,
    canonical_coefficients,
    canonical_to_power,
    delta_product_form,
    detect_symmetric,
    factorize,
    parse,
    power_to_canonical,
    profile_to_pbf,
    reconstruct,
    stirling_matrix,
    symmetric_ising,
)
from pbkernel.symmetric import _expand
from conftest import (
    assignments,
    random_pbf,
    ref_delta_poly,
    ref_expand_complex,
    ref_expand_exact,
    ref_canonical_to_power,
    ref_profile_to_pbf,
)

DELTA3 = parse("1 - x1 - x2 - x3 + x2*x3 + x1*x3 + x1*x2")


def xor_pbf(n):
    return profile_to_pbf(WeightProfile(n, [j % 2 for j in range(n + 1)]))


class TestDetectSymmetric:
    def test_delta_profile(self):
        res = detect_symmetric(DELTA3)
        assert res.profile.values == (1, 0, 0, 1)

    def test_asymmetric_witness(self):
        f = PseudoBoolean.variable(2, 0)
        res = detect_symmetric(f)
        assert res.profile is None
        a, b = res.witness
        assert sum(a) == sum(b) and f.eval(a) != f.eval(b)

    def test_xor_profile(self):
        res = detect_symmetric(xor_pbf(3))
        assert res.profile.values == (0, 1, 0, 1)

    def test_structural_matches_value_detection(self, rng):
        for _ in range(20):
            f = random_pbf(rng, 5)
            a = canonical_coefficients(f)
            res = detect_symmetric(f)
            assert (a is None) == (res.profile is None)


class TestStirlingMatrix:
    def test_n1(self):
        assert stirling_matrix(1) == [[1]]

    def test_n3_rows(self):
        assert stirling_matrix(3) == [[1, 1, 1], [0, 2, 6], [0, 0, 6]]

    def test_against_inclusion_exclusion_oracle(self):
        # i! S(j, i) counts surjections onto i labeled blocks:
        # sum_k (-1)^k C(i,k) (i-k)^j
        for n in range(1, 9):
            B = stirling_matrix(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    surj = sum(
                        (-1) ** k * math.comb(i, k) * (i - k) ** j for k in range(i + 1)
                    )
                    assert B[i - 1][j - 1] == surj

    def test_structure_invariants(self):
        B = stirling_matrix(6)
        for i in range(1, 7):
            assert B[i - 1][i - 1] == math.factorial(i)
            assert B[0][i - 1] == 1
            for j in range(1, i):
                assert B[i - 1][j - 1] == 0

    def test_range_check(self):
        with pytest.raises(ValueError):
            stirling_matrix(0)


class TestBasisChange:
    def test_delta_power_coefficients(self):
        form = canonical_to_power([1, -1, 1, 0])
        assert form.power_coeffs == (1, Fraction(-3, 2), Fraction(1, 2), 0)

    def test_delta_inverse(self):
        form = SymmetricForm(3, (1, Fraction(-3, 2), Fraction(1, 2), 0))
        assert power_to_canonical(form) == [1, -1, 1, 0]

    def test_zero_maps_to_zero(self):
        assert canonical_to_power([0, 0, 0]).power_coeffs == (0, 0, 0)

    def test_triangular_solve_inverts_exactly(self, rng):
        for n in range(1, 13):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
            form = canonical_to_power(a)
            assert power_to_canonical(form) == a

    def test_verification_via_matrix_product(self, rng):
        # B c == a recomputed with an explicit row-times-vector product
        n = 6
        a = [Fraction(rng.randint(-9, 9)) for _ in range(n + 1)]
        c = canonical_to_power(a).power_coeffs
        B = stirling_matrix(n)
        assert c[0] == a[0]
        for i in range(1, n + 1):
            assert sum(B[i - 1][j - 1] * c[j] for j in range(1, n + 1)) == a[i]

    def test_falling_factorials_match_the_stirling_solve(self, rng):
        for n in range(13):
            for _ in range(25):
                a = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(n + 1)]
                a[rng.randrange(n + 1)] = 0
                got = canonical_to_power(a)
                assert got == ref_canonical_to_power(a)
                assert all(type(c) is Fraction for c in got.power_coeffs)
        mixed = [1, Fraction(1, 3), 0.5, -2]  # ints, Fractions and floats are coerced alike
        assert canonical_to_power(mixed) == ref_canonical_to_power(mixed)

    def test_power_form_reevaluates(self, rng):
        for _ in range(10):
            n = rng.randint(1, 8)
            prof = WeightProfile(n, [Fraction(rng.randint(-5, 5)) for _ in range(n + 1)])
            f = profile_to_pbf(prof)
            form = canonical_to_power(canonical_coefficients(f))
            for x in assignments(n):
                assert form.weight_value(sum(x)) == f.eval(x)

    def test_xor_canonical_pattern(self):
        # a_j = (-2)^(j-1), the alternating doubling of the parity expansion
        for n in (2, 3, 5):
            a = canonical_coefficients(xor_pbf(n))
            assert a[0] == 0
            for j in range(1, n + 1):
                assert a[j] == (-2) ** (j - 1)


class TestFactorize:
    def test_delta_roots(self):
        rf = factorize(canonical_to_power([1, -1, 1, 0]))
        assert rf.scale == Fraction(1, 2)
        assert rf.roots == (1, 2)
        assert rf.exact_roots == (1, 2)

    def test_xor3_roots(self):
        form = canonical_to_power(canonical_coefficients(xor_pbf(3)))
        rf = factorize(form)
        assert rf.scale == Fraction(2, 3)
        assert rf.roots == (0, 2, Fraction(5, 2))

    def test_symmetric_ising_roots(self):
        J, h = Fraction(2), Fraction(-1, 2)
        f = symmetric_ising(J, h, 4)
        form = canonical_to_power(canonical_coefficients(f))
        rf = factorize(form)
        assert rf.scale == J / 4
        assert rf.roots == (0, 1 - 4 * h / J)

    def test_irrational_roots_go_numeric(self):
        form = SymmetricForm(2, (-2, 0, 1))  # X^2 - 2
        rf = factorize(form)
        assert rf.exact_roots == ()
        assert rf.roots[0] == pytest.approx(-math.sqrt(2))
        assert rf.roots[1] == pytest.approx(math.sqrt(2))

    def test_conjugate_pairs(self):
        form = SymmetricForm(3, (-1, 1, -1, 1))  # (X - 1)(X^2 + 1)
        rf = factorize(form)
        assert Fraction(1) in rf.exact_roots
        complex_roots = [r for r in rf.roots if isinstance(r, complex)]
        assert len(complex_roots) == 2
        a, b = complex_roots
        assert a.real == pytest.approx(b.real)
        assert a.imag == pytest.approx(-b.imag)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            factorize(SymmetricForm(2, (0, 0, 0)))

    def test_biquadratic_numeric_roots(self):
        # (X^2 - 2)(X^2 - 3): no rational roots, four numeric ones
        form = SymmetricForm(4, (6, 0, -5, 0, 1))
        rf = factorize(form)
        assert rf.exact_roots == ()
        expect = sorted([-math.sqrt(3), -math.sqrt(2), math.sqrt(2), math.sqrt(3)])
        assert [pytest.approx(e, abs=1e-9) for e in expect] == list(rf.roots)
        back = reconstruct(rf)
        for got, want in zip(back.power_coeffs, form.power_coeffs):
            assert abs(complex(got) - complex(want)) < 1e-9

    def test_repeated_roots_kept(self):
        # (X - 1)^2 = 1 - 2X + X^2
        rf = factorize(SymmetricForm(2, (1, -2, 1)))
        assert rf.roots == (1, 1)


class TestReconstruct:
    def test_delta_expansion(self):
        rf = RootFactorization(n=3, scale=Fraction(1, 2), roots=(Fraction(1), Fraction(2)),
                               exact_roots=(Fraction(1), Fraction(2)))
        form = reconstruct(rf)
        assert form.power_coeffs == (1, Fraction(-3, 2), Fraction(1, 2), 0)

    def test_single_linear_factor(self):
        # scale * (X - 0) = X in the (X - root) convention used throughout
        rf = RootFactorization(n=1, scale=Fraction(1), roots=(Fraction(0),), exact_roots=(Fraction(0),))
        assert reconstruct(rf).power_coeffs == (0, 1)

    def test_factorize_reconstruct_fixed_point(self, rng):
        for _ in range(10):
            n = rng.randint(1, 6)
            roots = sorted(Fraction(rng.randint(0, 2 * n), 2) for _ in range(n))
            scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            rf = RootFactorization(n=n, scale=scale, roots=tuple(roots),
                                   exact_roots=tuple(roots))
            form = reconstruct(rf)
            rf2 = factorize(form)
            assert rf2.scale == scale
            for r1, r2 in zip(rf2.roots, roots):
                assert abs(complex(r1) - complex(r2)) < 1e-9

    def test_inconsistent_imaginary_rejected(self):
        rf = RootFactorization(n=2, scale=1.0, roots=(complex(0, 1), complex(1, 1)),
                               exact_roots=())
        with pytest.raises(ValueError):
            reconstruct(rf)


class TestDeltaProductForm:
    def test_k3_matches_half_s1_s2(self):
        form = delta_product_form(3)
        assert form.power_coeffs == (1, Fraction(-3, 2), Fraction(1, 2), 0)

    def test_k2_literal_expansion(self):
        # prefactor (-1)^(k-1)/(k-1)! gives 1 - X, which is -1 at weight 2:
        # the product form misses the all-ones value for even k
        form = delta_product_form(2)
        assert form.power_coeffs == (1, -1, 0)
        assert form.profile().values == (1, 0, -1)

    def test_k4_literal_values(self):
        # evaluating the product at s = 0..4 gives (1, 0, 0, 0, -1)
        form = delta_product_form(4)
        assert form.profile().values == (1, 0, 0, 0, -1)

    def test_odd_k_is_equal_indicator(self):
        for k in (3, 5, 7):
            prof = delta_product_form(k).profile()
            expect = tuple(1 if j in (0, k) else 0 for j in range(k + 1))
            assert prof.values == expect

    def test_kernel_is_mixed_weights_for_all_k(self):
        for k in range(2, 8):
            prof = delta_product_form(k).profile()
            zeros = {j for j, v in enumerate(prof.values) if v == 0}
            assert zeros == set(range(1, k))

    def test_range_check(self):
        with pytest.raises(ValueError):
            delta_product_form(1)


class TestSymmetricIsing:
    def test_double_root_when_bias_balances(self):
        f = symmetric_ising(4, 1, 3)
        rf = factorize(canonical_to_power(canonical_coefficients(f)))
        assert rf.roots == (0, 0)

    def test_kernel_on_two_hyperplanes(self):
        f = symmetric_ising(2, Fraction(-1, 2), 4)
        kernel_weights = {sum(x) for x in f.kernel()}
        assert kernel_weights == {0, 2}
        assert all(sum(x) in (0, 2) for x in f.kernel())
        assert len(f.kernel()) == 1 + 6

    def test_term_map(self, rng):
        J = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        h = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        f = symmetric_ising(J, h, 5)
        for l in range(5):
            assert f.coefficient((l,)) == h
            for k in range(l + 1, 5):
                assert f.coefficient((l, k)) == J / 2

    def test_factored_value_formula(self, rng):
        # value at weight w must equal (J/4)(w + 4h/J - 1) w
        J = Fraction(rng.randint(1, 5))
        h = Fraction(rng.randint(-5, 5))
        f = symmetric_ising(J, h, 5)
        for x in assignments(5):
            w = sum(x)
            assert f.eval(x) == (J / 4) * (w + 4 * h / J - 1) * w

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            symmetric_ising(0, 1, 3)


class TestRootConsistency:
    def test_value_matches_product_at_each_weight(self, rng):
        for _ in range(10):
            n = rng.randint(1, 6)
            roots = [Fraction(rng.randint(-2, n + 2)) for _ in range(rng.randint(1, n))]
            scale = Fraction(rng.randint(1, 5), 2)
            rf = RootFactorization(n=n, scale=scale, roots=tuple(sorted(roots)),
                                   exact_roots=tuple(sorted(roots)))
            form = reconstruct(rf)
            prof = form.profile()
            for j in range(n + 1):
                prod = scale
                for lam in roots:
                    prod *= j - lam
                assert prof.values[j] == prod

    def test_kernel_root_correspondence(self, rng):
        # x is in the kernel iff its weight is an integer root in [0, n]
        for _ in range(10):
            n = rng.randint(2, 8)
            roots = [Fraction(rng.randint(0, 2 * n), 2) for _ in range(rng.randint(1, n))]
            rf = RootFactorization(n=n, scale=Fraction(1), roots=tuple(sorted(roots)),
                                   exact_roots=tuple(sorted(roots)))
            f = reconstruct(rf).to_pbf()
            root_weights = {int(r) for r in roots if r.denominator == 1 and 0 <= r <= n}
            assert {sum(x) for x in f.kernel()} == root_weights


class TestOneExpansion:
    """``_expand`` against the three scale * prod (X - r) loops it replaced."""

    def test_exact_roots_give_the_same_fractions(self, rng):
        for _ in range(200):
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
            degree = rng.randint(0, 7)
            roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
            got = _expand(scale, roots)
            assert got == ref_expand_exact(scale, roots)
            assert all(type(c) is Fraction for c in got)

    def test_numeric_roots_give_the_same_complex_values(self, rng):
        parts = (0.0, -0.0, 1.0, -2.5)  # signed zeros and exact small values as well as random ones
        for _ in range(200):
            roots = []
            for _ in range(rng.randint(0, 7)):
                re, im = (rng.choice(parts + (rng.uniform(-3, 3),)) for _ in "ri")
                roots.append(rng.choice((complex(re, im), re, Fraction(rng.randint(-5, 5), 3))))
            scale = rng.choice((Fraction(2, 3), -1.5, complex(0.5, -0.0)))
            got = _expand(complex(scale), [complex(r) for r in roots])
            assert repr(got) == repr(ref_expand_complex(scale, roots))  # repr tells -0.0 from 0.0
            assert all(type(c) is complex for c in got)

    @pytest.mark.parametrize("k", range(2, 21))
    def test_delta_product_form_keeps_its_coefficients(self, k):
        expected = ref_delta_poly(k)
        assert _expand(Fraction((-1) ** (k - 1), math.factorial(k - 1)), range(1, k)) == expected
        assert delta_product_form(k).power_coeffs == tuple(expected) + (Fraction(0),)


def weight_profiles():
    rng = random.Random(0x9F1)
    cases = []
    for n in range(11):
        cases += [
            WeightProfile(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1)]),
            WeightProfile(n, [0] * (n + 1)),
            WeightProfile(n, [Fraction(-5, 3)] * (n + 1)),
            WeightProfile(n, [j % 2 for j in range(n + 1)]),
        ]
        cases += [WeightProfile(n, [int(j == w) for j in range(n + 1)]) for w in range(n + 1)]
        for d in range(min(n, 4) + 1):  # a degree-d weight polynomial: differences above d vanish
            poly = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] + [Fraction(1, 2)]
            cases.append(WeightProfile(n, [sum(c * j ** k for k, c in enumerate(poly)) for j in range(n + 1)]))
    return cases


class TestProfileDifferences:
    """``profile_to_pbf`` against the 2^n table and Moebius round trip it replaced."""

    @staticmethod
    def check(p, f):
        expected = ref_profile_to_pbf(p)
        assert f == expected
        assert list(f.masked_terms()) == list(expected.masked_terms())  # ascending masks

    @pytest.mark.parametrize("p", weight_profiles(), ids=lambda p: f"n{p.n}")
    def test_profiles(self, p):
        self.check(p, profile_to_pbf(p))

    @pytest.mark.parametrize("k", range(2, 11))
    def test_delta_product_forms(self, k):
        s = delta_product_form(k)
        self.check(s.profile(), s.to_pbf())

    def test_degree_d_profiles_have_no_monomial_above_d(self):
        n = 10
        for d in range(n + 1):
            f = profile_to_pbf(WeightProfile(n, [j ** d for j in range(n + 1)]))
            assert f.degree == d
            assert len(f.masked_terms()) == sum(math.comb(n, k) for k in range(1, d + 1)) + (d == 0)

    def test_expansion_over_the_cap_refuses_before_allocating(self):
        p = WeightProfile(24, [j * j for j in range(25)])
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match=r"2\^24 points \(cap 2\^20\)"):
                profile_to_pbf(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_expansion_at_the_cap_expands(self):
        n = 20
        f = profile_to_pbf(WeightProfile(n, [j * j for j in range(n + 1)]))  # X^2 = X + 2 e_2
        assert len(f.masked_terms()) == n + math.comb(n, 2)
        assert set(f.masked_terms().values()) == {1, 2}


def test_root_search_cap_is_the_named_constant(monkeypatch):
    """(X - 2)(X - 3) is split exactly, until its constant term 6 passes the cap."""
    from pbkernel import symmetric

    form = SymmetricForm(2, (Fraction(6), Fraction(-5), Fraction(1)))
    assert symmetric.ROOT_SEARCH_CAP == 10**15
    assert factorize(form).exact_roots == (2, 3)
    monkeypatch.setattr(symmetric, "ROOT_SEARCH_CAP", 5)
    rf = factorize(form)
    assert rf.exact_roots == () and [round(complex(r).real, 9) for r in rf.roots] == [2, 3]

