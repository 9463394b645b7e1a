"""One-body classification, exact simplex, Ising Kernel decisions."""

import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pbkernel import (
    DimensionError,
    LPInstance,
    OneBodyForm,
    PseudoBoolean,
    QuadraticRealization,
    ghz_quadratic,
    ising_form,
    one_body,
    one_body_kernel,
    quadratic_realizability,
    simplex_solve,
    square_form,
    support_parent,
    verify_certificate,
    verify_infeasibility,
)
from pbkernel.gadgets import SupportSet
from conftest import (
    assignments,
    face_enumeration_feasible,
    random_target,
    ref_features,
    ref_ghz_quadratic,
    ref_one_body_kernel,
    ref_pair_order,
)

EVEN_PARITY_3 = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]

#: the answers to the README's two examples, as repr shows them
README_REPRS = [
    ({"0000", "1111"}, 4, "QuadraticRealization(feasible=True, n=4, constant=Fraction(1, 1), fields=(Fraction(0, 1), "
     "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), couplings={(0, 1): Fraction(0, 1), (0, 2): Fraction(-1, 4), "
     "(0, 3): Fraction(-1, 4), (1, 2): Fraction(-1, 4), (1, 3): Fraction(-1, 4), (2, 3): Fraction(0, 1)}, "
     "certificate=None)"),
    ({"000", "011", "101", "110"}, 3, "QuadraticRealization(feasible=False, n=3, constant=None, fields=None, "
     "couplings=None, certificate=[((0, 0, 0), Fraction(-1, 4)), ((0, 1, 1), Fraction(-1, 4)), ((1, 0, 1), "
     "Fraction(-1, 4)), ((1, 1, 0), Fraction(-1, 4)), ((0, 0, 1), Fraction(1, 4)), ((0, 1, 0), Fraction(1, 4)), "
     "((1, 0, 0), Fraction(1, 4)), ((1, 1, 1), Fraction(1, 4))])"),
]

#: sha256 prefixes of repr and of the sorted to_dict() JSON of the answer for the
#: weight-1 pair {10...0, 01...1}, by n
WEIGHT1_DIGESTS = {
    2: ("5b453cadc98397d0", "126ce18e57cff26d"),
    3: ("d52fe6522c8bae17", "c9ec25ee80439151"),
    4: ("5f722eb84f275b01", "8989f4209da136c9"),
    5: ("297378c7e728f6e1", "e66e3fe2a9d74a68"),
    6: ("ecd25a5ec7f564a7", "5e92a50a249f3e94"),
    7: ("4a76152ac7b94943", "683f0e0becd80d71"),
}


def margin_system(target, n):
    """The raw margin rows, for the independent feasibility cross-check."""
    pairs = ref_pair_order(n)
    eqs, geqs = [], []
    for bits in assignments(n):
        row = ref_features(bits, pairs)
        if bits in target:
            eqs.append((row, 0))
        else:
            geqs.append((row, 1))
    return eqs, geqs, 1 + n + len(pairs)


class TestOneBody:
    def test_uncomplemented_sum(self):
        form = OneBodyForm((1, 1), (1, 1))
        assert one_body(form) == PseudoBoolean.from_terms(2, {(0,): 1, (1,): 1})

    def test_gauge_relabel_recovers_plain_sum(self, rng):
        # evaluating at bits XORed with the complement of tau matches the
        # all-uncomplemented form: g_tau(x ^ ~tau) = sum c_k x_k
        n = 5
        coeffs = [Fraction(rng.randint(0, 4)) for _ in range(n)]
        tau = tuple(rng.randint(0, 1) for _ in range(n))
        g = one_body(OneBodyForm(coeffs, tau))
        plain = one_body(OneBodyForm(coeffs, (1,) * n))
        for x in assignments(n):
            relabeled = tuple(b ^ (1 - t) for b, t in zip(x, tau))
            assert g.eval(relabeled) == plain.eval(x)

    def test_unit_coefficients_spectrum(self):
        f = one_body(OneBodyForm((1,) * 4, (1,) * 4))
        values = {f.eval(x) for x in assignments(4)}
        assert values == set(range(5))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            OneBodyForm((-1, 1), (1, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            OneBodyForm((1, 1), (1,))


class TestOneBodyKernel:
    def test_all_positive_pins_to_zero(self):
        desc = one_body_kernel(OneBodyForm((1, 2, 3), (1, 1, 1)))
        assert desc.assignments == {(0, 0, 0)}
        assert not desc.free and not desc.empty

    def test_free_bit(self):
        desc = one_body_kernel(OneBodyForm((1, 0, 1), (1, 1, 1)))
        assert desc.free == (1,)
        assert desc.assignments == {(0, 0, 0), (0, 1, 0)}

    def test_complement_gauge_flips_kernel(self):
        desc = one_body_kernel(OneBodyForm((1, 1, 1), (0, 0, 0)))
        assert desc.assignments == {(1, 1, 1)}

    def test_positive_offset_empties_kernel(self):
        desc = one_body_kernel(OneBodyForm((1,), (1,), offset=Fraction(1, 2)))
        assert desc.empty and desc.assignments == frozenset()

    def test_explicit_kernel_up_to_the_enumeration_cap(self):
        from pbkernel import DEFAULT_ENUMERATION_CAP

        free = OneBodyForm((0,) * 21, (1,) * 21)
        assert one_body_kernel(free).assignments is None  # 2^21 kernel strings are not listed
        assert one_body_kernel(free).free == tuple(range(21))
        pinned = one_body_kernel(OneBodyForm((1,) * DEFAULT_ENUMERATION_CAP, (1,) * DEFAULT_ENUMERATION_CAP))
        assert pinned.assignments == {(0,) * DEFAULT_ENUMERATION_CAP}

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            n = rng.randint(1, 7)
            form = OneBodyForm(
                tuple(Fraction(rng.randint(0, 3)) for _ in range(n)),
                tuple(rng.randint(0, 1) for _ in range(n)),
            )
            desc = one_body_kernel(form)
            assert desc.assignments == frozenset(one_body(form).kernel())

    def test_matches_the_per_bit_loop(self, rng):
        """The kernel tuples come from the one tuple writer; bits given as
        bools or floats pin as the per-bit loop pins them."""
        for _ in range(300):
            n = rng.randint(0, 10)
            form = OneBodyForm(tuple(rng.choice([0, 0, 1, Fraction(1, 2), 2.0]) for _ in range(n)),
                               tuple(rng.choice([0, 1, True, False, 0.0, 1.0]) for _ in range(n)),
                               rng.choice([0, 0, 0, 1]))
            cap = rng.choice([n, n - 1, 20])
            assert one_body_kernel(form, cap) == ref_one_body_kernel(form, cap)
        wide = OneBodyForm((0, 0) + (1,) * 62, (1, 0) * 32)  # two free bits; bit 63 pinned to 1 leaves int64
        assert one_body_kernel(wide, 64) == ref_one_body_kernel(wide, 64)

    def test_gauge_invariance_of_kernels(self, rng):
        for _ in range(10):
            n = rng.randint(2, 8)
            coeffs = tuple(Fraction(rng.randint(0, 2)) for _ in range(n))
            tau = tuple(rng.randint(0, 1) for _ in range(n))
            k_tau = one_body(OneBodyForm(coeffs, tau)).kernel()
            k_plain = one_body(OneBodyForm(coeffs, (1,) * n)).kernel()
            shifted = {
                tuple(b ^ (1 - t) for b, t in zip(x, tau)) for x in k_plain
            }
            assert k_tau == shifted


class TestGhzQuadratic:
    def test_unit_coefficients_kernel(self):
        f = ghz_quadratic([1, 1, 1], [1, 1, 1])
        assert f.kernel() == {(0, 0, 0), (1, 1, 1)}
        assert f.is_nonnegative().ok

    def test_all_to_all_couplings(self):
        form = ising_form(ghz_quadratic([1] * 4, [1] * 4))
        for l in range(4):
            for k in range(l + 1, 4):
                assert form.couplings.get((l, k), 0) != 0

    def test_product_to_union_rule(self, rng):
        n = 4
        c = [Fraction(rng.randint(1, 3)) for _ in range(n)]
        a = [Fraction(rng.randint(1, 3)) for _ in range(n)]
        first = one_body(OneBodyForm(c, (1,) * n))
        second = one_body(OneBodyForm(a, (0,) * n))
        assert ghz_quadratic(c, a).kernel() == first.kernel() | second.kernel()

    def test_zero_coefficient_warns_and_grows(self):
        with pytest.warns(UserWarning):
            f = ghz_quadratic([1, 0, 1], [1, 1, 1])
        assert f.kernel() > {(0, 0, 0), (1, 1, 1)}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ghz_quadratic([1, -1], [1, 1])

    @pytest.mark.parametrize("kind", ["fraction", "numpy"])
    def test_matches_the_from_terms_reference(self, rng, kind):
        """Two one-body forms give the reference's polynomial: its repr, its
        JSON form and its key order, on Fraction and NumPy-integer inputs."""
        for _ in range(40):
            n = rng.randint(1, 8)
            if kind == "fraction":
                c, a = ([Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(2))
            else:
                c, a = (np.array([rng.randint(1, 1 << 40) for _ in range(n)], dtype=np.int64) for _ in range(2))
            got, want = ghz_quadratic(c, a), ref_ghz_quadratic(c, a)
            assert repr(got) == repr(want)
            assert got.to_dict() == want.to_dict()
            assert list(got._terms) == list(want._terms)

    def test_zero_coefficient_matches_the_reference(self):
        for c, a in (([1, 0, 2], [1, 1, 1]), ([0, 0], [0, 3]), ([0], [0])):
            with pytest.warns(UserWarning, match="zero coefficient"):
                got = ghz_quadratic(c, a)
            with pytest.warns(UserWarning, match="zero coefficient"):
                want = ref_ghz_quadratic(c, a)
            assert (repr(got), list(got._terms)) == (repr(want), list(want._terms))

    @pytest.mark.parametrize("c, a", [([1, 1], [1]), ([], []), ([1], [1, 1])])
    def test_length_mismatch_is_a_dimension_error(self, c, a):
        with pytest.raises(DimensionError, match="^coefficient vectors must share a positive length$"):
            ghz_quadratic(c, a)

    def test_same_kernel_as_support_parent(self):
        f = ghz_quadratic([1, 1, 1], [1, 1, 1])
        op = support_parent(SupportSet(3, frozenset({(0, 0, 0), (1, 1, 1)})))
        diag = f.to_disjoint_form()
        for idx in range(8):
            assert (diag[idx] == 0) == (op.diag[idx] == 0)
        # spectra differ: the quadratic model is not a projector complement
        assert set(diag) != set(op.diag)


class TestSquareForm:
    def test_two_variable_expansion(self):
        f = square_form(OneBodyForm((1, 1), (1, 1)))
        assert f == PseudoBoolean.from_terms(2, {(0,): 1, (1,): 1, (0, 1): 2})
        assert f.kernel() == {(0, 0)}

    def test_pointwise_square(self, rng):
        n = 5
        form = OneBodyForm(
            tuple(Fraction(rng.randint(1, 3)) for _ in range(n)),
            tuple(rng.randint(0, 1) for _ in range(n)),
        )
        base, squared = one_body(form), square_form(form)
        for x in assignments(n):
            assert squared.eval(x) == base.eval(x) ** 2

    def test_singleton_kernel_at_tau_complement(self, rng):
        for _ in range(10):
            n = rng.randint(1, 6)
            form = OneBodyForm(
                tuple(Fraction(rng.randint(1, 4)) for _ in range(n)),
                tuple(rng.randint(0, 1) for _ in range(n)),
            )
            expected = tuple(1 - t for t in form.tau)
            assert square_form(form).kernel() == {expected}

    def test_has_one_body_terms(self):
        f = square_form(OneBodyForm((1, 1, 1), (1, 0, 1)))
        assert any(len(vars_) == 1 for vars_, _ in f.terms())

    def test_zero_coefficient_warns(self):
        with pytest.warns(UserWarning):
            square_form(OneBodyForm((1, 0), (1, 1)))


class TestSimplex:
    def test_contradictory_bounds_infeasible(self):
        lp = LPInstance(1, [0], geq=[([1], 1), ([-1], 0)], nonneg=[False])
        res = simplex_solve(lp)
        assert res.status == "infeasible"
        verify_certificate(lp, res.certificate)

    def test_simple_feasible_point(self):
        lp = LPInstance(2, [0, 0], eq=[([1, 1], 1)])
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.x[0] + res.x[1] == 1
        assert res.x[0] >= 0 and res.x[1] >= 0

    def test_optimal_value_and_duals(self):
        lp = LPInstance(2, [1, 1], geq=[([1, 1], 2)])
        res = simplex_solve(lp)
        assert res.status == "optimal" and res.value == 2
        assert res.duals == (1,)

    def test_unbounded_with_ray(self):
        lp = LPInstance(1, [1], sense="max")
        res = simplex_solve(lp)
        assert res.status == "unbounded"
        assert res.ray == {0: 1}

    def test_free_variable_objective(self):
        lp = LPInstance(1, [1], geq=[([1], -3)], nonneg=[False])
        res = simplex_solve(lp)
        assert res.status == "optimal" and res.value == -3

    def test_redundant_equalities(self):
        lp = LPInstance(2, [0, 0], eq=[([1, 1], 1), ([2, 2], 2)])
        res = simplex_solve(lp)
        assert res.status == "optimal"

    def test_beale_cycling_example_terminates(self):
        # classic cycling instance for Dantzig pricing; Bland's rule must
        # reach the optimum -1/20
        lp = LPInstance(
            4,
            [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
            geq=[
                ([Fraction(-1, 4), 60, Fraction(1, 25), -9], 0),
                ([Fraction(-1, 2), 90, Fraction(1, 50), -3], 0),
                ([0, 0, -1, 0], -1),
            ],
        )
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.value == Fraction(-1, 20)

    def test_row_width_checked(self):
        with pytest.raises(DimensionError):
            LPInstance(2, [0, 0], eq=[([1], 1)])


class TestRealizability:
    def test_aligned_pair_feasible(self):
        target = {(0,) * 4, (1,) * 4}
        real = quadratic_realizability(target, 4)
        assert real.feasible
        assert real.verify(target)

    def test_full_cube_feasible_with_zero_form(self):
        target = set(assignments(2))
        real = quadratic_realizability(target, 2)
        assert real.feasible
        for bits in assignments(2):
            assert real.energy(bits) == 0

    def test_even_parity_infeasible_with_certificate(self):
        real = quadratic_realizability(EVEN_PARITY_3, 3)
        assert not real.feasible
        verify_infeasibility(real, set(EVEN_PARITY_3), 3)

    def test_parity_agrees_with_face_enumeration(self):
        eqs, geqs, dim = margin_system(set(EVEN_PARITY_3), 3)
        assert face_enumeration_feasible(eqs, geqs, dim) is False

    def test_parity_character_certificate(self):
        # Walsh orthogonality: every feature column (degree <= 2) is
        # orthogonal to the parity character, so weighting the margin
        # rows by -1 on even strings and +1 on odd strings cancels all
        # columns while the odd rows contribute total mass 4 -- an
        # infeasibility certificate built without any LP machinery
        pairs = ref_pair_order(3)
        target = set(EVEN_PARITY_3)
        combo = [0] * (1 + 3 + len(pairs))
        mass = 0
        for bits in assignments(3):
            sign = -1 if bits in target else 1
            phi = ref_features(bits, pairs)
            combo = [c + sign * v for c, v in zip(combo, phi)]
            if bits not in target:
                mass += 1
        assert all(c == 0 for c in combo)
        assert mass == 4

    def test_random_sets_match_face_enumeration(self, rng):
        for _ in range(12):
            target, n = random_target(rng)
            real = quadratic_realizability(target, n)
            eqs, geqs, dim = margin_system(target, n)
            assert real.feasible == face_enumeration_feasible(eqs, geqs, dim)
            if real.feasible:
                assert real.verify(target)
            else:
                verify_infeasibility(real, target, n)

    def test_accepts_bitstrings(self):
        real = quadratic_realizability(["000", "111"], 3)
        assert real.feasible

    def test_deterministic(self):
        a = quadratic_realizability(EVEN_PARITY_3, 3)
        b = quadratic_realizability(EVEN_PARITY_3, 3)
        assert a.to_dict() == b.to_dict()

    def test_nested_sets_stay_consistent(self, rng):
        for _ in range(5):
            n = 3
            base = set(rng.sample(assignments(n), rng.randint(1, 6)))
            extra = set(rng.sample(assignments(n), rng.randint(1, 2)))
            small, big = base, base | extra
            for target in (small, big):
                real = quadratic_realizability(target, n)
                if real.feasible:
                    assert real.verify(target)
                else:
                    verify_infeasibility(real, target, n)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            quadratic_realizability([], 3)

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError):
            quadratic_realizability(["0012"], 4)

    @pytest.mark.parametrize("bits", [(0, 2), (0, 0, 0), "0a", [0, [1]]])
    def test_certificate_entry_off_the_cube_is_a_bad_bit_string(self, bits):
        """The Farkas check reads a certificate's points as the decision reads
        S, so an entry that is not a point of the n-cube is the decision's
        ValueError, not a KeyError."""
        real = QuadraticRealization(feasible=False, n=2, certificate=[((0, 0), Fraction(-1)), (bits, Fraction(1))])
        with pytest.raises(ValueError, match=rf"^bad bit string {re.escape(repr(bits))} for n = 2$"):
            verify_infeasibility(real, {(0, 0)}, 2)

    @pytest.mark.parametrize("index", range(len(README_REPRS)))
    def test_readme_examples_repr(self, index):
        S, n, want = README_REPRS[index]
        assert repr(quadratic_realizability(S, n)) == want

    @pytest.mark.parametrize("n", range(2, 8))
    def test_coupling_keys_are_python_int_pairs_in_combinations_order(self, n):
        real = quadratic_realizability(["1" + "0" * (n - 1), "0" + "1" * (n - 1)], n)
        assert list(real.couplings) == list(combinations(range(n), 2))
        assert all(type(a) is int for pair in real.couplings for a in pair)  # a numpy int would change repr

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        assert (digest(repr(real)), digest(json.dumps(real.to_dict(), sort_keys=True))) == WEIGHT1_DIGESTS[n]

    def test_json_shapes(self):
        feasible = quadratic_realizability(["00", "11"], 2).to_dict()
        assert feasible["feasible"] is True
        assert set(feasible) == {"feasible", "c0", "h", "J"}
        Fraction(feasible["c0"])  # parses as exact rational
        infeasible = quadratic_realizability(EVEN_PARITY_3, 3).to_dict()
        assert infeasible["feasible"] is False
        for bits, mult in infeasible["certificate"]:
            assert set(bits) <= {"0", "1"}
            Fraction(mult)


class TestSimplexFuzz:
    def _oracle_rows(self, lp):
        """Encode an LPInstance for the free-variable face oracle."""
        eqs = [(list(c), r) for c, r in lp.eq]
        geqs = [(list(c), r) for c, r in lp.geq]
        for v in range(lp.num_vars):
            if lp.nonneg[v]:
                row = [Fraction(0)] * lp.num_vars
                row[v] = Fraction(1)
                geqs.append((row, Fraction(0)))
        return eqs, geqs

    def test_random_lps_match_face_enumeration(self, rng):
        from conftest import face_enumeration_optimum, fuzz_lp

        for _ in range(60):
            lp = fuzz_lp(rng)
            nv = lp.num_vars
            res = simplex_solve(lp)
            eqs, geqs = self._oracle_rows(lp)
            feasible = face_enumeration_feasible(eqs, geqs, nv)
            if res.status == "infeasible":
                assert not feasible
                verify_certificate(lp, res.certificate)
            else:
                assert feasible
                if res.status == "optimal":
                    oracle = face_enumeration_optimum(
                        eqs, geqs, nv, lp.objective, lp.sense
                    )
                    assert oracle == res.value


class TestErrorPaths:
    def test_realizability_cap(self):
        from pbkernel import EnumerationCapError

        with pytest.raises(EnumerationCapError):
            quadratic_realizability([(0,) * 13], 13)

    @pytest.mark.parametrize("n", [True, 2.0, None, " 3", "1_0", "\u0663", "x"])
    def test_n_is_read_as_a_count(self, n):
        # n = True was read as 1, 2.0 and None leaked TypeError
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {n!r}$"):
            quadratic_realizability(["0"], n)
        real = quadratic_realizability(["00", "11"], "2")
        assert real == quadratic_realizability(["00", "11"], 2) and type(real.n) is int

    def test_a_negative_n_string_reaches_the_range_check(self):
        with pytest.raises(ValueError, match=r"^n must be positive, got -1$"):
            quadratic_realizability(["0"], "-1")
