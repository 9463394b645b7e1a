"""The exact cube engine against the per-point Fraction reference scans.

Every cube oracle (kernel, non-negativity, minimization, symmetry
detection, both disjoint-form directions and the realizability margin
check) must give the same answer as the reference in ``conftest``,
witnesses included, on integer and rational coefficients and on both
sides of the int64 bound of the engine.
"""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    EnumerationCapError,
    PseudoBoolean,
    SupportSet,
    WeightProfile,
    detect_symmetric,
    minimize_bruteforce,
    profile_to_pbf,
    quadratic_realizability,
    support_parent,
)
from conftest import (
    assignments,
    random_pbf,
    ref_energy,
    ref_from_disjoint_form,
    ref_kernel,
    ref_margin_check,
    ref_minimize,
    ref_nonnegative,
    ref_symmetry,
    ref_to_disjoint_form,
)

BIG = 1 << 62


def random_rational_pbf(rng, n, max_terms=8):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        vars_ = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        terms[vars_] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return PseudoBoolean.from_terms(n, terms)


def polynomials(n):
    """Seeded integer, rational and zero-rich (squared) inputs at arity n."""
    rng = random.Random(100 + n)
    out = [PseudoBoolean.zero(n), PseudoBoolean.constant(n, Fraction(-3, 7))]
    for _ in range(4):
        out.append(random_pbf(rng, n))
        out.append(random_rational_pbf(rng, n))
        g = random_rational_pbf(rng, n, max_terms=3)
        out.append(g * g)
        out.append(g * g - Fraction(1, rng.randint(1, 5)))
    return out


def boundary_polynomials():
    """Sum of |scaled numerators| just below, at and above 2^62.

    All coefficients share one sign, so the value at the all-ones point
    carries the whole sum and an int64 overflow could not hide.
    """
    n = 5
    out = []
    for total in (BIG - 1, BIG, 1 << 70):
        parts = [total // 4, total // 4, total // 4]
        parts.append(total - sum(parts))
        for sign in (1, -1):
            out.append(PseudoBoolean.from_terms(
                n, {(): sign * parts[0], (0,): sign * parts[1], (1, 3): sign * parts[2],
                    (0, 2, 4): sign * parts[3]}))
    # coefficients below 2^61 each, whose numerators over the LCM 15 pass 2^62
    out.append(PseudoBoolean.from_terms(
        n, {(): Fraction(1 << 61, 3), (2,): Fraction(-(1 << 60), 5), (1, 4): Fraction(-1, 1)}))
    out.append(PseudoBoolean.from_terms(
        n, {(0,): Fraction(1 << 60, 3), (0, 1): Fraction(1 << 60, 5), (3,): -Fraction(1 << 61, 15)}))
    return out


CASES = [f for n in range(9) for f in polynomials(n)] + boundary_polynomials()


def test_boundary_inputs_straddle_the_int64_bound():
    dtypes = [f._cube_values(f.n, "cube")[0].dtype for f in boundary_polynomials()]
    assert dtypes[:2] == [np.int64, np.int64]
    assert all(d == object for d in dtypes[2:])


@pytest.mark.parametrize("f", CASES)
def test_kernel(f):
    assert f.kernel() == ref_kernel(f)


@pytest.mark.parametrize("f", CASES)
def test_nonnegativity_verdict_and_witness(f):
    res = f.is_nonnegative()
    assert (res.ok, res.witness) == ref_nonnegative(f)


@pytest.mark.parametrize("f", CASES)
def test_minimum_and_argmin(f):
    res = minimize_bruteforce(f)
    best, argmin = ref_minimize(f)
    assert type(res.value) is Fraction
    assert (res.value, res.argmin) == (best, argmin)


@pytest.mark.parametrize("f", CASES)
def test_disjoint_form_both_directions(f):
    table = f.to_disjoint_form()
    assert table == ref_to_disjoint_form(f)
    assert all(type(v) is Fraction for v in table)
    assert PseudoBoolean.from_disjoint_form(table) == ref_from_disjoint_form(table) == f


def test_from_disjoint_form_accepts_coercible_entries():
    table = (0, "1/2", Fraction(-3, 4), 2, 1.5, "7", -1, Fraction(5, 9))
    assert PseudoBoolean.from_disjoint_form(table) == ref_from_disjoint_form(table)


def test_from_disjoint_form_at_the_bound():
    for total in (BIG - 1, BIG, 1 << 70):
        table = [0] * 7 + [total]
        assert PseudoBoolean.from_disjoint_form(table) == ref_from_disjoint_form(table)


def symmetric_cases():
    rng = random.Random(7)
    out = []
    for n in range(9):
        values = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n + 1)]
        f = profile_to_pbf(WeightProfile(n, tuple(values)))
        out.append(f)
        for _ in range(3):
            vars_ = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            out.append(f + PseudoBoolean.from_terms(n, {vars_: Fraction(1, rng.randint(1, 3))}))
    return out


@pytest.mark.parametrize("f", CASES[::3] + symmetric_cases())
def test_symmetry_profile_and_witness(f):
    res = detect_symmetric(f)
    profile, witness = ref_symmetry(f)
    assert res.witness == witness
    assert (res.profile.values if res.profile else None) == profile


@pytest.mark.parametrize("call, what", [
    (lambda f: f.kernel(cap=3), "kernel"),
    (lambda f: f.is_nonnegative(cap=3), "non-negativity scan"),
    (lambda f: f.to_disjoint_form(cap=3), "disjoint-form table"),
    (lambda f: minimize_bruteforce(f, cap=3), "disjoint-form table"),
    (lambda f: detect_symmetric(f, cap=3), "symmetry scan"),
])
def test_cap_messages(call, what):
    with pytest.raises(EnumerationCapError) as exc:
        call(PseudoBoolean.zero(4))
    assert str(exc.value) == f"{what} would enumerate 2^4 points (cap 2^3)"


def test_witnesses_follow_varmask_order():
    # negative at 10, 01 and 11; varmask order visits x1 = 1 first
    f = PseudoBoolean.from_terms(2, {(0,): -1, (1,): -1})
    assert f.is_nonnegative().witness == (1, 0)
    # weight 1 is represented by mask 0b01 = (1, 0); mask 0b10 breaks symmetry
    g = PseudoBoolean.from_terms(3, {(1,): 1})
    assert detect_symmetric(g).witness == ((1, 0, 0), (0, 1, 0))


def scaled(real, scale):
    return dict(constant=real.constant * scale,
                fields=tuple(h * scale for h in real.fields),
                couplings={k: j * scale for k, j in real.couplings.items()})


def tampered(real, rng):
    """Changes to a feasible realization: one coefficient nudged (breaks
    the zeros on S), the whole form halved (keeps them but can lose the
    margin off S) or scaled up (keeps both)."""
    delta = Fraction(rng.choice([-1, 1]), rng.randint(1, 4))
    yield dict(constant=real.constant + delta)
    fields = list(real.fields)
    fields[rng.randrange(real.n)] += delta
    yield dict(fields=tuple(fields))
    if real.couplings:
        couplings = dict(real.couplings)
        key = rng.choice(sorted(couplings))
        couplings[key] += delta
        yield dict(couplings=couplings)
    yield scaled(real, Fraction(1, 2))
    yield scaled(real, Fraction(5, 2))


def test_margin_check_on_tampered_coefficients():
    rng = random.Random(11)
    verdicts = []
    for n in range(2, 6):
        for _ in range(6):
            target = {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 3))}
            real = quadratic_realizability(target, n)
            if not real.feasible:
                assert real.verify(target) is False
                continue
            assert real.verify(target) is True
            for change in tampered(real, rng):
                bad = replace(real, **change)
                verdicts.append(bad.verify(target))
                assert verdicts[-1] == ref_margin_check(bad, target)
                assert [bad.energy(x) for x in assignments(n)] == [
                    ref_energy(bad, x) for x in assignments(n)]
    assert True in verdicts and False in verdicts


def test_members_that_are_not_assignments_name_no_point():
    op = support_parent(SupportSet(3, frozenset({(0, 1, 1), (1, 1), (2, 0, 0), "001"})))
    assert op.kernel_indices() == [0b011]
    target = {(0, 0), (1, 1)}
    real = quadratic_realizability(target, 2)
    padded = target | {(1, 1, 1), (2, 0), "01"}
    assert real.verify(padded) is ref_margin_check(real, padded) is True
