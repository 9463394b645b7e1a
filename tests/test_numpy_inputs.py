"""NumPy integer inputs give the answers of the same inputs as Python ints.

Every outside number reaches an exact table through ``pbf._coerce`` (one
number) or ``pbf._read_table`` (a sequence), which read a NumPy integer as
a Python int.  A NumPy integer carried into exact arithmetic instead wraps
in int64 (or int8, or uint64) with at most a RuntimeWarning.  Each case
below builds one object from NumPy integers and the same object from
Python ints, asserts the two are equal, and asserts that every number the
object stores is a Python int, so no later sum or product can wrap.
"""

from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    DiagonalOperator,
    ExactComplex,
    LPInstance,
    PauliSum,
    PseudoBoolean,
    StateVector,
    SymmetricForm,
    WeightProfile,
    canonical_to_power,
    factorize,
    power_to_canonical,
    profile_to_pbf,
)

#: per dtype, values at or near its extremes: +-2^62 and 2^64 - 1 where they fit
VALUES = {
    np.int8: (127, -128, -3),
    np.int64: (1 << 62, -(1 << 62), (1 << 63) - 1),
    np.uint64: ((1 << 64) - 1, 1 << 62, 3),
}

pytestmark = pytest.mark.parametrize("dtype", list(VALUES), ids=lambda d: d.__name__)


def both(dtype):
    """(the values as NumPy scalars of dtype, the same values as Python ints)."""
    ints = VALUES[dtype]
    scalars = [dtype(v) for v in ints]
    assert all(type(v) is dtype for v in scalars) and [int(v) for v in scalars] == list(ints)
    return scalars, list(ints)


def assert_ints(*numbers):
    """Every number is a Python int, or a Fraction or ExactComplex of Python ints."""
    for x in numbers:
        if isinstance(x, ExactComplex):
            assert_ints(x.re, x.im)
        elif isinstance(x, Fraction):
            assert type(x.numerator) is int and type(x.denominator) is int, repr(x)
        else:
            assert type(x) is int, repr(x)


def assert_table_ints(t):
    assert_ints(*t._terms.values(), t._den)


def test_polynomial_constructors(dtype):
    (a, b, c), (pa, pb, pc) = both(dtype)
    cases = [
        (PseudoBoolean(2, {1: a, 2: b, 3: c}), PseudoBoolean(2, {1: pa, 2: pb, 3: pc})),
        (PseudoBoolean.from_terms(2, {(0,): a, (1,): b, (1, 0): c}),
         PseudoBoolean.from_terms(2, {(0,): pa, (1,): pb, (1, 0): pc})),
        (PseudoBoolean(1, {1: Fraction(a, 3)}), PseudoBoolean(1, {1: Fraction(pa, 3)})),
        (PseudoBoolean.constant(1, c), PseudoBoolean.constant(1, pc)),
    ]
    for got, want in cases:
        assert got == want and hash(got) == hash(want)
        assert_table_ints(got)
        assert_ints(*(coeff for _, coeff in got.terms()))


def test_polynomial_sums_and_products(dtype):
    (a, b, c), (pa, pb, pc) = both(dtype)
    f, pf = PseudoBoolean(2, {1: a, 2: b}), PseudoBoolean(2, {1: pa, 2: pb})
    g, pg = PseudoBoolean(2, {0: c, 3: a}), PseudoBoolean(2, {0: pc, 3: pa})
    cases = [
        (f + f, pf + pf),
        (f + g, pf + pg),
        (f + c, pf + pc),
        (c + f, pc + pf),
        (f - c, pf - pc),
        (f * c, pf * pc),
        (c * f, pc * pf),
        (f * a * a, pf * pa * pa),
        (f * g, pf * pg),
        (f * f, pf * pf),
    ]
    for got, want in cases:
        assert got == want
        assert_table_ints(got)
    assert f.eval((1, 1)) == pa + pb
    assert_ints(f.eval((1, 1)))


def test_disjoint_form_of_an_array(dtype):
    (a, b, c), (pa, pb, pc) = both(dtype)
    for ints in ([pa, pa, pb, pc], [pa, pb, pc, pa, pc, pb, pa, pa]):
        table = np.array(ints, dtype=dtype)
        got = PseudoBoolean.from_disjoint_form(table)
        assert got == PseudoBoolean.from_disjoint_form(ints)
        assert_table_ints(got)
        assert got.to_disjoint_form() == ints


def test_pauli_sum_scaled_by_numpy_scalars(dtype):
    (a, b, c), (pa, pb, pc) = both(dtype)
    h, ph = PauliSum(2, {"XI": a, "ZZ": b}), PauliSum(2, {"XI": pa, "ZZ": pb})
    for got, want in [(h, ph), (h * c, ph * pc), (c * h, pc * ph), (h + h, ph + ph), (h - c * h, ph - pc * ph)]:
        assert got == want and got.terms() == want.terms()
        assert_table_ints(got)


def test_exact_complex_products(dtype):
    (a, b, c), (pa, pb, pc) = both(dtype)
    z, pz = ExactComplex(a, b), ExactComplex(pa, pb)
    cases = [
        (z, pz),
        (z * ExactComplex(c, a), pz * ExactComplex(pc, pa)),
        (z * z, pz * pz),
        (z * c, pz * pc),
        (c * z, pc * pz),
        (z + c, pz + pc),
    ]
    for got, want in cases:
        assert type(got) is ExactComplex and got == want
        assert_ints(got)
    assert z == ExactComplex(Fraction(pa), Fraction(pb)) and ExactComplex(c) == pc


def test_statevector_and_diagonal(dtype):
    (a, b, c), (pa, pb, pc) = both(dtype)
    amps, ints = [a, b, c, ExactComplex(a, c)], [pa, pb, pc, ExactComplex(pa, pc)]
    v, pv = StateVector(2, amps), StateVector(2, ints)
    assert v == pv and v.amps == pv.amps
    assert v.re.tolist() == pv.re.tolist() and v.im.tolist() == pv.im.tolist()
    assert_ints(v.denom, *v.amps)
    d = DiagonalOperator(2, np.array([pa, pb, pc, pa], dtype=dtype))
    pd = DiagonalOperator(2, [pa, pb, pc, pa])
    assert d == pd and d.diag == pd.diag
    assert_ints(d.denom, *d.diag)
    assert d.apply(v) == pd.apply(pv)
    h, ph = PauliSum(2, {"XY": a, "ZI": b}), PauliSum(2, {"XY": pa, "ZI": pb})
    assert h.apply(v) == ph.apply(pv)
    assert_ints(h.apply(v).denom, *h.apply(v).amps)


def test_lp_rows_mixing_numpy_integers_and_fractions(dtype):
    (a, b, c), (pa, pb, pc) = both(dtype)
    third = Fraction(1, 3)
    lp = LPInstance(2, [a, third], eq=[([b, third], c)], geq=[([a, c], third), ([a, b], 1)])
    want = LPInstance(2, [pa, third], eq=[([pb, third], pc)], geq=[([pa, pc], third), ([pa, pb], 1)])
    assert lp == want and lp.eq == want.eq and lp.geq == want.geq and lp.objective == want.objective
    assert lp._matrix.tolist() == want._matrix.tolist()
    assert lp._matrix.tolist()[0] == [3 * pb, 1, 3 * pc]
    assert lp._lcm == want._lcm == (3, 3, 1) and lp._cost == want._cost == ((3 * pa, 1), 3)
    assert_ints(*lp._lcm, *lp._cost[0], lp._cost[1])
    if lp._matrix.dtype == object:
        assert_ints(*lp._matrix.ravel())


def test_profile_to_pbf(dtype):
    (a, b, c), (pa, pb, pc) = both(dtype)
    for values, ints in [((a, b, c), (pa, pb, pc)), ((a, a, b, c), (pa, pa, pb, pc))]:
        p, pp = WeightProfile(len(values) - 1, values), WeightProfile(len(ints) - 1, ints)
        assert p == pp
        assert_ints(*p.values)
        got = profile_to_pbf(p)
        assert got == profile_to_pbf(pp)
        assert_table_ints(got)


def test_symmetric_forms(dtype):
    (a, b, c), (pa, pb, pc) = both(dtype)
    form = canonical_to_power(np.array([pa, pb, pc], dtype=dtype))
    assert form == canonical_to_power([pa, pb, pc])
    assert_ints(*form.power_coeffs)
    for coeffs, ints in [((a, b, c), (pa, pb, pc)), ((dtype(0), a, dtype(1)), (0, pa, 1))]:
        s, ps = SymmetricForm(2, coeffs), SymmetricForm(2, ints)
        assert s == ps
        assert_ints(*s.power_coeffs)
        got, want = factorize(s), factorize(ps)
        assert got == want
        assert_ints(got.scale, *got.exact_roots)
        # profile() and to_pbf() run a Horner pass over the held coefficients
        assert s.profile() == ps.profile() and s.to_pbf() == ps.to_pbf()
        assert power_to_canonical(s) == power_to_canonical(ps)
        assert_ints(*s.profile().values, *power_to_canonical(s))
