"""The exact re-checks of LP answers against their Fraction references.

Every answer ``simplex_solve`` and ``quadratic_realizability`` return is
re-checked on the integer rows of the LP: one primal check for points and
rays, one dual check for optimal duals and Farkas certificates, and the
integer feature matrix for realizability certificates.  Here each check
sees the solver's own answer and tampered copies of it (one entry nudged
or negated, realizability multipliers doubled, negated or dropped), and
must raise exactly when the Fraction check it replaced (``conftest``)
raises.  A solve hands its checks its own integers; raising one numerator
of the point, a dual or the ray on that path must fail the check too.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import LPInstance, ising_kernel, quadratic_realizability, simplex_solve
from pbkernel.ising_kernel import _check_duals, _check_point, _check_ray, verify_certificate
from pbkernel.pbf import bits_of
from conftest import (
    assignments,
    fuzz_lp,
    random_target,
    rational_lp,
    ref_check_duals,
    ref_check_point,
    ref_check_ray,
    ref_features,
    ref_pair_order,
    ref_verify_certificate,
    ref_verify_infeasibility,
)
from test_integer_tableau import NAMED_LPS

NUDGE = Fraction(1, 3)


def passes(check, *args):
    try:
        check(*args)
    except AssertionError:
        return False
    return True


def check_duals(lp, duals, value):
    """The dual re-check of an optimal solve, as ``simplex_solve`` makes it."""
    if _check_duals(lp, duals, lp.objective, lp.sense) != value:
        raise AssertionError("dual bound does not match the optimal value")


def tampered(values):
    """The values as given, then with one entry nudged or negated at a time."""
    yield list(values)
    for i, v in enumerate(values):
        for new in (v + NUDGE, -v):
            if new != v:
                yield [new if j == i else w for j, w in enumerate(values)]


def lp_pool():
    rng = random.Random(0xC0FFEE)  # the seed of the ``rng`` fixture: TestSimplexFuzz's LPs
    fuzz = [fuzz_lp(rng) for _ in range(60)]
    rng = random.Random(20231)
    return NAMED_LPS + fuzz + [rational_lp(rng) for _ in range(150)]


def lp_verdicts():
    """{check name: [(library verdict, reference verdict)]} over the pool."""
    seen = {name: [] for name in ("point", "duals", "ray", "certificate")}
    for lp in lp_pool():
        res = simplex_solve(lp)
        if res.status == "optimal":
            for x in tampered(res.x):
                seen["point"].append((passes(_check_point, lp, x), passes(ref_check_point, lp, x)))
            for y in tampered(res.duals):
                got = passes(check_duals, lp, y, res.value)
                seen["duals"].append((got, passes(ref_check_duals, lp, y, res.value)))
        elif res.status == "unbounded":
            keys = range(lp.num_vars)
            for vec in tampered([res.ray.get(v, Fraction(0)) for v in keys]):
                ray = {v: d for v, d in zip(keys, vec) if d}
                seen["ray"].append((passes(_check_ray, lp, ray), passes(ref_check_ray, lp, ray)))
        else:
            refs = [ref for ref, _ in res.certificate]
            for mults in tampered([m for _, m in res.certificate]):
                cert = list(zip(refs, mults))
                got = passes(verify_certificate, lp, cert)
                seen["certificate"].append((got, passes(ref_verify_certificate, lp, cert)))
    return seen


@pytest.fixture(scope="module")
def verdicts():
    return lp_verdicts()


@pytest.mark.parametrize("name", ["point", "duals", "ray", "certificate"])
def test_lp_rechecks_reject_exactly_what_the_reference_rejects(verdicts, name):
    pairs = verdicts[name]
    assert [got for got, _ in pairs] == [want for _, want in pairs]
    assert {got for got, _ in pairs} == {True, False}


def test_rechecks_on_rational_rows():
    # row LCMs 6 and 10, a rational objective: x = (1/2, 1/3) is the optimum
    lp = LPInstance(
        2, [Fraction(1, 2), Fraction(1, 3)],
        eq=[([Fraction(1, 3), Fraction(1, 2)], Fraction(1, 3))],
        geq=[([Fraction(2, 5), 0], Fraction(1, 5))],
    )
    res = simplex_solve(lp)
    assert res.status == "optimal" and res.x == (Fraction(1, 2), Fraction(1, 3))
    for x in ([Fraction(1, 2), Fraction(1, 3) + Fraction(1, 10**9)], [Fraction(1, 3), Fraction(4, 9)]):
        with pytest.raises(AssertionError):
            _check_point(lp, x)
        with pytest.raises(AssertionError):
            ref_check_point(lp, x)


def test_certificate_with_a_repeated_row_is_summed():
    lp = LPInstance(1, [0], geq=[([1], 1), ([-1], 0)], nonneg=[False])
    verify_certificate(lp, [(("geq", 0), Fraction(1, 2)), (("geq", 1), 1), (("geq", 0), Fraction(1, 2))])
    with pytest.raises(AssertionError):
        verify_certificate(lp, [(("geq", 0), 1), (("geq", 1), 1), (("geq", 1), 1)])


def test_integer_rows_stay_out_of_equality_and_repr():
    a = LPInstance(2, [1, 1], eq=[([Fraction(1, 2), 1], Fraction(1, 3))])
    b = LPInstance(2, [1, 1], eq=[([Fraction(2, 4), 1], Fraction(2, 6))])
    assert a == b and hash(a) == hash(b)
    assert "_matrix" not in repr(a) and "_lcm" not in repr(a)
    assert a._matrix.tolist() == [[3, 6, 2]] and a._lcm == (6,)


def test_python_int_rows_are_their_own_numerators():
    # an all-int row is taken as it is; a row holding a bool, a float or a
    # Fraction goes through the coercion to the same integer row
    ints = LPInstance(2, [1, 1], eq=[([2, -4], 6)], geq=[([0, 3], -1)])
    assert ints._matrix.tolist() == [[2, -4, 6], [0, 3, -1]] and ints._lcm == (1, 1)
    assert all(type(c) is Fraction for c in ints.eq[0][0] + ints.geq[0][0])
    for coeffs in ([2.0, -4], [Fraction(2), -4], [2, Fraction(-8, 2)]):
        other = LPInstance(2, [1, 1], eq=[(coeffs, 6)], geq=[([0, 3], -1)])
        assert other == ints
        assert other._matrix.tolist() == [[2, -4, 6], [0, 3, -1]] and other._lcm == (1, 1)
        assert other._matrix.dtype == np.int64 and all(type(lcm) is int for lcm in other._lcm)
    bools = LPInstance(2, [1, 1], eq=[([True, False], 1)])
    assert bools._matrix.tolist() == [[1, 0, 1]] and bools._lcm == (1,)
    assert bools._matrix.dtype == np.int64


def cleared_by(monkeypatch, build):
    """(the LP ``build()`` returns, how many rows it cleared with ``_numerators``).

    The objective is read by ``_numerators`` too, as num_vars values; a row
    read passes its entries and its right-hand side, one value more, and
    only those reads are counted."""
    sizes = []
    numerators = ising_kernel._numerators

    def counting(values):
        values = list(values)
        sizes.append(len(values))
        return numerators(values)

    monkeypatch.setattr(ising_kernel, "_numerators", counting)
    lp = build()
    monkeypatch.setattr(ising_kernel, "_numerators", numerators)
    return lp, sizes.count(lp.num_vars + 1)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_integer_array_rows_are_their_own_numerators(monkeypatch, dtype):
    eq, geq = ([2, 0, 7], 6), ([0, 3, 255], 1)

    def lp(row):
        return LPInstance(3, [1, 1, 1], eq=[row(*eq)], geq=[row(*geq)], nonneg=[True, False, True])

    ints = lp(lambda c, b: (c, b))
    fractions = lp(lambda c, b: ([Fraction(a) for a in c], Fraction(b)))
    arrays, cleared = cleared_by(monkeypatch, lambda: lp(lambda c, b: (np.array(c, dtype), b)))
    assert cleared == 0  # the array itself is the integer row
    for other in (fractions, arrays):
        assert other == ints and hash(other) == hash(ints)
        assert other.eq == ints.eq and other.geq == ints.geq
        assert all(type(c) is Fraction for c in other.eq[0][0] + other.geq[0][0])
        assert other._matrix.tolist() == ints._matrix.tolist() == [[2, 0, 7, 6], [0, 3, 255, 1]]
        assert other._matrix.dtype == ints._matrix.dtype == np.int64
        assert other._lcm == ints._lcm == (1, 1)
        assert simplex_solve(other) == simplex_solve(ints)


def test_uint64_entries_past_2_63_land_on_python_ints():
    big = LPInstance(2, [0, 0], geq=[(np.array([2**64 - 1, 1], np.uint64), 1)])
    assert big == LPInstance(2, [0, 0], geq=[([2**64 - 1, 1], 1)])
    assert big._matrix.dtype == object and big._matrix.tolist() == [[2**64 - 1, 1, 1]]
    assert all(type(a) is int for a in big._matrix.ravel())
    small = LPInstance(2, [0, 0], geq=[(np.array([2**63 - 1, 1], np.uint64), 1)])
    assert small._matrix.dtype == np.int64 and small._matrix.tolist() == [[2**63 - 1, 1, 1]]
    # -2^63 fits int64, but the rule is |entry| < 2^63 on both signs
    assert LPInstance(1, [0], geq=[(np.array([-2**63]), 1)])._matrix.dtype == object


def test_float_array_rows_go_through_the_coercion(monkeypatch):
    floats, cleared = cleared_by(
        monkeypatch, lambda: LPInstance(2, [1, 1], eq=[(np.array([0.5, 2.0]), 1)], geq=[(np.array([1.0, 0.25]), 0)])
    )
    assert cleared == 2
    assert floats == LPInstance(2, [1, 1], eq=[([Fraction(1, 2), 2], 1)], geq=[([1, Fraction(1, 4)], 0)])
    assert floats._matrix.tolist() == [[1, 4, 2], [4, 1, 0]] and floats._lcm == (2, 4)
    # an integer array with a non-int right-hand side is cleared as well
    mixed, cleared = cleared_by(monkeypatch, lambda: LPInstance(2, [1, 1], eq=[(np.array([1, 2]), Fraction(1, 2))]))
    assert cleared == 1 and mixed._matrix.tolist() == [[2, 4, 1]] and mixed._lcm == (2,)


def test_realizability_rows_reach_the_lp_as_arrays(monkeypatch):
    rows = []

    def recording(*args, **kwargs):
        rows.extend(kwargs["eq"])
        return LPInstance(*args, **kwargs)

    monkeypatch.setattr(ising_kernel, "LPInstance", recording)
    for target, n in [({(0, 0, 0), (1, 1, 1)}, 3), ({x for x in assignments(3) if sum(x) % 2 == 0}, 3)]:
        quadratic_realizability(target, n)
    assert len(rows) == 2 * (1 + 3 + 3)
    assert all(isinstance(coeffs, np.ndarray) and coeffs.dtype == np.int64 and type(rhs) is int for coeffs, rhs in rows)


# -- realizability certificates ------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_feature_rows_match_the_per_point_features(n):
    pairs = ref_pair_order(n)
    points, _, features = ising_kernel._cube(n)  # one column per point
    assert features.T.tolist() == [ref_features(bits, pairs) for bits in assignments(n)]
    assert [bits_of(i, n) for i in range(1 << n)] == points == assignments(n)


def realizability_certificates():
    rng = random.Random(611)
    targets = [({x for x in assignments(n) if sum(x) % 2 == p}, n) for n in (3, 4) for p in (0, 1)]
    targets += [random_target(rng) for _ in range(40)]
    for target, n in targets:
        real = quadratic_realizability(target, n)
        if not real.feasible:
            yield real, target, n


def tampered_certificates(real, target):
    cert = real.certificate
    yield cert
    for i in range(len(cert)):
        yield [(b, 2 * m if j == i else m) for j, (b, m) in enumerate(cert)]
        if cert[i][0] not in target:
            yield [(b, -m if j == i else m) for j, (b, m) in enumerate(cert)]
    yield [(b, m) for b, m in cert if b in target]


def test_realizability_certificates_reject_exactly_what_the_reference_rejects():
    pairs, count = [], 0
    for real, target, n in realizability_certificates():
        count += 1
        for cert in tampered_certificates(real, target):
            copy = ising_kernel.QuadraticRealization(feasible=False, n=n, certificate=cert)
            got = passes(ising_kernel.verify_infeasibility, copy, target, n)
            pairs.append((got, passes(ref_verify_infeasibility, copy, target, n)))
    assert count >= 6
    assert [got for got, _ in pairs] == [want for _, want in pairs]
    assert {got for got, _ in pairs} == {True, False}


# -- the integer re-checks a solve makes -------------------------------------------

#: a realizable pair (a point and duals to check) and the even-parity set (a ray)
FEASIBLE, INFEASIBLE = ({(0, 1, 1, 0), (1, 0, 0, 1)}, 4), ({x for x in assignments(3) if sum(x) % 2 == 0}, 3)


@pytest.mark.parametrize("check, target, size", [
    ("_check_point_ints", FEASIBLE, 16),  # one numerator per variable
    ("_check_duals_ints", FEASIBLE, 11),  # one per row: c0, four h_l, six J_lk
    ("_check_ray", INFEASIBLE, 8),
])
def test_one_wrong_numerator_fails_the_integer_recheck(monkeypatch, check, target, size):
    # the solve hands each check its own integers; raising any one numerator
    # by 1 before the check (one variable of the point or ray, one dual) must fail it
    original, seen = getattr(ising_kernel, check), []

    def perturbing(lp, values, *rest):
        values = dict(values) if isinstance(values, dict) else list(values)
        if index is not None:
            values[index] = (values.get(index, 0) if isinstance(values, dict) else values[index]) + 1
        seen.append(index)
        return original(lp, values, *rest)

    monkeypatch.setattr(ising_kernel, check, perturbing)
    index = None
    assert quadratic_realizability(*target).feasible is (target is FEASIBLE)
    for index in range(size):
        with pytest.raises(AssertionError):
            quadratic_realizability(*target)
    assert seen == [None, *range(size)]
