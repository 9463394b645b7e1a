"""``LPInstance`` against the constructor it replaced (``RefLPInstance``).

The constructor clears each row to integers without building a
``Fraction`` per entry and builds the public ``Fraction`` rows and
objective only when one is read.  On every input both constructors must
agree: the public rows, objective, sign pattern and sense, equality, hash
and repr, the integer rows ``_matrix`` and their LCMs ``_lcm``, and on a
bad input the raised error, its type and its message.  Two inputs raise a
better error than the reference did: a row that is not one-dimensional,
and an unknown row reference in a certificate.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import pbkernel
from pbkernel import LPInstance, simplex_solve
from pbkernel.errors import DimensionError
from pbkernel.ising_kernel import verify_certificate
from conftest import RefLPInstance, fuzz_lp, rational_lp


def generated(generator, seed, count):
    """The (args, kwargs) of the ``count`` LPs ``generator`` builds from ``seed``."""
    calls, rng = [], random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pbkernel, "LPInstance", lambda *args, **kwargs: calls.append((args, kwargs)))
        for _ in range(count):
            generator(rng)
    return calls


def integral(value):
    return type(value) is Fraction and value.denominator == 1


def variants(kwargs):
    """The same LP given as Fractions, as Python ints where integral, and
    with each integral row as an int64 array (int rhs) or as an int32
    array beside a Fraction rhs."""
    def rows(kind, convert):
        return [convert(coeffs, rhs) for coeffs, rhs in kwargs[kind]]

    def ints(coeffs, rhs):
        return [int(c) if integral(c) else c for c in coeffs], int(rhs) if integral(rhs) else rhs

    def int64(coeffs, rhs):
        if all(map(integral, (*coeffs, rhs))):
            return np.array([int(c) for c in coeffs], np.int64), int(rhs)
        return coeffs, rhs

    def int32(coeffs, rhs):
        if all(map(integral, coeffs)):
            return np.array([int(c) for c in coeffs], np.int32), rhs
        return coeffs, rhs

    yield kwargs
    objective = [int(c) if integral(c) else c for c in kwargs["objective"]]
    for convert in (ints, int64, int32):
        yield {**kwargs, "objective": objective, "eq": rows("eq", convert), "geq": rows("geq", convert)}


def outcome(cls, kwargs):
    """The instance, or (type, message) of what its constructor raised."""
    try:
        return cls(**kwargs)
    except Exception as exc:  # every raise is compared, type and message
        return type(exc), str(exc)


def public(lp):
    return lp.num_vars, lp.objective, lp.eq, lp.geq, lp.nonneg, lp.sense


def assert_same_instance(kwargs):
    want = outcome(RefLPInstance, kwargs)
    if isinstance(want, tuple):
        assert outcome(LPInstance, kwargs) == want
        return
    # each of the four ways in: a fresh instance read first by it
    assert repr(LPInstance(**kwargs)) == repr(want).replace("RefLPInstance(", "LPInstance(", 1)
    assert hash(LPInstance(**kwargs)) == hash(want)
    assert LPInstance(**kwargs) == LPInstance(**kwargs)
    got = LPInstance(**kwargs)
    assert public(got) == public(want)
    assert all(type(c) is Fraction for c in got.objective)
    assert all(type(c) is Fraction for coeffs, rhs in got.eq + got.geq for c in (*coeffs, rhs))
    assert got._matrix.dtype == want._matrix.dtype
    assert got._matrix.tolist() == want._matrix.tolist()
    assert not got._matrix.flags.writeable
    assert got._lcm == want._lcm
    return got, want


@pytest.mark.parametrize("generator, seed, count", [(fuzz_lp, 0xC0FFEE, 100), (rational_lp, 20231, 200)])
def test_generated_lps_match_the_reference(generator, seed, count):
    built = []
    for _, kwargs in generated(generator, seed, count):
        for given in variants(kwargs):
            built.append(assert_same_instance(given))
    # equality agrees on every pair of neighbours: the variants of one LP, then the next LP
    for (got, want), (other, other_want) in zip(built, built[1:]):
        assert (got == other) == (want == other_want)
    assert any(got == other for (got, _), (other, _) in zip(built, built[1:]))
    assert not all(got == other for (got, _), (other, _) in zip(built, built[1:]))


EDGE_CASES = [
    # uint64 past 2^63 lands on Python ints, below it on int64; -2^63 is past the bound too
    dict(num_vars=2, objective=[0, 0], geq=[(np.array([2**64 - 1, 1], np.uint64), 1)]),
    dict(num_vars=2, objective=[0, 0], geq=[(np.array([2**63 - 1, 1], np.uint64), 1)]),
    dict(num_vars=1, objective=[0], geq=[(np.array([-(2**63)]), 1)]),
    dict(num_vars=1, objective=[0], geq=[([2**63], 1)]),
    # object and bool arrays go through the coercion
    dict(num_vars=2, objective=[1, 1], eq=[(np.array([Fraction(1, 2), 3], dtype=object), Fraction(1, 3))]),
    dict(num_vars=2, objective=[1, 1], eq=[(np.array([1, 2], dtype=object), 3)]),
    dict(num_vars=2, objective=[1, 1], eq=[(np.array([True, False]), 1)], geq=[([False, True], True)]),
    dict(num_vars=2, objective=[True, 2.5], eq=[(np.array([0.5, 2.0]), 1)]),
    dict(num_vars=2, objective=["1/2", 1], eq=[(["1/3", 2], "3/4")], sense="max"),
    dict(num_vars=0, objective=[]),
    dict(num_vars=0, objective=[], eq=[([], 0)], geq=[(np.array([], np.int64), -1)]),
    # a bad entry raises in the constructor, with the reference's message
    dict(num_vars=2, objective=[float("nan"), 1]),
    dict(num_vars=2, objective=[float("nan")]),
    dict(num_vars=2, objective=[1, 1], eq=[([float("inf"), 1], 0)]),
    dict(num_vars=2, objective=[1, 1], geq=[([1, 2], "x")]),
    dict(num_vars=2, objective=[1, 1], geq=[([1, 2], None)]),
    dict(num_vars=2, objective=[1, 1], eq=[(np.array([1, 2]), float("nan"))]),
    # width mismatches: the entries are read first, then the width, then the rhs
    dict(num_vars=2, objective=[1, 1], eq=[([1, 2, 3], 0)]),
    dict(num_vars=2, objective=[1, 1], eq=[(np.array([1, 2, 3]), 0)]),
    dict(num_vars=2, objective=[1, 1], geq=[(np.array([1.5]), 0)]),
    dict(num_vars=2, objective=[1, 1], eq=[([1, "x", 3], 0)]),
    dict(num_vars=2, objective=[1, 1], eq=[([1, 2, 3], "x")]),
    dict(num_vars=2, objective=[1, 1], eq=[([1, 2], 0)], geq=[([1], "x")]),
    dict(num_vars=2, objective=[1]),
    dict(num_vars=2, objective=[1, 1], nonneg=[True]),
    dict(num_vars=2, objective=[1, 1], sense="maximize"),
]


@pytest.mark.parametrize("index", range(len(EDGE_CASES)))
def test_edge_cases_match_the_reference(index):
    assert_same_instance(EDGE_CASES[index])


def test_iterators_are_read_once():
    def build(cls):
        return cls(2, (c for c in (1, 2)), eq=((row, 0) for row in ([1, 2], (3, 4))), nonneg=[False, True])

    got, want = build(LPInstance), build(RefLPInstance)
    assert public(got) == public(want) and got._matrix.tolist() == want._matrix.tolist()
    assert got._lcm == want._lcm == (1, 1)


@pytest.mark.parametrize("coeffs", [np.array([[1, 2]]), np.array([[1], [2]]), np.array(5), np.array([[0.5, 1]])])
def test_a_row_that_is_not_one_dimensional_is_a_dimension_error(coeffs):
    # the reference read such a row with tolist and failed in its coercion
    with pytest.raises(TypeError):
        RefLPInstance(2, [1, 1], eq=[(coeffs, 0)])
    with pytest.raises(DimensionError, match="row width != num_vars"):
        LPInstance(2, [1, 1], eq=[(coeffs, 0)])
    with pytest.raises(DimensionError, match="row width != num_vars"):
        LPInstance(2, [1, 1], geq=[([1, 2], 0), (coeffs, Fraction(1, 2))])


def test_unknown_row_reference_in_a_certificate_is_named():
    lp = LPInstance(1, [0], geq=[([1], 1), ([-1], 0)], nonneg=[False])
    certificate = simplex_solve(lp).certificate
    verify_certificate(lp, certificate)
    for ref in [("geq", 5), ("eq", 0), ("geq", -1), "geq"]:
        with pytest.raises(ValueError, match="unknown row reference") as err:
            verify_certificate(lp, certificate + [(ref, 1)])
        assert repr(ref) in str(err.value)


def test_public_rows_are_built_once_and_only_when_read(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(pbkernel.ising_kernel, "Fraction", counting)
    lp = LPInstance(3, [1, 0, 2], eq=[(np.array([1, 2, 3]), 4)], geq=[([1, -1, 0], 0)])
    assert simplex_solve(lp).status == "optimal"
    solved = len(built)
    assert "eq" not in vars(lp) and "objective" not in vars(lp)
    rows = lp.eq
    assert len(built) == solved + 3 + 2 * 4  # the objective, then both rows
    assert lp.eq is rows and lp.geq == (((1, -1, 0), 0),) and lp.objective == (1, 0, 2)
    assert len(built) == solved + 3 + 2 * 4
