"""The fixed cost of one realizability decision, against its references.

``quadratic_realizability`` reads its target once (``_cube``'s index of bit
strings and bit tuples), gathers its LP rows from the per-n feature matrix,
builds its tableau from one per-variable source and its certificate from the
ray's integer numerators.  Each part must give what the code it replaced gave
(``conftest.ref_*``): the same answer, LP rows and tableau, on pair, subcube,
parity and random targets at n = 1..7 in the string and the tuple form.
"""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import LPInstance, ising_kernel, quadratic_realizability
from pbkernel.errors import DimensionError
from conftest import (
    ref_feature_rows,
    ref_quadratic_realizability,
    ref_read_target,
    ref_realizability_lp,
    ref_tableau_fields,
)
from test_integer_answers import fixed_lps

FAMILIES = ["pair", "subcube", "parity", "random"]


def bits(code, n):
    return tuple((code >> (n - 1 - i)) & 1 for i in range(n))


def target(name, n, rng):
    """A target set of bit tuples of the family ``name``."""
    if name == "pair":  # a point and its complement
        m = rng.getrandbits(n)
        return {bits(m, n), bits(m ^ ((1 << n) - 1), n)}
    if name == "subcube":  # two free bits (one at n = 1), the rest pinned
        free = rng.sample(range(n), min(2, n))
        point, cube = list(bits(rng.getrandbits(n), n)), set()
        for a in range(1 << len(free)):
            for k, f in enumerate(free):
                point[f] = a >> k & 1
            cube.add(tuple(point))
        return cube
    if name == "parity":
        want = rng.getrandbits(1)
        return {bits(c, n) for c in range(1 << n) if bin(c).count("1") % 2 == want}
    return {bits(c, n) for c in rng.sample(range(1 << n), rng.randint(1, min(4, (1 << n) - 1)))}


def cases():
    rng = random.Random(611)
    for n in range(1, 8):
        for name in FAMILIES:
            points = sorted(target(name, n, rng))
            yield pytest.param(n, points, id=f"n{n}-{name}")


def forms(points):
    """The target as bit strings and as bit tuples, in a shuffled order."""
    order = random.Random(len(points)).sample(points, len(points))
    return ["".join(map(str, p)) for p in order], order


def recorded_lp(monkeypatch, S, n):
    """(the answer, the LP the decision solved)."""
    lps = []
    solve = ising_kernel.simplex_solve

    def recording(lp):
        lps.append(lp)
        return solve(lp)

    monkeypatch.setattr(ising_kernel, "simplex_solve", recording)
    real = quadratic_realizability(S, n)
    monkeypatch.undo()
    return real, lps[0]


def assert_same_tableau(lp):
    got, want = ising_kernel._Tableau(lp), ref_tableau_fields(lp)
    for name in ("T0T", "K"):
        assert getattr(got, name).dtype == want[name].dtype
        assert getattr(got, name).tolist() == want[name].tolist()
    assert got.T0T.flags.c_contiguous
    for name in ("var", "sign"):
        assert getattr(got, name).tolist() == want[name].tolist()
    for name in ("basis", "init_col", "sigma", "scale", "first_art", "ncols", "growth"):
        assert getattr(got, name) == want[name], name


@pytest.mark.parametrize("n, points", cases())
def test_decision_matches_the_reference_build(monkeypatch, n, points):
    for S in forms(points):
        real, lp = recorded_lp(monkeypatch, S, n)
        want = ref_quadratic_realizability(S, n)
        assert real == want and repr(real) == repr(want)
        assert real.to_dict() == want.to_dict()
        target, idx = ref_read_target(S, n)
        ref = ref_realizability_lp(idx, len(target), n)
        assert lp._matrix.dtype == ref._matrix.dtype and lp._matrix.tolist() == ref._matrix.tolist()
        assert (lp._lcm, lp._cost, lp.nonneg, lp._neq) == (ref._lcm, ref._cost, ref.nonneg, ref._neq)
        assert lp == ref and not lp._matrix.flags.writeable
        assert_same_tableau(lp)


def test_tableau_matches_the_reference_constructor_on_fixed_lps():
    # geq rows, negative right-hand sides, free variables, object rows, both senses
    for lp in fixed_lps():
        assert_same_tableau(lp)


@pytest.mark.parametrize("item, shown", [
    ((1, 0, 1.5), "(1, 0, 1.5)"),  # was truncated to 101
    ((1, 0, 0.7), "(1, 0, 0.7)"),  # was read as 100
    ("1 0", "'1 0'"),  # was int(' '): invalid literal
    ("١٠١", "'١٠١'"),  # Arabic-Indic digits, were read as 101
    ("10", "'10'"),
    ((1, 0, 1, 0), "(1, 0, 1, 0)"),
    ((1, 0, 2), "(1, 0, 2)"),
    ((1, 0, None), "(1, 0, None)"),
    ((1, 0, [1]), "(1, 0, [1])"),
    (5, "5"),
])
def test_an_entry_that_is_not_a_bit_is_refused(item, shown):
    with pytest.raises(ValueError, match=f"^bad bit string {re.escape(shown)} for n = 3$"):
        quadratic_realizability(["000", item], 3)


def test_a_value_equal_to_a_bit_is_that_bit():
    want = quadratic_realizability(["000", "101"], 3)
    for item in [(1, 0, 1), (True, False, True), (1.0, 0.0, 1.0), np.array([1, 0, 1]), ("1", "0", "1"), [1, 0, 1]]:
        assert quadratic_realizability([(0, 0, 0), item], 3) == want


def test_the_cube_is_read_only_and_built_once_per_n():
    points, index, features = ising_kernel._cube(4)
    assert ising_kernel._cube(4)[2] is features and not features.flags.writeable
    assert points == [bits(i, 4) for i in range(16)]
    assert all(index[p] == index["".join(map(str, p))] == i for i, p in enumerate(points))
    assert features.T.tolist() == ref_feature_rows(np.arange(16), 4).tolist()


def test_integer_rows_are_read_at_once(monkeypatch):
    calls = []
    row = LPInstance._row
    monkeypatch.setattr(LPInstance, "_row", lambda self, *r: calls.append(r) or row(self, *r))
    lp = LPInstance(2, [1, 1], eq=[(np.array([1, 2]), 3), ([4, 5], np.int64(6)), ([True, 2], 1)])
    assert lp._matrix.tolist() == [[1, 2, 3], [4, 5, 6], [1, 2, 1]] and lp._lcm == (1, 1, 1) and not calls
    for rows, want in [
        ([(np.array([1.0, 2.0]), 3)], [[1, 2, 3]]),  # floats go through the coercion
        ([([1, 2], 0.5)], [[2, 4, 1]]),
        ([([2**63, -1], 0)], [[2**63, -1, 0]]),  # past int64
        ([(np.array([2**64 - 1, 1], np.uint64), 0)], [[2**64 - 1, 1, 0]]),
        ([([True, False], 0)], [[1, 0, 0]]),
        ([([1, 2], 0), (np.array([3, 4]), Fraction(1, 2))], [[1, 2, 0], [6, 8, 1]]),
    ]:
        calls.clear()
        assert LPInstance(2, [1, 1], eq=rows)._matrix.tolist() == want and len(calls) == len(rows)
    for rows in [[([1, 2, 3], 0)], [([1, 2], 0), ([1], 0)], [(5, [1, 2]), (6, [3, 4])], [(np.ones((1, 2), int), 0)]]:
        with pytest.raises((DimensionError, TypeError)):  # the wrong width, ragged or not a row
            LPInstance(2, [1, 1], eq=rows)
