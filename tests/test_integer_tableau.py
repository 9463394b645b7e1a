"""The primitive-row integer simplex tableau against two references.

The Fraction tableau and the Bareiss integer tableau run Bland's rule on
the same exact values, so all three must pivot on the same columns in the
same order and return equal results: status, point, value, duals,
certificate and ray.  After every pivot each primitive row must have gcd
1, a positive basic entry, and equal the Bareiss row divided by that
row's gcd.  The references are ``RefTableau`` / ``ref_simplex_solve`` and
``RefBareissTableau`` / ``ref_bareiss_simplex_solve`` in ``conftest``.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import LPInstance, ising_kernel, quadratic_realizability, simplex_solve
from pbkernel.cli import main
from conftest import (
    RefBareissTableau,
    RefTableau,
    assignments,
    fuzz_lp,
    primitive_rows,
    random_target,
    rational_lp,
    ref_bareiss_simplex_solve,
    ref_simplex_solve,
)

#: the fixed LPs of tests/test_ising_kernel.py::TestSimplex
NAMED_LPS = [
    LPInstance(1, [0], geq=[([1], 1), ([-1], 0)], nonneg=[False]),
    LPInstance(2, [0, 0], eq=[([1, 1], 1)]),
    LPInstance(2, [1, 1], geq=[([1, 1], 2)]),
    LPInstance(1, [1], sense="max"),
    LPInstance(1, [1], geq=[([1], -3)], nonneg=[False]),
    LPInstance(2, [0, 0], eq=[([1, 1], 1), ([2, 2], 2)]),
    LPInstance(  # Beale's cycling example
        4,
        [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
        geq=[
            ([Fraction(-1, 4), 60, Fraction(1, 25), -9], 0),
            ([Fraction(-1, 2), 90, Fraction(1, 50), -3], 0),
            ([0, 0, -1, 0], -1),
        ],
    ),
]

#: no columns, no rows, all-zero rows: empty entering scans and a phase-1
#: reduced-cost row that starts at zero
DEGENERATE_LPS = [
    LPInstance(0, []),
    LPInstance(0, [], eq=[([], 0)], geq=[([], -1)]),
    LPInstance(0, [], eq=[([], 1)]),
    LPInstance(2, [0, 0], eq=[([0, 0], 0)]),
    LPInstance(2, [2, 4], geq=[([0, 0], 0), ([1, 1], 1)], sense="max"),
]

#: cleared rows past 2^31 from the start: Python ints throughout
WIDE_LP = LPInstance(2, [1, 1], geq=[([2**40, 1], 3), ([1, 2**35], 5)])
#: int64 at the start; the first pivot writes 65521^2 - 1 > 2^31
CROSSING_LP = LPInstance(2, [1, 1], geq=[([65521, 1], 1), ([1, 65521], 1)])

README_EXAMPLES = [({"0000", "1111"}, 4), ({"000", "011", "101", "110"}, 3)]


def traced(monkeypatch, solve, cls, lp, snapshot=lambda tab: None):
    """(result, (basis, snapshot) after each pivot, signs of the pivot elements)."""
    steps, negative = [], []
    pivot = cls._pivot

    def recording(self, r, j, *rest):
        rows = primitive_rows(self) if cls is ising_kernel._Tableau else self.matrix
        negative.append(rows[r][j] < 0)
        pivot(self, r, j, *rest)
        steps.append((tuple(self.basis), snapshot(self)))

    with monkeypatch.context() as patch:
        patch.setattr(cls, "_pivot", recording)
        return solve(lp), steps, negative


def primitive(row):
    g = math.gcd(*row) or 1
    return [a // g for a in row]


def assert_same_solve(monkeypatch, lp):
    """Equal results and pivot sequences on all three tableaus, and the
    primitive-row invariants after every pivot; returns (status, any
    negative pivot, the tableau's dtype after each pivot)."""
    got, steps, negative = traced(
        monkeypatch, simplex_solve, ising_kernel._Tableau, lp, primitive_rows
    )
    want, ref_steps, _ = traced(monkeypatch, ref_simplex_solve, RefTableau, lp)
    bareiss, bareiss_steps, _ = traced(
        monkeypatch, ref_bareiss_simplex_solve, RefBareissTableau, lp,
        lambda tab: [list(row) for row in tab.matrix] + [list(tab.z)],
    )
    assert got == want == bareiss
    assert [b for b, _ in steps] == [b for b, _ in ref_steps] == [b for b, _ in bareiss_steps]
    for (basis, matrix), (_, rows) in zip(steps, bareiss_steps):
        for i, b in enumerate(basis):
            row = matrix[i].tolist()
            assert math.gcd(*row) == 1
            assert row[b] > 0
            assert row == primitive(rows[i])
        # the current reduced-cost row is last, a positive multiple of the Bareiss one
        assert matrix[-1].tolist() == primitive(rows[-1])
    return got.status, any(negative), [matrix.dtype for _, matrix in steps]


@pytest.mark.parametrize("index", range(len(NAMED_LPS)))
def test_named_lps(monkeypatch, index):
    assert_same_solve(monkeypatch, NAMED_LPS[index])


@pytest.mark.parametrize("index", range(len(DEGENERATE_LPS)))
def test_degenerate_lps(monkeypatch, index):
    assert_same_solve(monkeypatch, DEGENERATE_LPS[index])


def test_simplex_fuzz_set(monkeypatch, rng):
    # the same generator and seed as TestSimplexFuzz, so the same 60 LPs
    statuses = {assert_same_solve(monkeypatch, fuzz_lp(rng))[0] for _ in range(60)}
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_rational_lps(monkeypatch):
    rng = random.Random(20231)
    seen = [assert_same_solve(monkeypatch, rational_lp(rng)) for _ in range(300)]
    assert {status for status, _, _ in seen} == {"optimal", "infeasible", "unbounded"}
    assert any(negative for _, negative, _ in seen)


def test_rational_rows_start_at_their_own_row_lcm():
    lp = LPInstance(
        2, [1, 1],
        eq=[([Fraction(1, 2), Fraction(1, 3)], Fraction(1, 4))],
        geq=[([Fraction(1, 5), 1], Fraction(-2, 5)), ([1, -1], 0)],
    )
    tab = ising_kernel._Tableau(lp)
    rows = primitive_rows(tab)
    assert [rows[i, b] for i, b in enumerate(tab.basis)] == [12, 5, 1]
    bareiss = RefBareissTableau(lp)
    assert bareiss.den == 12 * 5 * 1
    for i, row in enumerate(bareiss.matrix):
        assert rows[i].tolist() == primitive(row)


def test_rows_past_2_31_run_on_python_ints(monkeypatch):
    assert primitive_rows(ising_kernel._Tableau(WIDE_LP)).dtype == object
    status, _, dtypes = assert_same_solve(monkeypatch, WIDE_LP)
    assert status == "optimal"
    assert dtypes and all(dtype == object for dtype in dtypes)


def test_rows_passing_2_31_mid_solve_switch_to_python_ints(monkeypatch):
    assert primitive_rows(ising_kernel._Tableau(CROSSING_LP)).dtype == np.int64
    status, _, dtypes = assert_same_solve(monkeypatch, CROSSING_LP)
    assert status == "optimal"
    assert len(dtypes) >= 2 and all(dtype == object for dtype in dtypes)


def test_stored_row_operations_stay_int64_where_the_rows_pass_2_31(monkeypatch):
    # the primitive rows of CROSSING_LP go to Python ints after its first
    # pivot; the row operations K and the initial tableau stay int64
    tab = ising_kernel._Tableau(CROSSING_LP)
    assert (tab.K.dtype, tab.T0T.dtype) == (np.int64, np.int64)
    _, steps, _ = traced(
        monkeypatch, simplex_solve, ising_kernel._Tableau, CROSSING_LP,
        lambda tab: (tab.K.dtype, tab.T0T.dtype, primitive_rows(tab).dtype),
    )
    assert len(steps) >= 2
    assert all(dtypes == (np.int64, np.int64, object) for _, dtypes in steps)


def test_realizability_lp_pivots(monkeypatch):
    # the margin-system dual is solved with the same pivots as well
    for target, n in [
        ({(0, 1, 1, 0), (1, 0, 0, 1)}, 4),
        ({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}, 3),
        ({(1, 0, 0, 0, 0, 0, 0), (0, 1, 1, 1, 1, 1, 1)}, 7),  # the realize workload's hardest pair shape
    ]:
        for lp in realize_lps(monkeypatch, target, n)[1]:
            assert_same_solve(monkeypatch, lp)


def realize_with_reference(monkeypatch, target, n):
    with monkeypatch.context() as patch:
        patch.setattr(ising_kernel, "simplex_solve", ref_simplex_solve)
        return quadratic_realizability(target, n)


def family(name, n, rng):
    if name == "pair":
        m = tuple(rng.randint(0, 1) for _ in range(n))
        return {m, tuple(1 - b for b in m)}
    if name == "subcube":
        free = rng.sample(range(n), 2)
        base = [rng.randint(0, 1) for _ in range(n)]
        cube = set()
        for a in range(4):
            base[free[0]], base[free[1]] = a & 1, a >> 1
            cube.add(tuple(base))
        return cube
    if name == "parity":
        want = rng.randint(0, 1)
        return {x for x in assignments(n) if sum(x) % 2 == want}
    return set(rng.sample(assignments(n), rng.randint(2, 4)))


def test_face_enumeration_sets(monkeypatch, rng):
    # the same generator and seed as the face-enumeration cross-check of
    # TestRealizability, so the same 12 target sets
    for _ in range(12):
        target, n = random_target(rng)
        assert quadratic_realizability(target, n) == realize_with_reference(monkeypatch, target, n)


def realize_lps(monkeypatch, target, n):
    """(answer, the LPs it solved)."""
    lps = []
    with monkeypatch.context() as patch:
        patch.setattr(ising_kernel, "simplex_solve", lambda lp: lps.append(lp) or simplex_solve(lp))
        return quadratic_realizability(target, n), lps


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("name", ["pair", "subcube", "parity", "random"])
def test_realizability_families(monkeypatch, name, n):
    target = family(name, n, random.Random(f"{name}-{n}"))
    got, lps = realize_lps(monkeypatch, target, n)
    want = realize_with_reference(monkeypatch, target, n)
    assert got == want
    assert got.to_dict() == want.to_dict()
    for lp in lps:
        assert_same_solve(monkeypatch, lp)


def int64_throughout(monkeypatch, target, n):
    """True when the realizability tableau is int64 at every pivot."""
    _, lps = realize_lps(monkeypatch, target, n)
    (lp,) = lps
    _, steps, _ = traced(
        monkeypatch, simplex_solve, ising_kernel._Tableau, lp, lambda tab: primitive_rows(tab).dtype
    )
    return bool(steps) and all(dtype == np.int64 for _, dtype in steps)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("name", ["pair", "subcube", "parity", "random"])
def test_realizability_families_stay_int64(monkeypatch, name, n):
    assert int64_throughout(monkeypatch, family(name, n, random.Random(f"{name}-{n}")), n)


def test_aligned_pair_at_n10_stays_int64(monkeypatch):
    assert int64_throughout(monkeypatch, {(0,) * 10, (1,) * 10}, 10)


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_examples_give_the_same_json_bytes(monkeypatch, capsys, tmp_path, index):
    strings, n = README_EXAMPLES[index]
    path = tmp_path / "strings.txt"
    path.write_text("".join(s + "\n" for s in sorted(strings)))
    argv = ["ising", "realize", str(path), "-n", str(n), "--json"]
    assert main(argv) == 0
    got = capsys.readouterr().out
    with monkeypatch.context() as patch:
        patch.setattr(ising_kernel, "simplex_solve", ref_simplex_solve)
        assert main(argv) == 0
    want = capsys.readouterr().out
    assert got == want
    assert json.loads(got)["feasible"] is (n == 4)
