"""The fraction-free integer simplex tableau against the Fraction reference.

Both tableaus run Bland's rule on the same exact values, so they must
pivot on the same columns in the same order and return equal results:
status, point, value, duals, certificate and ray.  The reference is
``RefTableau`` / ``ref_simplex_solve`` in ``conftest``.
"""

import json
import random
from fractions import Fraction

import pytest

from pbkernel import LPInstance, ising_kernel, quadratic_realizability, simplex_solve
from pbkernel.cli import main
from conftest import (
    RefTableau,
    assignments,
    fuzz_lp,
    random_target,
    rational_lp,
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

README_EXAMPLES = [({"0000", "1111"}, 4), ({"000", "011", "101", "110"}, 3)]


def traced(monkeypatch, solve, cls, lp):
    """(result, bases after each pivot, signs of the pivot elements)."""
    bases, negative = [], []
    pivot = cls._pivot

    def recording(self, r, j, *rest):
        negative.append(self.matrix[r][j] < 0)
        pivot(self, r, j, *rest)
        bases.append(tuple(self.basis))

    with monkeypatch.context() as patch:
        patch.setattr(cls, "_pivot", recording)
        return solve(lp), bases, negative


def assert_same_solve(monkeypatch, lp):
    """Equal results and pivot sequences; returns (status, any negative pivot)."""
    got, bases, negative = traced(monkeypatch, simplex_solve, ising_kernel._Tableau, lp)
    want, ref_bases, _ = traced(monkeypatch, ref_simplex_solve, RefTableau, lp)
    assert got == want
    assert bases == ref_bases
    return got.status, any(negative)


@pytest.mark.parametrize("index", range(len(NAMED_LPS)))
def test_named_lps(monkeypatch, index):
    assert_same_solve(monkeypatch, NAMED_LPS[index])


def test_simplex_fuzz_set(monkeypatch, rng):
    # the same generator and seed as TestSimplexFuzz, so the same 60 LPs
    statuses = {assert_same_solve(monkeypatch, fuzz_lp(rng))[0] for _ in range(60)}
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_rational_lps(monkeypatch):
    rng = random.Random(20231)
    seen = [assert_same_solve(monkeypatch, rational_lp(rng)) for _ in range(300)]
    assert {status for status, _ in seen} == {"optimal", "infeasible", "unbounded"}
    assert any(negative for _, negative in seen)


def test_rational_rows_start_at_the_product_of_row_lcms():
    lp = LPInstance(
        2, [1, 1],
        eq=[([Fraction(1, 2), Fraction(1, 3)], Fraction(1, 4))],
        geq=[([Fraction(1, 5), 1], Fraction(-2, 5)), ([1, -1], 0)],
    )
    assert ising_kernel._Tableau(lp).den == 12 * 5 * 1


def test_realizability_lp_pivots(monkeypatch):
    # the margin-system dual is solved with the same pivots as well
    lps = []
    with monkeypatch.context() as patch:
        patch.setattr(ising_kernel, "simplex_solve", lambda lp: lps.append(lp) or simplex_solve(lp))
        quadratic_realizability({(0, 1, 1, 0), (1, 0, 0, 1)}, 4)
        quadratic_realizability({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}, 3)
    for lp in lps:
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


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("name", ["pair", "subcube", "parity", "random"])
def test_realizability_families(monkeypatch, name, n):
    target = family(name, n, random.Random(f"{name}-{n}"))
    got = quadratic_realizability(target, n)
    want = realize_with_reference(monkeypatch, target, n)
    assert got == want
    assert got.to_dict() == want.to_dict()


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
