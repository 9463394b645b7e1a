"""Realizability answers read off integer rows, against the references
they replaced (``conftest``).

``_Tableau`` builds its rows with numpy from the cleared LP rows and must
equal the list-built constructor (``RefListTableau``) entry for entry, in
dtype, scale, basis and columns.  ``QuadraticRealization.verify`` runs
one Walsh-Hadamard pass over the spin form's integer numerators and must
agree with the ``spin_to_boolean`` plus zeta check (``ref_zeta_verify``)
and the per-string energy scan (``ref_margin_check``), on int64 and past
2^62 on Python ints.  The work of one solve is bounded by counts, not by
wall time: calls into ``fractions``, and ``Fraction`` objects the module
builds.  ``pbf._accumulate`` must build the tables, in the key order, of
the rule that added every pair into ``table.get(key, 0)``.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    LPInstance,
    Netlist,
    PseudoBoolean,
    compose,
    conjugate_sum,
    expr,
    gadgets,
    ghz_circuit,
    ising_kernel,
    pbf,
    pbf_to_pauli,
    projector_parent,
    quadratic_realizability,
    simplex_solve,
    stabilizer,
)
from pbkernel.gadgets import clamp
from pbkernel.pbf import _accumulate, _hadamard_transform
from conftest import (
    RefListTableau,
    fuzz_lp,
    primitive_rows,
    rational_lp,
    ref_accumulate,
    ref_margin_check,
    ref_zeta_verify,
)
from test_integer_tableau import (
    CROSSING_LP,
    DEGENERATE_LPS,
    NAMED_LPS,
    WIDE_LP,
    family,
    realize_lps,
)
from test_spin_conversion import fractions_calls

FAMILIES = ["pair", "subcube", "parity", "random"]

#: row LCMs near 2^31 make the phase-1 weights L / lcm_i pass the int64
#: bound while every cleared entry fits: the phase-1 row is summed on Python ints
PHASE1_WIDE_LP = LPInstance(
    2, [1, 1],
    eq=[([Fraction(1, p), 1], 1) for p in (2147483629, 2147483587)],
    geq=[([1, Fraction(1, 2147483579)], 0)],
)


def assert_same_tableau(lp):
    got, want = ising_kernel._Tableau(lp), RefListTableau(lp)
    rows = primitive_rows(got)
    assert rows.dtype == want.matrix.dtype
    assert rows.shape == want.matrix.shape
    assert rows.tolist() == want.matrix.tolist()
    assert all(type(a) is int for a in rows.ravel().tolist())
    assert got.scale == want.scale
    assert all(type(a) is int for pair in got.scale for a in pair)
    assert (got.basis, got.sigma, got.init_col) == (want.basis, want.sigma, want.init_col)
    # the column map: (variable, sign) per structural column, then the
    # surplus columns, then the artificial ones from first_art on
    struct = [col[1:] for col in want.cols if col[0] == "var"]
    assert list(zip(got.var.tolist(), got.sign.tolist())) == struct
    arts = [("art", i) for i, j in enumerate(got.init_col) if j >= got.first_art]
    surplus = [("surplus", None)] * (got.first_art - len(struct))
    assert want.cols == [("var", *col) for col in struct] + surplus + arts
    assert got.ncols == want.ncols == got.first_art + len(arts)
    assert want.artificial == set(range(got.first_art, got.ncols))
    assert want.real.tolist() == [j < got.first_art for j in range(got.ncols)]
    return rows.dtype


def fixed_lps():
    fuzz = random.Random(0xC0FFEE)  # the seed of the ``rng`` fixture: TestSimplexFuzz's LPs
    rational = random.Random(20231)
    return (NAMED_LPS + DEGENERATE_LPS + [WIDE_LP, CROSSING_LP, PHASE1_WIDE_LP]
            + [fuzz_lp(fuzz) for _ in range(60)] + [rational_lp(rational) for _ in range(150)])


def test_numpy_tableau_matches_the_list_built_one_on_fixed_lps():
    dtypes = {assert_same_tableau(lp) for lp in fixed_lps()}
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_phase1_row_past_the_int64_bound_runs_on_python_ints():
    lp = PHASE1_WIDE_LP
    assert lp._matrix.dtype == np.int64
    tab = ising_kernel._Tableau(lp)
    rows = primitive_rows(tab)
    assert rows.dtype == object
    assert max(abs(a) for a in rows[-1].tolist()) >= 1 << 63
    assert simplex_solve(lp).status == "optimal"


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("name", FAMILIES)
def test_numpy_tableau_matches_the_list_built_one_on_realize_lps(monkeypatch, name, n):
    _, lps = realize_lps(monkeypatch, family(name, n, random.Random(f"{name}-{n}")), n)
    assert [assert_same_tableau(lp) for lp in lps] == [np.dtype(np.int64)]


def test_lp_matrix_is_the_cleared_rows():
    for lp in fixed_lps():
        matrix = lp._matrix
        rows = [(*coeffs, rhs) for coeffs, rhs in lp.eq + lp.geq]
        assert matrix.shape == (len(lp._lcm), lp.num_vars + 1) == (len(rows), lp.num_vars + 1)
        # each row over the LCM of its own denominators
        assert list(lp._lcm) == [math.lcm(*(c.denominator for c in row)) for row in rows]
        assert matrix.tolist() == [[int(c * lcm) for c in row] for row, lcm in zip(rows, lp._lcm)]
        assert not matrix.flags.writeable
        assert lp._matrix is matrix  # built once
    assert WIDE_LP._matrix.dtype == np.int64
    assert LPInstance(1, [0], geq=[([2**63], 1)])._matrix.dtype == object


# -- the margin check ------------------------------------------------------------


@pytest.fixture(scope="module")
def realizations():
    """(target, answer) for every realize family at n = 3..8."""
    out = []
    for n in range(3, 9):
        for name in FAMILIES:
            target = family(name, n, random.Random(f"{name}-{n}"))
            out.append((target, quadratic_realizability(target, n)))
    return out


def coefficient_denominator(real):
    return math.lcm(*(c.denominator for c in (real.constant, *real.fields, *real.couplings.values())))


def moved(real, position, delta):
    """The realization with coefficient ``position`` (0 = c0, then the h_l,
    then the J_lk in key order) moved by delta."""
    if position == 0:
        return replace(real, constant=real.constant + delta)
    if position <= real.n:
        fields = list(real.fields)
        fields[position - 1] += delta
        return replace(real, fields=tuple(fields))
    couplings = dict(real.couplings)
    key = list(couplings)[position - 1 - real.n]
    couplings[key] += delta
    return replace(real, couplings=couplings)


def scaled(real, factor):
    return replace(real, constant=real.constant * factor,
                   fields=tuple(h * factor for h in real.fields),
                   couplings={k: j * factor for k, j in real.couplings.items()})


def assert_same_verdict(real, target):
    verdict = real.verify(target)
    assert verdict is ref_zeta_verify(real, target) is ref_margin_check(real, target)
    return verdict


def test_verify_matches_the_references_on_every_family(realizations):
    feasible = 0
    for target, real in realizations:
        if not real.feasible:
            assert real.verify(target) is ref_zeta_verify(real, target) is False
            continue
        feasible += 1
        assert assert_same_verdict(real, target) is True
        assert assert_same_verdict(scaled(real, 3), target) is True
    assert feasible >= 3 * 6  # pair, subcube and at least one random set per n


def test_verify_on_moved_and_scaled_coefficients(realizations):
    rng = random.Random(13)
    verdicts = []
    for target, real in realizations:
        if not real.feasible:
            continue
        delta = Fraction(1, 2 * coefficient_denominator(real))
        count = 1 + real.n + len(real.couplings)
        positions = range(count) if real.n <= 4 else rng.sample(range(count), 3)
        for position in positions:
            for sign in (1, -1):
                # every coefficient moves f on S off zero
                assert assert_same_verdict(moved(real, position, sign * delta), target) is False
        # scaling keeps the zeros on S; below 1 it can drop the margin off S below 1
        verdicts += [assert_same_verdict(scaled(real, k), target) for k in (Fraction(1, 2), Fraction(3, 2))]
    assert True in verdicts and False in verdicts


def test_verify_past_2_62_runs_on_python_ints(monkeypatch, realizations):
    dtypes = []
    transform = ising_kernel._hadamard_transform

    def recording(vals, n):
        dtypes.append(vals.dtype)
        transform(vals, n)

    monkeypatch.setattr(ising_kernel, "_hadamard_transform", recording)
    for target, real in realizations:
        if not real.feasible or real.n > 6:
            continue
        big = scaled(real, 2**63 + 1)
        assert assert_same_verdict(big, target) is True
        delta = Fraction(1, 2 * coefficient_denominator(big))
        assert assert_same_verdict(moved(big, 0, delta), target) is False
        # about one half: the margin off S can fall below 1 on Python ints too
        assert_same_verdict(scaled(real, Fraction(2**64 + 1, 2**65)), target)
        assert assert_same_verdict(real, target) is True
    assert dtypes and set(dtypes) == {np.dtype(object), np.dtype(np.int64)}
    assert dtypes[0::4] == [np.dtype(object)] * (len(dtypes) // 4)
    assert dtypes[3::4] == [np.dtype(np.int64)] * (len(dtypes) // 4)


@pytest.mark.parametrize("n", range(7))
def test_hadamard_transform_evaluates_spin_forms(n):
    rng = random.Random(n)
    for scale in (9, 2**70):
        coeffs = [rng.randint(-scale, scale) for _ in range(1 << n)]
        vals = np.array(coeffs, dtype=np.int64 if scale < 2**60 else object)
        _hadamard_transform(vals, n)
        # z_l = 1 - 2 x_l at varmask x: each monomial T carries (-1)^|T & x|
        want = [sum(c * (-1) ** (t & x).bit_count() for t, c in enumerate(coeffs)) for x in range(1 << n)]
        assert vals.tolist() == want


# -- work per solve --------------------------------------------------------------


def aligned_pair_lp(monkeypatch, n):
    _, (lp,) = realize_lps(monkeypatch, {(0,) * n, (1,) * n}, n)
    m = 1 + n + n * (n - 1) // 2
    assert len(lp._lcm) == m and lp.num_vars == 1 << n
    return lp, m


def test_simplex_solve_fractions_calls_do_not_grow_with_2n(monkeypatch):
    lp, m = aligned_pair_lp(monkeypatch, 10)
    # a few calls per row; a Fraction sum over all 2^n columns alone would make about 2 * 2^n
    assert 0 < fractions_calls(simplex_solve, lp) <= 16 * m


def test_simplex_solve_builds_one_fraction_per_dual(monkeypatch):
    lp, m = aligned_pair_lp(monkeypatch, 10)
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(ising_kernel, "Fraction", counting)
    result = simplex_solve(lp)
    assert result.status == "optimal" and not any(result.x)
    # one per dual; the shared zero of x, the value and the dual bound (the
    # phase-1 optimum is read off its sign); every right-hand side is 0, so x builds none
    assert len(built) == m + 3


# -- the one term-table rule -------------------------------------------------------


def test_accumulate_matches_the_add_into_zero_rule():
    rng = random.Random(5)
    for _ in range(300):
        start = {rng.randint(0, 5): Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4))
                 for _ in range(rng.randint(0, 4))}
        pairs = [(rng.randint(0, 7), rng.choice([0, 1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]))
                 for _ in range(rng.randint(0, 12))]
        got, want = _accumulate(dict(start), pairs), ref_accumulate(dict(start), pairs)
        assert got == want and list(got) == list(want)
        assert all(type(got[k]) is type(want[k]) for k in got)
        assert 0 not in got.values()


def test_accumulate_keeps_a_new_coefficient_as_given():
    c = Fraction(3, 7)
    table = _accumulate({}, [(1, c), (2, Fraction(0)), (3, 0)])
    assert table == {1: c} and table[1] is c
    assert _accumulate(table, [(1, -c)]) == {}


def test_no_caller_passes_a_bool(monkeypatch):
    seen = []

    def checked(table, pairs):
        pairs = list(pairs)
        seen.extend(type(c) for _, c in pairs)
        return _accumulate(table, pairs)

    for module in (pbf, gadgets, stabilizer, ising_kernel):  # expression and PauliSum sums in pbf
        monkeypatch.setattr(module, "_accumulate", checked)
    f = expr.parse("3*x1*x2 - 1/2*x3 + ~x1*(x2 + x3) + 2")
    g = (f * f + f).embed(5, [4, 0, 2])
    clamp(g, 4, 1)
    compose(Netlist.from_dict({"gates": [
        {"type": "or", "inputs": ["x1", "x2"], "output": "w"},
        {"type": "and", "inputs": ["w", "y2"], "output": "p"},
    ]}))
    circuit = ghz_circuit(3)
    parent = projector_parent(circuit)
    conjugate_sum(circuit, parent + pbf_to_pauli(PseudoBoolean.from_terms(3, {(0, 1): 1, (2,): -2})))
    quadratic_realizability({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}, 3)  # the ray path
    assert seen and bool not in seen
