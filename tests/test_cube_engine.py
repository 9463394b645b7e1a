"""The exact cube engine against the per-point Fraction reference scans.

Every cube oracle (kernel, non-negativity, minimization, symmetry
detection, both disjoint-form directions and the realizability margin
check) must give the same answer as the reference in ``conftest``,
witnesses included, on integer and rational coefficients and on both
sides of the int64 bound of the engine.  At n = 9..12, where the low
passes run as strided columns, the zeta, Moebius and Walsh-Hadamard
transforms must equal their per-point definitions on int64 and on Python
ints.  The table reader behind
``_numerators`` and ``_scaled`` must read what the per-entry reader it
replaced reads, on tables of shared objects, of own objects and of mixed
entry types, and a value table must hold, and build, one object per
distinct value.  Minimization reads no table back, and every ``cap``
argument, and every count a constructor compares, is read as a count.
"""

import random
import reprlib
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    EnumerationCapError,
    OneBodyForm,
    PseudoBoolean,
    SupportSet,
    WeightProfile,
    detect_symmetric,
    embed_diagonal,
    embed_state,
    minimize_bruteforce,
    one_body_kernel,
    profile_to_pbf,
    quadratic_realizability,
    support_parent,
)
from pbkernel import pbf, stabilizer, symmetric
from pbkernel.pbf import _numerators, _scaled
from conftest import (
    assignments,
    random_pbf,
    ref_energy,
    ref_from_disjoint_form,
    ref_kernel,
    ref_margin_check,
    ref_minimize,
    ref_nonnegative,
    ref_numerators,
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


#: ties at either dtype of the read-back table, and n = 0
TIES = [
    PseudoBoolean.zero(0),
    PseudoBoolean.zero(4),
    PseudoBoolean.from_terms(3, {(0,): 1, (1,): 1, (0, 1): -2}),  # (x1 - x2)^2
    PseudoBoolean.from_terms(3, {(0,): BIG, (1,): BIG}),
    PseudoBoolean.from_terms(3, {(0,): -BIG, (1,): -BIG, (2,): Fraction(1, 3)}),
]


def test_tie_inputs_straddle_the_int64_bound():
    dtypes = [_scaled(f.to_disjoint_form())[0].dtype for f in TIES]
    assert dtypes == [np.int64] * 3 + [object] * 2
    assert [len(ref_minimize(f)[1]) for f in TIES] == [1, 16, 4, 2, 1]


def test_one_int64_rule_at_2_63():
    assert pbf._int_dtype(0) is np.int64
    assert pbf._int_dtype((1 << 63) - 1) is np.int64
    assert pbf._int_dtype(1 << 63) is object
    top = (1 << 63) - 1
    assert np.array([top, -top], dtype=pbf._int_dtype(top)).tolist() == [top, -top]
    assert np.array([top + 1], dtype=pbf._int_dtype(top + 1)).tolist() == [top + 1]


@pytest.mark.parametrize("c, dtype", [((1 << 61) - 1, np.int64), (1 << 62, object)])
def test_opposed_pair_on_both_sides_of_the_rule(c, dtype):
    # c*x1 - c*x2: the coefficient bound 2 * sum |c| is 2^63 - 4, then 2^64
    f = PseudoBoolean.from_terms(2, {(0,): c, (1,): -c})
    assert _scaled(f.masked_terms().values())[0].dtype == f._cube_values(2, "kernel")[0].dtype == dtype
    assert f.kernel() == ref_kernel(f) == {(0, 0), (1, 1)}
    assert f.is_nonnegative() == (False, (0, 1)) == ref_nonnegative(f)


def parity(p):
    """|p| mod 2 of each entry of an array of masks below 2^16."""
    for shift in (8, 4, 2, 1):
        p = p ^ (p >> shift)
    return p & 1


#: the weight of input t in the output at point x, both varmasks, per transform
WEIGHTS = {
    "zeta": lambda x, t: (t & ~x) == 0,
    "moebius": lambda x, t: ((t & ~x) == 0) * (1 - 2 * parity(x ^ t)),
    "hadamard": lambda x, t: 1 - 2 * parity(x & t),
}

TRANSFORMS = {
    "zeta": lambda vals, n: pbf._subset_transform(vals, n, 1),
    "moebius": lambda vals, n: pbf._subset_transform(vals, n, -1),
    "hadamard": pbf._hadamard_transform,
}


def by_points(coeffs, n, weight):
    """sum_t weight(x, t) * coeffs[t] at every point x, exactly: each input
    splits as hi * 2^40 + lo, whose int64 sums over 2^12 inputs cannot wrap."""
    hi, lo = (np.array(part, dtype=np.int64) for part in zip(*(divmod(c, 1 << 40) for c in coeffs)))
    inputs = np.arange(1 << n)
    out = []
    for start in range(0, 1 << n, 256):
        w = weight(inputs[start:start + 256, None], inputs).astype(np.int64)
        out += [(h << 40) + l for h, l in zip((w @ hi).tolist(), (w @ lo).tolist())]
    return out


def test_low_passes_split_above_2_8_entries():
    # passes 0, 1 and 2 run as 1 + 2 + 4 column views from n = 9 on
    assert [len(list(pbf._passes(np.zeros(1 << n), n))) for n in (0, 3, 8, 9, 12)] == [0, 3, 8, 13, 16]


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("n", range(9, 13))
def test_split_passes_against_the_per_point_definition(transform, n):
    rng = random.Random(n)
    for scale, dtype in ((9, np.int64), (1 << 70, object)):
        coeffs = [rng.randint(-scale, scale) for _ in range(1 << n)]
        vals = np.array(coeffs, dtype=dtype)
        TRANSFORMS[transform](vals, n)
        assert vals.dtype == dtype
        assert vals.tolist() == by_points(coeffs, n, WEIGHTS[transform])


def wide_polynomials(c):
    """Arity-10 forms with coefficients +-c, whose cube passes split."""
    rng = random.Random(c)
    n = 10
    out = [
        PseudoBoolean.from_terms(n, {(0,): c, (9,): -c}),
        PseudoBoolean.from_terms(n, {(0,): c, (9,): -c, (3, 5): 1}),
        PseudoBoolean.from_terms(n, {(1,): c, (2,): c, (1, 2): -2 * c}),  # c (x2 - x3)^2
    ]
    for _ in range(3):
        terms = {}
        for _ in range(rng.randint(2, 6)):
            terms[tuple(sorted(rng.sample(range(n), rng.randint(0, 4))))] = rng.choice((c, -c, 1, -1))
        out.append(PseudoBoolean.from_terms(n, terms))
    return out


WIDE = [f for c in ((1 << 61) - 1, BIG) for f in wide_polynomials(c)]


def test_wide_inputs_straddle_the_int64_bound():
    dtypes = [f._cube_values(f.n, "cube")[0].dtype for f in WIDE]
    assert dtypes[:2] == [np.int64, np.int64]
    assert dtypes[len(WIDE) // 2:] == [object] * (len(WIDE) // 2)


@pytest.mark.parametrize("f", WIDE)
def test_split_passes_against_the_reference_oracles(f):
    assert f.kernel() == ref_kernel(f)
    assert tuple(f.is_nonnegative()) == ref_nonnegative(f)
    table = ref_to_disjoint_form(f)
    assert PseudoBoolean.from_disjoint_form(table) == ref_from_disjoint_form(table) == f


@pytest.mark.parametrize("f", CASES + TIES)
def test_minimum_and_argmin(f):
    res = minimize_bruteforce(f)
    best, argmin = ref_minimize(f)
    assert type(res.value) is Fraction
    assert (res.value, res.argmin) == (best, argmin)


@pytest.mark.parametrize("scale", [1, BIG], ids=["int64", "pyint"])
def test_minimize_reads_no_table_back(monkeypatch, scale):
    def refuse(values):
        raise AssertionError("a table was read back")

    monkeypatch.setattr(pbf, "_read_table", refuse)
    for f in (g * scale for g in polynomials(9)):
        res = minimize_bruteforce(f)
        assert (res.value, res.argmin) == ref_minimize(f)


@pytest.mark.parametrize("f", CASES)
def test_disjoint_form_shares_one_object_per_value(f):
    table = f.to_disjoint_form()
    assert len({id(v) for v in table}) == len(set(table))


def changed_and_shared_tables():
    """Value tables of 2^n entries for the table reader: ``to_disjoint_form``
    tables a caller changed (one entry an equal but new Fraction, one another
    value, one a numpy integer), a table of shared objects whose references
    sort against the order in which the entries first hold them, and a
    2^16-entry table of shared objects of mixed types."""
    rng = random.Random(40)
    out = []
    for n in (2, 5, 9, 12):
        table = random_rational_pbf(rng, n).to_disjoint_form()
        i, j, k = rng.sample(range(1 << n), 3)
        old = table[i]
        table[i] = Fraction(old.numerator, old.denominator)
        assert table[i] == old and table[i] is not old
        table[j] += Fraction(1, 7)
        table[k] = np.int64(-3)
        out.append(table)
    pool = sorted((Fraction(v, 6) for v in range(-20, 20)), key=id, reverse=True)
    out.append(pool + [rng.choice(pool) for _ in range(1024 - len(pool))])
    pool = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(37)] + [np.int64(3), 7, "1/3", 0.5]
    out.append([rng.choice(pool) for _ in range(1 << 16)])
    return out


def numerator_tables():
    """Value lists for the table reader: shared objects, equal but distinct
    objects, mixed entry types, both sides of the int64 bound and
    :func:`changed_and_shared_tables`."""
    rng = random.Random(9)
    pool = [Fraction(1, 3), Fraction(-2, 5), 7, "3/4"]
    out = [
        [rng.choice(pool) for _ in range(64)],
        [Fraction(rng.randint(-3, 3), 4) for _ in range(64)],
        [3 * BIG + i % 2 for i in range(16)],
        [0, Fraction(1, 2), "3/4", 1.25, Decimal("-0.5"), True, Fraction(1, 2), "3/4", -7],
        [Decimal("0.1"), 0.1, "0.1", Fraction(1, 10)],
        [Fraction(1 << 61, 3), "0", f"-{1 << 60}/5", -1, Fraction(1 << 61, 3)],
        [Fraction(1 << 58, 3), "0", f"-{1 << 57}/5", -1, Fraction(1 << 58, 3)],
    ]
    out += [f.to_disjoint_form() for f in boundary_polynomials()]
    return out + changed_and_shared_tables()


@pytest.mark.parametrize("table", numerator_tables())
def test_numerators_against_the_per_entry_reader(table):
    want = ref_numerators(table)
    assert _numerators(table) == want
    assert _numerators(v for v in table) == want
    assert _numerators(Fraction(v) for v in table) == want  # fresh objects, none kept by the caller
    vals, denom = _scaled(table)
    assert (vals.tolist(), denom) == want
    assert vals.dtype == (np.int64 if sum(map(abs, want[0])) < BIG else object)


#: two bad strings, the one with the higher reference first
EARLY, LATE = sorted(("".join(["tw", "o"]), "".join(["thr", "ee"])), key=id, reverse=True)


@pytest.mark.parametrize("table", [
    [0, "two", 1, "two", None],
    [Fraction(1, 2), None, "1/0x", None],
    ["1/0x", "two", "1/0x"],
    [1, 2, [3], 4, [3]],
    [Fraction(1, 2), EARLY, 3, EARLY] * 8,  # one bad object shared by many entries
    [Fraction(1, 2), 3, EARLY, LATE] * 8,  # read in reference order, LATE would raise first
])
def test_numerators_raise_the_first_bad_entry(table):
    with pytest.raises(Exception) as want:
        ref_numerators(table)
    with pytest.raises(type(want.value)) as got:
        _numerators(table)
    assert str(got.value) == str(want.value)


def shared_parity_table(n, big):
    """(-1)^|x| * big at every state, as two shared objects: the top Moebius
    coefficient is (-2)^n * big, though the two objects sum to 2 * big."""
    plus, minus = Fraction(big), Fraction(-big)
    return [minus if idx.bit_count() & 1 else plus for idx in range(1 << n)]


def test_shared_objects_count_once_per_entry_in_the_int64_bound():
    table = shared_parity_table(4, 1 << 60)
    vals, denom = _scaled(table)
    assert vals.dtype == object and denom == 1  # 16 * 2^60 = 2^64, not 2 * 2^60
    assert (vals.tolist(), denom) == ref_numerators(table)
    f = PseudoBoolean.from_disjoint_form(table)
    assert f == ref_from_disjoint_form(table)
    assert f.coefficient(range(4)) == 1 << 64
    below = shared_parity_table(4, 1 << 57)  # 16 * 2^57 = 2^61: int64 holds every pass
    assert _scaled(below)[0].dtype == np.int64
    assert PseudoBoolean.from_disjoint_form(below).coefficient(range(4)) == 1 << 61


def test_n16_tables_of_shared_and_of_own_objects():
    rng = random.Random(16)
    f = random_rational_pbf(rng, 16, max_terms=12)
    shared = f.to_disjoint_form()
    assert shared == ref_to_disjoint_form(f)
    own = [Fraction(v) for v in shared]  # every entry its own object
    assert len({id(v) for v in own}) == len(own) > len({id(v) for v in shared})
    for table in (shared, own):
        assert _numerators(table) == ref_numerators(table)
        vals, denom = _scaled(table)
        assert (vals.tolist(), denom) == ref_numerators(table)
    assert PseudoBoolean.from_disjoint_form(own) == ref_from_disjoint_form(shared) == f
    assert PseudoBoolean.from_disjoint_form(shared) == f


def test_shared_objects_of_mixed_types():
    rng = random.Random(12)
    big = 3 * BIG + 1  # past int64: the list reader gathers Python ints
    pool = [0, 7, -2, big, Fraction(1, 3), Fraction(-5, 6), "3/4", 1.25, Decimal("-0.5"), True]
    for n in range(11):
        table = [rng.choice(pool) for _ in range(1 << n)]
        want = ref_numerators(table)
        assert _numerators(table) == want
        vals, denom = _scaled(table)
        assert (vals.tolist(), denom) == want
        assert vals.dtype == (np.int64 if sum(map(abs, want[0])) < BIG else object)
        assert PseudoBoolean.from_disjoint_form(table) == ref_from_disjoint_form(table)


def test_an_object_arrays_bytes_are_its_entries_ids():
    """The invariant the table reader rests on: the bytes of an object array,
    read as uintp, are its entries' references, which are their ids."""
    shared = Fraction(1, 3)
    values = [shared, 7, "3/4", shared, np.int64(5), None, [3], shared, 1.25, BIG]
    objs = np.fromiter(values, object, len(values))
    assert np.frombuffer(objs.tobytes(), np.uintp).tolist() == [id(v) for v in values]


@pytest.mark.parametrize("table", changed_and_shared_tables())
def test_from_disjoint_form_on_changed_and_shared_tables(table):
    assert PseudoBoolean.from_disjoint_form(table) == ref_from_disjoint_form(table)


#: past 2^8 entries: int64 spans below the length (the range table) and past
#: it (np.unique), and Python ints (the dict)
LARGE = [
    PseudoBoolean.from_terms(10, {(i,): 1 for i in range(10)}),
    PseudoBoolean.from_terms(10, {(i,): Fraction(1 << i, 3) for i in range(10)}),  # 1024 values, span 1023
    PseudoBoolean.from_terms(9, {**{(i,): 1 << i for i in range(9)}, (0, 8): 7}),  # span 518
    PseudoBoolean.from_terms(9, {(i,): BIG + i for i in range(9)}),
]


def assert_one_fraction_per_distinct_value(f, build, monkeypatch):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            if len(args) == 2:  # a table value over the LCM; one-argument calls coerce terms
                built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(pbf, "Fraction", CountingFraction)
    table = build()
    monkeypatch.undo()
    assert table == ref_to_disjoint_form(f)
    assert all(type(v) is Fraction for v in table)
    assert len(built) == len(set(table)) == len({id(v) for v in table})


@pytest.mark.parametrize("f", CASES[::2] + TIES + LARGE)
def test_disjoint_form_builds_one_fraction_per_distinct_value(f, monkeypatch):
    assert_one_fraction_per_distinct_value(f, f.to_disjoint_form, monkeypatch)


@pytest.mark.parametrize("f", CASES[::2] + TIES + LARGE)
def test_diagonal_builds_one_fraction_per_distinct_value(f, monkeypatch):
    op = embed_diagonal(f)
    assert_one_fraction_per_distinct_value(f, lambda: op.diag, monkeypatch)


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


def test_from_disjoint_form_on_mixed_entry_types():
    rng = random.Random(5)
    for n in range(7):
        table = []
        for _ in range(1 << n):
            v = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
            table.append(rng.choice((v, str(v), v.numerator if v.denominator == 1 else v)))
        assert PseudoBoolean.from_disjoint_form(table) == ref_from_disjoint_form(table)


@pytest.mark.parametrize("table, dtype", [
    ([0, str(BIG // 2), Fraction(BIG // 4), BIG // 4 - 1], np.int64),
    ([0, str(BIG // 2), Fraction(BIG // 4), BIG // 4], object),
    ([-(BIG // 2), "0", Fraction(-(BIG // 2)), 0], object),
    # below 2^61 each, pushed over 2^62 by the LCM 15 of the denominators
    ([Fraction(1 << 61, 3), "0", f"-{1 << 60}/5", -1], object),
    ([Fraction(1 << 58, 3), "0", f"-{1 << 57}/5", -1], np.int64),
])
def test_from_disjoint_form_on_mixed_tables_at_the_bound(table, dtype):
    assert _scaled(table)[0].dtype == dtype
    assert PseudoBoolean.from_disjoint_form(table) == ref_from_disjoint_form(table)


@pytest.mark.parametrize("bad", ["1/0x", None, "two"])
def test_from_disjoint_form_keeps_the_coercion_errors(bad):
    with pytest.raises(Exception) as want:
        Fraction(bad)
    with pytest.raises(type(want.value)) as got:
        PseudoBoolean.from_disjoint_form([0, 1, bad, 2])
    assert str(got.value) == str(want.value)


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


def test_minimize_cap_message_at_the_default_cap():
    with pytest.raises(EnumerationCapError) as exc:
        minimize_bruteforce(PseudoBoolean.zero(21))
    assert str(exc.value) == "disjoint-form table would enumerate 2^21 points (cap 2^20)"


F3 = PseudoBoolean.from_terms(3, {(0,): 1, (1, 2): -1})

CAP_CALLS = {
    "kernel": lambda cap: F3.kernel(cap=cap),
    "is_nonnegative": lambda cap: F3.is_nonnegative(cap=cap),
    "to_disjoint_form": lambda cap: F3.to_disjoint_form(cap=cap),
    "minimize_bruteforce": lambda cap: minimize_bruteforce(F3, cap=cap),
    "detect_symmetric": lambda cap: detect_symmetric(F3, cap=cap),
    "embed_diagonal": lambda cap: embed_diagonal(F3, cap=cap),
    "embed_state": lambda cap: embed_state(F3, cap=cap),
    "quadratic_realizability": lambda cap: quadratic_realizability(["000", "111"], 3, cap=cap),
    "one_body_kernel": lambda cap: one_body_kernel(OneBodyForm((1, 0, 2), (0, 1, 1)), cap),
}


@pytest.mark.parametrize("call", CAP_CALLS.values(), ids=CAP_CALLS)
def test_every_cap_is_read_as_a_count(call):
    """A decimal string is its integer; a bool, a float, None or any other
    string is a ValueError naming it (the one-body kernel's argument is
    explicit_cap)."""
    assert call("3") == call(3)
    for bad in (True, 2.5, None, " 3", "1_0", "\u0663", "x"):
        with pytest.raises(ValueError, match=rf"^(explicit_)?cap must be an integer, got {bad!r}$"):
            call(bad)


@pytest.mark.parametrize("text", [" 3", "3 ", "1_0", "\u0663", "x", "+3", "-", "--1", "",
                                  pytest.param("9" * 5000, id="past-the-int-digit-limit")])
def test_a_count_string_is_an_optional_minus_then_ascii_digits(text):
    """A string of more digits than int() reads is refused by name too, its repr shortened."""
    with pytest.raises(ValueError) as exc:
        pbf._count(text, "n")
    assert str(exc.value) == f"n must be an integer, got {reprlib.repr(text)}"
    assert len(str(exc.value)) < 80


def test_a_count_string_of_digits_is_its_integer():
    assert [pbf._count(text, "n") for text in ("3", "-1", "007", "0")] == [3, -1, 7, 0]
    with pytest.raises(ValueError, match=r"^arity must be in 0\.\.64, got -1$"):
        pbf._check_arity("-1")
    with pytest.raises(EnumerationCapError, match=r"\(cap 2\^-1\)$"):
        F3.kernel(cap="-1")


#: constructors that compare a count: (the count's name, a call with it)
CONSTRUCTOR_COUNTS = {
    "CliffordCircuit": ("circuit width", lambda v: stabilizer.CliffordCircuit(v)),
    "CliffordGate": ("target", lambda v: stabilizer.CliffordGate("h", v)),
    "SymplecticPauli": ("n", lambda v: stabilizer.SymplecticPauli(v, 1, 0)),
    "ghz_circuit": ("n", stabilizer.ghz_circuit),
    "stirling_matrix": ("n", symmetric.stirling_matrix),
    "delta_product_form": ("k", symmetric.delta_product_form),
    "symmetric_ising": ("n", lambda v: symmetric.symmetric_ising(1, 1, v)),
}


@pytest.mark.parametrize("bad", [True, 2.0, None])
@pytest.mark.parametrize("what, call", CONSTRUCTOR_COUNTS.values(), ids=CONSTRUCTOR_COUNTS)
def test_a_constructor_reads_its_counts_by_the_count_rule(what, call, bad):
    """A bool, a float or None is a ValueError naming the count, not a 1, a
    leaked TypeError or a width of True; None is also a gate's "no control"."""
    with pytest.raises(ValueError, match=rf"^{what} must be an integer, got {bad!r}$"):
        call(bad)
    if bad is not None:
        with pytest.raises(ValueError, match=rf"^control must be an integer, got {bad!r}$"):
            stabilizer.CliffordGate("cnot", 0, bad)


def test_a_constructor_stores_its_counts_as_python_ints():
    gate = stabilizer.CliffordGate("cnot", np.int64(1), np.uint8(0))
    circuit = stabilizer.CliffordCircuit(np.int32(2), (gate,))
    p = stabilizer.SymplecticPauli(np.int16(2), 1, 0)
    assert [type(v) for v in (gate.target, gate.control, circuit.n, p.n)] == [int] * 4
    assert circuit == stabilizer.CliffordCircuit(2, (stabilizer.cnot(0, 1),))
    assert stabilizer.ghz_circuit(np.int64(3)) == stabilizer.ghz_circuit(3)
    assert symmetric.stirling_matrix(np.int64(3)) == symmetric.stirling_matrix(3)
    assert symmetric.delta_product_form(np.int64(3)) == symmetric.delta_product_form(3)
    assert symmetric.symmetric_ising(1, 1, np.int64(3)) == symmetric.symmetric_ising(1, 1, 3)


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


def test_members_with_float_or_bool_bits_name_their_point():
    assert quadratic_realizability(["00", "11"], 2).verify({(0.0, 0), (1, 1.0)}) is True
    op = support_parent(SupportSet(2, frozenset({(1.0, 0)})))
    assert op.nums[2] == 0 and op.kernel_indices() == [2]
    assert support_parent(SupportSet(2, frozenset({(True, False)}))).kernel_indices() == [2]


def test_members_that_are_not_assignments_name_no_point():
    op = support_parent(SupportSet(3, frozenset({(0, 1, 1), (1, 1), (2, 0, 0), "001"})))
    assert op.kernel_indices() == [0b011]
    target = {(0, 0), (1, 1)}
    real = quadratic_realizability(target, 2)
    padded = target | {(1, 1, 1), (2, 0), "01"}
    assert real.verify(padded) is ref_margin_check(real, padded) is True
