"""The one Boolean <-> spin <-> Pauli-Z change of variables against the
per-monomial subset expansions and per-variable and per-word loops it
replaced (the references in ``conftest``).

``boolean_to_spin``/``spin_to_boolean`` make one integer pass per
variable over a table that only holds subsets of input monomials;
``pbf_to_pauli``, ``pauli_to_pbf`` and ``ising_form`` read that pass, and
``SymplecticPauli`` shares the Pauli-word codec of ``pauli``.  The inputs
include every-monomial polynomials, whose expansions sum across
monomials, polynomials whose expansions cancel back to a few terms, and
few-term polynomials on ``MAX_ARITY`` variables.  Every answer must equal
the reference exactly, and the work is bounded by a count of calls into
``fractions`` and of the integer pairs the pass adds, not by wall time.
"""

import fractions
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from pbkernel import (
    NotDiagonalError,
    PauliSum,
    PseudoBoolean,
    SymplecticPauli,
    boolean_to_spin,
    ising_form,
    pauli_to_pbf,
    pbf_to_pauli,
    spin_to_boolean,
)
from pbkernel import pbf
from pbkernel.pauli import _pauli_masks, _pauli_word
from pbkernel.pbf import MAX_ARITY
from conftest import (
    ref_boolean_to_spin,
    ref_ising_form,
    ref_letter_masks,
    ref_letters,
    ref_pauli_to_pbf,
    ref_pbf_to_pauli,
    ref_spin_to_boolean,
    ref_subset_substitute_affine,
)


def random_rational_pbf(rng, n, max_terms=10, max_degree=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        vars_ = tuple(rng.sample(range(n), rng.randint(0, min(max_degree, n))))
        terms[vars_] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 7, 12)))
    return PseudoBoolean.from_terms(n, terms)


def dense_pbf(rng, n):
    """Every one of the 2^n monomials, each with a nonzero rational coefficient."""
    return PseudoBoolean(n, {mask: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                            rng.choice((1, 2, 3, 4, 5, 7, 12)))
                             for mask in range(1 << n)})


def polynomial_cases():
    rng = random.Random(0x5B1)
    cases = []
    for n in range(10):
        cases += [PseudoBoolean.zero(n), PseudoBoolean.constant(n, Fraction(-7, 3))]
        cases += [random_rational_pbf(rng, n) for _ in range(12)]
    cases += [dense_pbf(rng, n) for n in range(9)]
    # a few spin (or Boolean) terms and their dense expansion in the other
    # variables: converting the expansion back cancels across its monomials
    for n in range(1, 9):
        for g in (random_rational_pbf(rng, n, 4, n), PseudoBoolean.from_terms(n, {range(n): -3})):
            cases += [ref_spin_to_boolean(g), ref_boolean_to_spin(g)]
    wide = [random_rational_pbf(rng, MAX_ARITY, 6, 10) for _ in range(4)]
    wide.append(PseudoBoolean.from_terms(MAX_ARITY, {(0, MAX_ARITY - 1): Fraction(5, 2), (MAX_ARITY - 1,): -1,
                                                     tuple(range(0, MAX_ARITY, 8)): Fraction(-1, 3)}))
    return cases + wide


POLYS = polynomial_cases()


@pytest.mark.parametrize("f", POLYS, ids=lambda f: f"n{f.n}")
def test_spin_substitutions_match_the_reference(f):
    spin, boolean = boolean_to_spin(f), spin_to_boolean(f)
    assert spin == ref_boolean_to_spin(f) == ref_subset_substitute_affine(f, Fraction(1, 2), Fraction(-1, 2))
    assert boolean == ref_spin_to_boolean(f) == ref_subset_substitute_affine(f, Fraction(1), Fraction(-2))
    assert spin_to_boolean(spin) == f
    assert boolean_to_spin(boolean) == f


def fractions_calls(convert, f):
    """Python-level calls into the ``fractions`` module while ``convert(f)`` runs."""
    calls = 0

    def count(frame, event, _):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename == fractions.__file__

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        convert(f)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("convert", [boolean_to_spin, spin_to_boolean])
def test_substitution_work_is_linear_in_the_table(convert, monkeypatch):
    n = 10
    f = dense_pbf(random.Random(n), n)
    # the pass builds no Fraction; reading its output as Fractions is a few calls
    # per term, where a per-subset expansion makes about 7.7 * 3^n
    assert fractions_calls(convert, f) == 0
    assert 0 < fractions_calls(lambda g: convert(g).masked_terms(), f) <= 16 << n
    # the integer work: one (term without the variable, coefficient) pair per
    # variable and held term, at most n * 2^(n-1), where subsets number 3^n
    pairs = []
    accumulate = pbf._accumulate

    def counted(table, items):
        items = list(items)
        pairs.append(len(items))
        return accumulate(table, items)

    monkeypatch.setattr(pbf, "_accumulate", counted)
    assert convert(f) == {boolean_to_spin: ref_boolean_to_spin, spin_to_boolean: ref_spin_to_boolean}[convert](f)
    assert len(pairs) == n and 0 < sum(pairs) <= n << (n - 1)


@pytest.mark.parametrize("f", POLYS, ids=lambda f: f"n{f.n}")
def test_pauli_conversions_match_the_reference(f):
    ps = pbf_to_pauli(f)
    assert ps == ref_pbf_to_pauli(f)
    assert all(c != 0 for _, c in ps.terms())
    assert pauli_to_pbf(ps) == ref_pauli_to_pbf(ps) == f
    assert ps.to_text() == ref_pbf_to_pauli(f).to_text()


def test_pauli_to_pbf_on_sums_that_are_not_expansions():
    rng = random.Random(7)
    for n in range(7):
        for _ in range(10):
            words = ["".join(rng.choice("IZ") for _ in range(n)) for _ in range(rng.randint(0, 6))]
            h = PauliSum(n, {w: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for w in words})
            assert pauli_to_pbf(h) == ref_pauli_to_pbf(h)


def test_zero_qubit_words():
    assert pbf_to_pauli(PseudoBoolean.constant(0, 3)) == PauliSum(0, {"": 3})
    assert pbf_to_pauli(PseudoBoolean.zero(0)) == PauliSum.zero(0)
    assert pauli_to_pbf(PauliSum(0, {"": Fraction(-1, 2)})) == PseudoBoolean.constant(0, Fraction(-1, 2))
    assert pauli_to_pbf(PauliSum.zero(0)) == PseudoBoolean.zero(0)
    assert ising_form(PseudoBoolean.constant(0, 5)) == (Fraction(5), (), {})
    assert SymplecticPauli.from_letters("") == SymplecticPauli(0)
    assert SymplecticPauli(0).letters() == ""


def test_pauli_to_pbf_rejects_x_and_y_letters():
    for word in ("XI", "IY", "ZX"):
        with pytest.raises(NotDiagonalError, match="not diagonal"):
            pauli_to_pbf(PauliSum(2, {word: 1}))


@pytest.mark.parametrize("f", [f for f in POLYS if f.degree <= 2]
                         + [random_rational_pbf(random.Random(n), n, 40, 2) for n in range(1, 13)],
                         ids=lambda f: f"n{f.n}")
def test_ising_form_matches_the_reference(f):
    form = ising_form(f)
    constant, fields, couplings = ref_ising_form(f)
    assert form == (constant, fields, couplings)
    assert list(form.couplings) == list(couplings)  # the (l, k) order, l < k
    assert all(type(v) is Fraction for v in (form.constant, *form.fields, *form.couplings.values()))


def test_ising_form_rejects_degree_three():
    with pytest.raises(ValueError, match=r"^degree 3 > 2; not an Ising-form function$"):
        ising_form(PseudoBoolean.from_terms(3, {(0, 1, 2): 1}))


def test_word_codec_over_all_four_letters():
    for n in range(5):
        for letters in product("IXYZ", repeat=n):
            word = "".join(letters)
            x, z = ref_letter_masks(word)
            assert _pauli_masks(word) == (x, z)
            assert _pauli_word(x, z, n) == ref_letters(x, z, n) == word
            p = SymplecticPauli.from_letters(word, -1)
            assert (p.n, p.x, p.z, p.sign) == (n, x, z, -1)
            assert p.letters() == word


@pytest.mark.parametrize("word", ["Q", "XQZ", "IIx", "Z Z"])
def test_bad_pauli_letter(word):
    bad = next(ch for ch in word if ch not in "IXYZ")
    with pytest.raises(ValueError, match=f"^bad Pauli letter {bad!r}$"):
        SymplecticPauli.from_letters(word)
    with pytest.raises(ValueError, match=f"^bad Pauli letter {bad!r}$"):
        ref_letter_masks(word)
