"""Property tests on generated inputs (hypothesis, derandomized).

The examples are a fixed function of each test, so a run is
reproducible, and the example counts keep the module to seconds.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pbkernel import LPInstance, PseudoBoolean, parse, pauli_to_pbf, pbf_to_pauli, simplex_solve
from conftest import ref_simplex_solve

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

rationals = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 4, 6, 7, 9))
)


@st.composite
def polynomials(draw, max_arity=6):
    n = draw(st.integers(0, max_arity))
    masks = st.integers(0, (1 << n) - 1)
    return PseudoBoolean(n, draw(st.dictionaries(masks, rationals, max_size=8)))


@st.composite
def linear_programs(draw):
    nv = draw(st.integers(1, 4))
    rows = st.tuples(st.lists(rationals, min_size=nv, max_size=nv), rationals)
    return LPInstance(
        num_vars=nv,
        objective=draw(st.lists(rationals, min_size=nv, max_size=nv)),
        eq=draw(st.lists(rows, max_size=2)),
        geq=draw(st.lists(rows, max_size=4)),
        nonneg=draw(st.lists(st.booleans(), min_size=nv, max_size=nv)),
        sense=draw(st.sampled_from(("min", "max"))),
    )


@FIXED
@given(polynomials())
def test_text_round_trip(f):
    assert parse(f.to_text(), arity=f.n) == f


@FIXED
@given(polynomials())
def test_pauli_round_trip(f):
    assert pauli_to_pbf(pbf_to_pauli(f)) == f


@FIXED
@given(polynomials())
def test_disjoint_form_round_trip(f):
    assert PseudoBoolean.from_disjoint_form(f.to_disjoint_form()) == f


@settings(FIXED, max_examples=150)
@given(linear_programs())
def test_integer_tableau_matches_the_fraction_reference(lp):
    assert simplex_solve(lp) == ref_simplex_solve(lp)
