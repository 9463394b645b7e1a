"""The one-pass expression parser against the term-by-term reference.

Every input must give the same arity and terms, or the same error text
and position, under the default ``PRODUCT_CAP`` and under small ones.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbkernel import ParseError, expr
from conftest import ref_parse

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=120)


def outcome(parse, text, arity):
    try:
        f = parse(text, arity)
    except ParseError as exc:
        return "ParseError", str(exc), exc.position
    except ValueError as exc:  # an arity outside 0..64
        return "ValueError", str(exc)
    return f.n, f.terms()


def assert_same(text, arity=None, cap=expr.PRODUCT_CAP):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "PRODUCT_CAP", cap)
        assert outcome(expr.parse, text, arity) == outcome(ref_parse, text, arity)


rationals = st.builds(
    lambda a, b: str(a) if b is None else f"{a}/{b}", st.integers(0, 12), st.sampled_from((None, None, 1, 2, 3))
)
variables = st.builds(
    lambda comp, i: f"{comp}x{i}", st.sampled_from(("", "", "", "~")), st.sampled_from((1, 2, 3, 4, 5) * 3 + (65,))
)
signs = st.sampled_from(("", "", "-", "+", "- -", "-+", "--"))


def sums(factors):
    term = st.one_of(
        st.builds(lambda sign, c, fs: sign + "*".join([c] + fs), signs, rationals, st.lists(factors, max_size=3)),
        st.builds(lambda sign, fs: sign + "*".join(fs), signs, st.lists(factors, min_size=1, max_size=4)),
    )
    return st.builds(str.join, st.sampled_from((" + ", " - ", "+", "-")), st.lists(term, min_size=1, max_size=4))


expressions = st.recursive(
    variables, lambda inner: sums(st.one_of(variables, variables, inner.map("({})".format))), max_leaves=16
)
texts = st.one_of(
    expressions,
    expressions,
    st.tuples(expressions, st.integers(1, 120)).map(lambda t: t[0][: t[1]]),  # truncated
)


@FIXED
@given(texts, st.sampled_from((None, None, 5, 3, 65, -1)), st.sampled_from((1 << 16, 1 << 16, 4, 3, 2, 1)))
@example("(x1+x2+x3)*x4", None, 2)
@example("x1*x2*x3 - x1*x2*x3", None, 1 << 16)
@example(") + x65", None, 1 << 16)
@example("x1 + 2/0*x2", None, 1 << 16)
@example("x1 + *x2", None, 1 << 16)
def test_one_pass_parse_matches_the_term_by_term_parser(text, arity, cap):
    assert_same(text, arity, cap)


@pytest.mark.parametrize(
    "text, cap",
    [
        ("(x1+x2+x3)*x4", 2),  # a run after a sum: its first product is checked
        ("(x1+x2+x3)*x4", 3),
        ("(x1+x2+x3)*x4*x5*x6", 3),
        ("(x1+x2+x3)*x4*x5*(x6+x7)", 5),  # the run is multiplied in before the sum's check
        ("(x1+x2+x3)*x4*x5*(x6+x7)", 6),
        ("(x1 + x2 - x1*x2)*x2*x3", 2),  # the run cancels terms of the sum
        ("(x1 + x2 - x1*x2)*x2*x3", 3),
        ("(x1 + x2 - x1*x2)*x2*(x3+x4)", 4),  # the sum's check counts the merged terms
        ("(x1 + x2 - x1*x2)*x2*(x3+x4)", 3),
        ("x1*x2*x3", 0),
        ("3*x1*x2*(x3+~x4)*x5", 2),
        ("0*x1*(x2+x3)*x4", 1),
        ("(x1+x2)*(x3+x4)*x5*x6", 4),
        ("(x1+x2)*(x3+x4)*x5*x6", 3),
        ("(x1+x2+x3)*x4*)", 2),  # the cap error comes before the syntax error
        ("(x1+x2+x3)*x4*)", 3),
    ],
)
def test_product_cap_is_checked_at_the_same_product(text, cap):
    assert_same(text, cap=cap)
