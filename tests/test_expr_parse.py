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


ONE = expr.Fraction(1)


@pytest.mark.parametrize(
    "text, arity, cap, expected",
    [
        ("~x2", None, 1 << 16, (2, [((), ONE), ((1,), -ONE)])),
        ("0 +", 65, 1 << 16, ("ValueError", "arity must be in 0..64, got 65")),  # at the first polynomial
        (")", 65, 1 << 16, ("ParseError", "expected a variable, '(' or number, found ')' at line 1, column 1 "
                                          "(at position 0)", 0)),  # before any polynomial
        ("0*x1*x2", None, 0, (2, [])),
        ("2*x1*x2", None, 0, ("ParseError", "product at line 1, column 2 needs 1 term products, over cap 0 "
                                            "(at position 1)", 1)),
        ("x1*x2", None, 0, ("ParseError", "product at line 1, column 3 needs 1 term products, over cap 0 "
                                          "(at position 2)", 2)),
        ("x1*x1*x2", None, 1 << 16, (2, [((0, 1), ONE)])),
        ("- -3/6*x1 + 1/2*x1", None, 1 << 16, (1, [((0,), ONE)])),
        ("-0*x1", None, 1 << 16, (1, [])),
        # only a text that names a variable is refused for it; a constant text
        # at a bad arity gets the polynomial's arity error
        ("3", -1, 1 << 16, ("ValueError", "arity must be in 0..64, got -1")),
        ("x2", -1, 1 << 16, ("ParseError", "expression uses x2 but arity -1 was requested (at position 0)", 0)),
        (")", -1, 1 << 16, ("ParseError", "expected a variable, '(' or number, found ')' at line 1, column 1 "
                                          "(at position 0)", 0)),
    ],
)
def test_flat_terms_keep_their_outcome(text, arity, cap, expected):
    """A leading number with its sign folded in, a variable run and the arity
    check give the outcome the term-by-term parser gives."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "PRODUCT_CAP", cap)
        assert outcome(expr.parse, text, arity) == expected
    assert_same(text, arity, cap)


# -- the line reader of the state, strings, circuit and Pauli-text files -------


def test_records_skip_blank_and_comment_lines_and_count_them():
    text = "qubits 2\n\n   \n# a note\n  #indented note\nh\t1 # trailing text is a field\r\ncnot 1 2"
    assert list(expr.records(text)) == [
        (1, ["qubits", "2"]),
        (6, ["h", "1", "#", "trailing", "text", "is", "a", "field"]),
        (7, ["cnot", "1", "2"]),
    ]
    assert list(expr.records("")) == list(expr.records("\n# only\n")) == []


@pytest.mark.parametrize("token, value", [
    ("3", 3), ("-1/2", expr.Fraction(-1, 2)), ("0.25", expr.Fraction(1, 4)), ("1e3", 1000),
    ("2E-2", expr.Fraction(1, 50)),
])
def test_rational_reads_exact_numbers(token, value):
    got = expr.rational(token, 4)
    assert got == value and type(got) is expr.Fraction


@pytest.mark.parametrize("token, message", [
    ("1/0", "zero denominator"),
    ("0/0", "zero denominator"),
    ("x", "bad number 'x'"),
    ("1/-2", "bad number '1/-2'"),
    ("nan", "bad number 'nan'"),
    ("inf", "bad number 'inf'"),
    ("1e99999", "decimal exponent over {} digits"),
    ("1e-" + "9" * 50, "decimal exponent over {} digits"),
    ("1" * 5000, "bad number '" + "1" * 5000 + "'"),  # past int()'s digit limit
], ids=["1/0", "0/0", "x", "1/-2", "nan", "inf", "1e99999", "1e-9x50", "1x5000"])
def test_rational_refuses_with_the_line(token, message):
    import sys

    with pytest.raises(ParseError) as exc:
        expr.rational(token, 9, "state line")
    assert str(exc.value) == "state line 9: " + message.format(sys.get_int_max_str_digits())
    assert exc.value.position is None

