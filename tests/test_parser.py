"""Parser and printer: grammar, jet subscripts, diagnostics, round-trip."""

from fractions import Fraction as F

import pytest

from densepde.expr import Const, Var, evaluate_exact, simplify
from densepde.multiindex import MultiIndex
from densepde.parser import Context, ParseError, parse_expression
from densepde.printer import to_text

CTX2 = Context(("x", "y"), ("u",))
SYS = Context(("x", "y", "z"), ("v", "w"))


def test_number_is_exact():
    e = parse_expression("0.1", CTX2)
    assert e == Const(F(1, 10))


def test_precedence():
    e = parse_expression("1 + 2*3^2", CTX2)
    assert e == Const(F(19))


def test_unary_minus():
    e = parse_expression("-x^2", CTX2)
    assert evaluate_exact(e, {CTX2.space(1): F(2)}) == -4


def test_jet_subscripts():
    e = parse_expression("u_xyy", CTX2)
    assert e == Var(CTX2.jet(1, MultiIndex((1, 2))))


def test_context_interns_its_variables():
    assert CTX2.jet(1, (1, 0)) is CTX2.jet(1, MultiIndex((1, 0)))
    assert parse_expression("u_x", CTX2).var is CTX2.jet(1, (1, 0))
    assert CTX2.space(2) is CTX2.space(2) is CTX2.space_vars()[1]
    with pytest.raises(ValueError):
        CTX2.jet(2, (1, 0))
    with pytest.raises(ValueError):
        CTX2.jet(1, (1, 0, 0))


def test_bare_unknown_is_order_zero_jet():
    e = parse_expression("u", CTX2)
    assert e == Var(CTX2.jet(1, MultiIndex((0, 0))))


def test_system_unknowns():
    e = parse_expression("v_x + w_z", SYS)
    assert Var(SYS.jet(1, MultiIndex((1, 0, 0)))) in e.terms
    assert Var(SYS.jet(2, MultiIndex((0, 0, 1)))) in e.terms


def test_function_call():
    e = parse_expression("sin(x*y)", CTX2)
    assert to_text(e) == "sin(x*y)"


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_expression("x + * y", CTX2)
    assert info.value.position == 4


def test_unknown_subscript_letter():
    with pytest.raises(ParseError):
        parse_expression("u_q", CTX2)


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expression("(x + y", CTX2)


def test_jet_order_bound_enforced_in_parser():
    ctx = Context(("x",), ("u",), max_jet_order=1)
    parse_expression("u_x", ctx)
    with pytest.raises(ParseError):
        parse_expression("u_xx", ctx)


ROUND_TRIP = [
    "x + y",
    "x - y",
    "-x + 2*y",
    "x*y^2 + 3/4",
    "u_x^2 + u_y^2 - 1",
    "sin(x)*exp(y)",
    "x / (1 + y^2)",
    "(x + y)^3",
    "u_xx + u_yy - x*y",
    "2 - x^2/4",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_round_trip(text):
    e = parse_expression(text, CTX2)
    again = parse_expression(to_text(e), CTX2)
    assert simplify(again) == simplify(e)
